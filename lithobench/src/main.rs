//! `lithobench`: the end-to-end LithoGAN benchmark.
//!
//! ```text
//! cargo run --release --manifest-path lithobench/Cargo.toml -- \
//!     --workload infer-256|train-64|datagen --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` one closed-loop client runs the workload's op for
//! `--seconds` seconds with tracing off and reports the end-to-end
//! metrics. With `--trace 1` a separate pass times the op's parts and
//! every layer's public entry points from the benchmark's own spans and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `lithobench/README.md` for the workloads and metrics.

mod probes;
mod stats;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use litho_tensor::pool;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured loop, seconds.
    pub seconds: f64,
    /// Traced (per-layer) pass instead of the end-to-end pass.
    pub trace: bool,
}

const USAGE: &str = "usage: lithobench --workload infer-256|train-64|datagen \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a pass hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted; a traced pass adds one for its probes.
    pub attempted: u64,
    /// Ops that returned an error or failed their output check.
    pub failed: u64,
    /// Run-level check failures (e.g. the batch/single equivalence).
    pub check_failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// Scratch space inside the working directory for the files ops write;
/// removed when the run ends.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(root: &Path, workload: &str) -> std::io::Result<Self> {
        let dir = root
            .join(".bench_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// Path of a scratch file.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("lithobench: refusing to report numbers from a debug build; use --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lithobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lithobench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };

    let nproc = sys::nproc();
    pool::configure_threads(nproc);
    println!(
        "env: workload={} seed={} seconds={} trace={} simd={} pool_threads={} nproc={} \
         profile=release rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        litho_tensor::simd::active_level().name(),
        pool::effective_threads(),
        nproc,
        sys::git_revision(&root),
    );

    let scratch = match Scratch::new(&root, &args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lithobench: cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args, &scratch) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lithobench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    drop(scratch);

    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for c in &report.check_failures {
        println!("CHECK FAILED: {c}");
    }
    println!(
        "ops: attempted={} succeeded={} failed={}",
        report.attempted,
        report.attempted - report.failed,
        report.failed
    );
    let correct = report.failed == 0 && report.check_failures.is_empty();
    println!("{}", result_json(correct, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "train-64",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train-64", 3, 10.0, true)
        );
    }

    #[test]
    fn rejects_unknown_workloads_flags_and_missing_values() {
        let base = ["--seed", "1", "--seconds", "1", "--trace", "0"];
        let mut bad = strings(&["--workload", "nope"]);
        bad.extend(strings(&base));
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&strings(&["--workload", "datagen", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "datagen", "--bogus", "1"])).is_err());
        let mut two = strings(&["--workload", "datagen"]);
        two.extend(strings(&["--seed", "1", "--seconds", "1", "--trace", "2"]));
        assert!(parse_args(&two).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.5, "s"), metric("x", f64::NAN, "ms")],
            ..Report::default()
        };
        assert_eq!(
            result_json(true, &report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
