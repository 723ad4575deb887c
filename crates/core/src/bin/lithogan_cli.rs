//! `lithogan-cli` — dataset generation, training, evaluation, prediction
//! and run analysis from the command line.
//!
//! ```text
//! lithogan-cli generate --node N10 --clips 140 --size 64 --out data.lgd
//! lithogan-cli train    --data data.lgd --epochs 10 --out model.lgm
//! lithogan-cli eval     --data data.lgd --model model.lgm
//! lithogan-cli predict  --data data.lgd --model model.lgm --index 3 --out-dir out/
//! lithogan-cli report   <run-id|run-dir>
//! lithogan-cli compare  <run-a> <run-b>
//! lithogan-cli compare  <run> --gate baseline.json [--tol-pct N]
//! ```
//!
//! Every workload command records itself into `runs/<id>/` (manifest,
//! per-sample metric records, telemetry trace) unless `--no-run` is
//! given; `report` and `compare` read those directories back. See
//! `lithogan-cli help <command>` for per-command flags.
//!
//! Each flag is declared once, in `flags`; [`COMMANDS`] lists each
//! command's flags, and parsing, help and rejection all read that table.

use flags::*;
use litho_dataset::{generate, load_dataset, save_dataset, Dataset, DatasetConfig};
use litho_health::DiagnosisKind;
use litho_layout::image::{overlay_panel, write_ppm};
use litho_ledger::{
    dashboard_svg, diff_eval, fingerprint_file, flamegraph_svg, fmt_unix, fold_lines, gate,
    health_svg, load_index, load_run, reindex, render_attribution, render_compare,
    render_diff_eval, render_health, render_report, render_snapshot, render_trend, render_triage,
    slice_metric_key, trend, trend_svg, triage_svg, validate_run_id, Baseline, DatasetInfo,
    RunData, RunLedger, TrendConfig, WatchConfig, WatchSession,
};
use litho_metrics::MetricAccumulator;
use litho_sim::ProcessConfig;
use litho_tensor::TensorError;
use lithogan::{
    run_dash, AbortCondition, DashConfig, HealthConfig, HealthMonitor, LithoGan, NetConfig, Result,
    TrainConfig,
};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;
use Absent::{DefaultsTo, FallsBackTo, Required, Unset};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Generate {
        node: String,
        clips: usize,
        size: usize,
        jitter_nm: f64,
        out: String,
    },
    Train {
        data: String,
        epochs: usize,
        seed: u64,
        augment: bool,
        health: bool,
        health_stride: u64,
        abort_on: Option<String>,
        poison_nan_at_epoch: Option<usize>,
        out: String,
    },
    Eval {
        data: String,
        model: String,
    },
    Predict {
        data: String,
        model: String,
        index: usize,
        out_dir: String,
    },
    Report {
        run: String,
    },
    Triage {
        run: String,
        worst: usize,
    },
    Profile {
        run: String,
        top: usize,
    },
    Health {
        run: String,
        fail_on: Option<String>,
    },
    Compare {
        a: String,
        b: Option<String>,
        gate: Option<String>,
        tol_pct: Option<f64>,
        write_baseline: Option<String>,
    },
    RunsLs {
        status: Option<String>,
        command: Option<String>,
        dataset: Option<String>,
        last: Option<usize>,
        json: bool,
    },
    RunsTrend {
        metrics: String,
        slice: Option<String>,
        last: Option<usize>,
        gate: bool,
        tol_pct: Option<f64>,
        drift_runs: Option<usize>,
        out: Option<String>,
    },
    RunsDiffEval {
        a: String,
        b: String,
        gate: bool,
        tol_pct: f64,
    },
    RunsGc {
        keep: usize,
        baseline: Option<String>,
    },
    Reindex,
    Alerts {
        rules: Option<String>,
        gate: bool,
        json: bool,
    },
    Watch {
        run: String,
        interval_ms: u64,
        timeout_s: Option<u64>,
        wait_s: u64,
    },
    Dash {
        addr: String,
    },
    Help,
    HelpFor(String),
}

/// What a flag means when the command line leaves it out.
#[derive(Debug, PartialEq)]
enum Absent {
    /// The command cannot run without it.
    Required,
    /// A boolean is off; a value flag is `None`.
    Unset,
    /// The flag takes this value.
    DefaultsTo(&'static str),
    /// Left unset here; the help names what the command then uses.
    FallsBackTo(&'static str),
}

/// One flag: its spelling, its value placeholder (empty for a boolean
/// flag), what its absence means, and one line of help.
#[derive(Debug, PartialEq)]
struct Flag {
    name: &'static str,
    value: &'static str,
    absent: Absent,
    help: &'static str,
}

/// Every flag, declared once. A spelling that means different things to
/// different commands (`--out`, `--gate`, `--tol-pct`, `--json`) is
/// declared once per meaning, reusing the first declaration's name.
#[rustfmt::skip]
mod flags {
    use super::{Absent::{self, *}, Flag};

    const fn flag(name: &'static str, value: &'static str, absent: Absent, help: &'static str) -> Flag {
        Flag { name, value, absent, help }
    }

    const fn switch(name: &'static str, help: &'static str) -> Flag {
        flag(name, "", Unset, help)
    }

    // Global: accepted by every command, before or after the command word.
    pub const TRACE: Flag = switch("--trace", "print a nested span/metric report to stderr on exit");
    pub const METRICS_OUT: Flag = flag("--metrics-out", "FILE", FallsBackTo("runs/<id>/trace.jsonl when a run ledger is active"), "stream telemetry events as JSONL to FILE");
    pub const RUNS_ROOT: Flag = flag("--runs-root", "DIR", DefaultsTo("runs"), "where run ledgers are created/resolved");
    pub const NO_RUN: Flag = switch("--no-run", "do not record this invocation under runs/");
    pub const THREADS: Flag = flag("--threads", "N", FallsBackTo("LITHO_THREADS env var, else the detected core count"), "worker-pool width for the compute kernels; 0 = auto");
    pub const SIMD: Flag = flag("--simd", "LEVEL", FallsBackTo("LITHO_SIMD env var, else CPUID detection; never exceeds the host ISA"), "kernel level: auto, avx2 or scalar");
    pub const HELP: Flag = switch("--help", "print the command's help and exit");

    // generate, train, eval, predict
    pub const NODE: Flag = flag("--node", "N10|N7", DefaultsTo("N10"), "process node preset");
    pub const CLIPS: Flag = flag("--clips", "N", DefaultsTo("140"), "number of layout clips");
    pub const SIZE: Flag = flag("--size", "S", DefaultsTo("64"), "image resolution in pixels");
    pub const JITTER: Flag = flag("--jitter", "NM", DefaultsTo("3.0"), "mask corner jitter in nm");
    pub const DATASET_OUT: Flag = flag("--out", "FILE", Required, "output dataset path");
    pub const DATA: Flag = flag("--data", "FILE", Required, "dataset from `generate`");
    pub const EPOCHS: Flag = flag("--epochs", "N", DefaultsTo("10"), "training epochs");
    pub const SEED: Flag = flag("--seed", "N", DefaultsTo("0"), "RNG seed");
    pub const AUGMENT: Flag = switch("--augment", "enable flip/rotate augmentation");
    pub const HEALTH: Flag = switch("--health", "stream model-health records to the run's health.jsonl");
    pub const HEALTH_STRIDE: Flag = flag("--health-stride", "N", DefaultsTo("8"), "sample every Nth step; implies --health");
    pub const ABORT_ON: Flag = flag("--abort-on", "LIST", Unset, "abort training on nan and/or collapse; implies --health");
    pub const POISON_NAN_AT_EPOCH: Flag = flag("--poison-nan-at-epoch", "N", Unset, "fault injection: plant a NaN weight at epoch N");
    pub const MODEL_OUT: Flag = flag(DATASET_OUT.name, "FILE", Required, "model output path");
    pub const MODEL: Flag = flag("--model", "FILE", Required, "model from `train`");
    pub const INDEX: Flag = flag("--index", "I", DefaultsTo("0"), "sample index");
    pub const OUT_DIR: Flag = flag("--out-dir", "DIR", DefaultsTo("."), "where to write panels");

    // triage, profile, health, compare
    pub const WORST: Flag = flag("--worst", "K", DefaultsTo("10"), "panels/rows to show");
    pub const TOP: Flag = flag("--top", "N", DefaultsTo("20"), "table rows");
    pub const FAIL_ON: Flag = flag("--fail-on", "LIST", Unset, "comma-separated diagnoses that exit nonzero when present (aliases: nan, collapse)");
    pub const BASELINE_GATE: Flag = flag("--gate", "FILE", Unset, "baseline to gate against");
    pub const GATE_TOL: Flag = flag("--tol-pct", "N", Unset, "tolerance override in percent");
    pub const WRITE_BASELINE: Flag = flag("--write-baseline", "FILE", Unset, "regenerate a baseline from <run-a>'s metrics (records <run-a>'s id, which `runs gc` then protects)");

    // runs ls|trend|diff-eval|gc, alerts, watch, dash
    pub const STATUS: Flag = flag("--status", "S", Unset, "keep runs with this status (ok, error, running; aborted matches any aborted(...))");
    pub const COMMAND: Flag = flag("--command", "C", Unset, "keep runs of this command (train, eval, ...)");
    pub const DATASET: Flag = flag("--dataset", "FP", Unset, "keep runs whose dataset fingerprint starts with FP");
    pub const LAST: Flag = flag("--last", "N", Unset, "keep only the N most recent runs");
    pub const LS_JSON: Flag = switch("--json", "one index record per line as JSON, byte-identical to the index lines and the dash /api/runs entries");
    pub const SLICE: Flag = flag("--slice", "family=F", Unset, "trend the per-family slice of each metric (e.g. ede_mean_nm restricted to chain1d clips); runs without that slice abstain rather than read as zero");
    pub const DRIFT_GATE: Flag = switch(BASELINE_GATE.name, "exit nonzero when a drift is confirmed (CI)");
    pub const TREND_TOL: Flag = flag(GATE_TOL.name, "P", FallsBackTo("10"), "how far from the fleet median a run is off, in percent");
    pub const DRIFT_RUNS: Flag = flag("--drift-runs", "N", FallsBackTo("2"), "consecutive off runs that confirm a drift");
    pub const TREND_OUT: Flag = flag(DATASET_OUT.name, "FILE", FallsBackTo("<runs-root>/trend.svg"), "where to write trend.svg");
    pub const DIFF_TOL: Flag = flag(GATE_TOL.name, "P", DefaultsTo("10"), "allowed per-clip EDE growth in percent");
    pub const DIFF_GATE: Flag = switch(BASELINE_GATE.name, "exit nonzero when any clip regressed (CI)");
    pub const KEEP: Flag = flag("--keep", "N", Required, "run directories to keep");
    pub const GC_BASELINE: Flag = flag("--baseline", "FILE", FallsBackTo("ci/baseline.json when present"), "baseline whose recorded run is never removed");
    pub const RULES: Flag = flag("--rules", "FILE", FallsBackTo("<runs-root>/alerts.toml, else the built-in set"), "alert rule config (TOML subset)");
    pub const ALERTS_GATE: Flag = switch(BASELINE_GATE.name, "exit nonzero while any alert is firing (CI)");
    pub const ALERTS_JSON: Flag = switch(LS_JSON.name, "also print active alerts as JSONL records");
    pub const INTERVAL_MS: Flag = flag("--interval-ms", "N", DefaultsTo("200"), "poll interval");
    pub const TIMEOUT_S: Flag = flag("--timeout-s", "N", FallsBackTo("wait forever"), "give up after N seconds");
    pub const WAIT_S: Flag = flag("--wait-s", "N", DefaultsTo("10"), "how long to wait for the run directory to appear");
    pub const ADDR: Flag = flag("--addr", "HOST:PORT", DefaultsTo("127.0.0.1:9091"), "address to bind; port 0 picks an ephemeral port, announced on stdout");
}

const GLOBAL_FLAGS: &[Flag] = &[TRACE, METRICS_OUT, RUNS_ROOT, NO_RUN, THREADS, SIMD, HELP];

/// One command: its words (`"runs ls"` for a subcommand), its operands
/// (`<..>` required, `[..]` optional), its flags and its prose help. An
/// entry whose name starts other entries' names (`runs`) is a family
/// header that only carries the prose its subcommands share.
#[derive(Debug, PartialEq)]
struct Spec {
    name: &'static str,
    operands: &'static str,
    flags: &'static [Flag],
    about: &'static str,
}

fn is_family(spec: &Spec) -> bool {
    specs_for(spec.name).any(|s| s.name != spec.name)
}

/// Every command, in the order `usage` lists them.
#[rustfmt::skip]
const COMMANDS: &[Spec] = &[
    Spec { name: "generate", operands: "", flags: &[NODE, CLIPS, SIZE, JITTER, DATASET_OUT], about: "\
        Synthesizes a mask/aerial/resist dataset with the in-tree lithography\n\
        simulator and writes it to FILE." },
    Spec { name: "train", operands: "", flags: &[DATA, EPOCHS, SEED, AUGMENT, HEALTH, HEALTH_STRIDE, ABORT_ON, POISON_NAN_AT_EPOCH, MODEL_OUT], about: "\
        Trains LithoGAN on the 75% train split, saves the model, then\n\
        evaluates the 25% test split; per-sample metrics land in the run's\n\
        samples.jsonl and the loss curve in its trace." },
    Spec { name: "eval", operands: "", flags: &[DATA, MODEL], about: "\
        Evaluates a trained model on the test split: EDE, pixel/class\n\
        accuracy, mean IoU and centre error, with one record per sample\n\
        appended to the run ledger." },
    Spec { name: "predict", operands: "", flags: &[DATA, MODEL, INDEX, OUT_DIR], about: "\
        Runs inference on one sample, writes mask/prediction panels as PPM\n\
        and records that sample's metrics in the run ledger." },
    Spec { name: "report", operands: "<run-id|run-dir>", flags: &[], about: "\
        Renders one recorded run: manifest, aggregated per-sample metrics,\n\
        span timing table with exact p50/p95/p99, critical path and\n\
        counters. Also writes runs/<id>/dashboard.svg (loss curves, EDE\n\
        histogram, stage latency). The argument is a directory path or a\n\
        run id resolved under --runs-root." },
    Spec { name: "triage", operands: "<run-id|run-dir>", flags: &[WORST], about: "\
        Ranks a run's per-sample records by EDE — contours that vanished\n\
        outrank every numeric error — and prints the worst K as a table\n\
        (sample index, clip fingerprint, family, mean and per-edge EDE).\n\
        Also writes runs/<id>/triage.svg: a self-contained gallery with\n\
        one schematic panel per clip (mask target, golden contour,\n\
        predicted contour displaced by the recorded per-edge EDE).\n\
        Legacy records without clip identity still rank; their clip and\n\
        family columns show \"-\"." },
    Spec { name: "profile", operands: "<run-id|run-dir>", flags: &[TOP], about: "\
        Folds a run's trace.jsonl into a self-time profile: writes\n\
        runs/<id>/flamegraph.svg (icicle layout, frames tinted by the\n\
        roofline verdict of their kernel cost model) and\n\
        runs/<id>/flamegraph.folded (Brendan-Gregg folded-stack text),\n\
        and prints a top-N attribution table ranked by self time with\n\
        achieved GFLOP/s, arithmetic intensity and compute- vs\n\
        memory-bound verdict per instrumented kernel. The classification\n\
        threshold is the host machine balance, LITHO_MACHINE_BALANCE\n\
        (FLOPs per byte, default 8)." },
    Spec { name: "health", operands: "<run-id|run-dir>", flags: &[FAIL_ON], about: "\
        Analyzes a run's health.jsonl (from `train --health`): per-layer\n\
        activation/gradient tables, update-to-weight ratios, GAN balance\n\
        signals and the six named diagnoses (vanishing-gradient,\n\
        exploding-update, dead-layer, d-overpowers-g, mode-collapse,\n\
        nan-poisoned) with first-seen epoch/step. Also writes\n\
        runs/<id>/health.svg (sparkline panel)." },
    Spec { name: "compare", operands: "<run-a> [<run-b>]", flags: &[BASELINE_GATE, GATE_TOL, WRITE_BASELINE], about: "\
        With two runs: aligned metric/latency delta table.\n\
        With --gate: checks <run-a> against a baseline JSON\n\
        ({\"tol_pct\": N, \"metrics\": {...}}) and exits nonzero when any\n\
        metric regressed beyond tolerance — the CI regression gate." },
    Spec { name: "runs", operands: "", flags: &[], about: "\
        Fleet-level views over the append-only runs index\n\
        (<runs-root>/index.jsonl, maintained by every finalizing run;\n\
        repair it with `reindex`)." },
    Spec { name: "runs ls", operands: "", flags: &[STATUS, COMMAND, DATASET, LAST, LS_JSON], about: "\
        ls: one line per run: id, start, status, dataset fingerprint,\n\
        headline EDE and health verdict." },
    Spec { name: "runs trend", operands: "<metric[,metric...]>", flags: &[SLICE, LAST, DRIFT_GATE, TREND_TOL, DRIFT_RUNS, TREND_OUT], about: "\
        trend: aligned per-run table of the metric plus a self-contained\n\
        trend.svg. Drift detection is streak-based: a run is off when beyond\n\
        --tol-pct of the fleet median, and --drift-runs consecutive off runs\n\
        confirm a drift." },
    Spec { name: "runs diff-eval", operands: "<run-a> <run-b>", flags: &[DIFF_TOL, DIFF_GATE], about: "\
        diff-eval: join two runs' samples.jsonl by clip fingerprint and\n\
        bucket every shared clip: regressed / improved / unchanged vs\n\
        --tol-pct, plus clips only one run evaluated (new / missing).\n\
        Records without fingerprints (legacy ledgers) are counted but\n\
        can't join." },
    Spec { name: "runs gc", operands: "", flags: &[KEEP, GC_BASELINE], about: "\
        gc: remove all but the newest --keep N run directories, never\n\
        touching running runs or the run recorded in the baseline, then\n\
        rebuild the index." },
    Spec { name: "reindex", operands: "", flags: &[], about: "\
        Rebuilds <runs-root>/index.jsonl from the surviving run\n\
        directories (manifest + samples.jsonl aggregate + health.jsonl\n\
        verdict) and swaps it in atomically. Use after crashes, manual\n\
        deletion or to adopt pre-index run directories." },
    Spec { name: "alerts", operands: "", flags: &[RULES, ALERTS_GATE, ALERTS_JSON], about: "\
        Evaluates the fleet's alert rules against the runs index, the\n\
        health verdicts, the trend drift detector and live run activity,\n\
        then prints the active alerts and appends state transitions\n\
        (pending -> firing -> resolved, deduplicated by fingerprint) to\n\
        <runs-root>/alerts.jsonl. The built-in rules page on unhealthy\n\
        runs and warn on ede_mean_nm drift — aggregate and per-family —\n\
        and on stalled runs. See DESIGN.md §4g for the rule schema\n\
        (threshold / drift / slice_drift / health / stale).\n\n\
        Crashed or aborted runs additionally ship a post-mortem in\n\
        runs/<id>/incident/: the telemetry flight-recorder ring, panic\n\
        message + backtrace, manifest snapshot, process counters and the\n\
        last per-layer tensor stats." },
    Spec { name: "watch", operands: "<run-id|run-dir>", flags: &[INTERVAL_MS, TIMEOUT_S, WAIT_S], about: "\
        Live-follows an in-flight run: incrementally tails its\n\
        trace.jsonl and health.jsonl (tolerating torn lines from the\n\
        concurrent writer), rendering epoch progress, loss deltas, an\n\
        ETA from the epoch cadence and live health verdicts. Alert\n\
        transitions appended to <runs-root>/alerts.jsonl while watching\n\
        are echoed live. Exits 0 when the run finishes ok, nonzero when\n\
        it errors or aborts — so `watch` can stand in for the run's own\n\
        exit code. A run directory removed mid-watch (e.g. by\n\
        `runs gc`) is a hard error, not an endless wait." },
    Spec { name: "dash", operands: "", flags: &[ADDR], about: "\
        Serves the runs fleet over HTTP until POST /shutdown, Ctrl-C or\n\
        SIGTERM. Endpoints:\n\n  \
        GET /                       HTML fleet page\n  \
        GET /metrics                Prometheus text exposition: run counts\n                              \
        by status, latest headline metrics per\n                              \
        command, drift-detector state, live gauges\n                              \
        for in-flight runs, dash self metrics\n  \
        GET /api/runs               all index records as JSON\n  \
        GET /api/runs/<id>          one run: index record + manifest\n  \
        GET /api/alerts             active alerts as JSON (evaluates the\n                              \
        alert rules on each request)\n  \
        GET /runs/<id>/dashboard.svg   report dashboard, rendered on demand\n  \
        GET /runs/<id>/health.svg      health sparkline panel\n  \
        GET /runs/<id>/trend.svg       fleet trends (ede/throughput/pool)\n  \
        GET /runs/<id>/flamegraph.svg  self-time flamegraph\n  \
        POST /shutdown              clean stop\n\n\
        The daemon records itself in the runs ledger: request counters and\n\
        latency quantiles land in its trace.jsonl and its manifest is\n\
        finalized on shutdown, so `runs trend` works on dash runs too.\n\
        Addresses in --runs-root; disable the self-run with --no-run." },
    Spec { name: "help", operands: "[command]", flags: &[], about: "\
        Prints the usage, or one command's flags and help." },
];

/// The entries under command word `word`: one command, or a family
/// header and its subcommands.
fn specs_for(word: &str) -> impl Iterator<Item = &'static Spec> + '_ {
    COMMANDS
        .iter()
        .filter(move |s| s.name.split(' ').next() == Some(word))
}

fn synopsis(spec: &Spec) -> String {
    let flags = spec.flags.iter().map(|f| match (&f.absent, f.value) {
        (_, "") => format!(" [{}]", f.name),
        (Required, v) => format!(" {} {v}", f.name),
        (_, v) => format!(" [{} {v}]", f.name),
    });
    let head = format!("lithogan-cli {} {}", spec.name, spec.operands);
    head.trim_end().to_string() + &flags.collect::<String>()
}

fn flag_rows(flags: &[Flag]) -> String {
    let row = |f: &Flag| {
        let note = match f.absent {
            Required => " (required)".to_string(),
            Unset => String::new(),
            DefaultsTo(v) | FallsBackTo(v) => format!(" (default {v})"),
        };
        let label = format!("{} {}", f.name, f.value);
        format!("\n  {:<22}  {}{note}", label.trim_end(), f.help)
    };
    flags.iter().map(row).collect()
}

fn global_help() -> String {
    format!(
        "global flags (accepted by every command, --flag VALUE or --flag=VALUE):{}",
        flag_rows(GLOBAL_FLAGS)
    )
}

fn usage() -> String {
    let runnable = COMMANDS.iter().filter(|s| !is_family(s));
    let lines: String = runnable.map(|s| format!("\n  {}", synopsis(s))).collect();
    format!("usage:{lines}\n{}", global_help())
}

/// Detailed per-command help (satisfies `help <cmd>` and `<cmd> --help`);
/// the usage for an unknown command.
fn command_help(cmd: &str) -> String {
    let block = |s: &Spec| format!("{}\n\n{}{}\n\n", synopsis(s), s.about, flag_rows(s.flags));
    let blocks: String = specs_for(cmd).map(block).collect();
    if blocks.is_empty() {
        return usage();
    }
    blocks + &global_help()
}

/// Global flags, accepted by every command.
#[derive(Debug, Clone, PartialEq)]
struct GlobalOpts {
    trace: bool,
    metrics_out: Option<String>,
    runs_root: String,
    no_run: bool,
    /// Worker-pool width override (`Some(0)` = auto-detect).
    threads: Option<usize>,
    /// Kernel-level override (`--simd auto|avx2|scalar`).
    simd: Option<litho_tensor::KernelLevel>,
}

fn global_opts(g: &Given) -> Result<GlobalOpts> {
    // `auto` resolves via CPUID inside `parse_level`.
    let level = |v: String| litho_tensor::parse_level(&v).ok_or(v);
    let simd = g.opt(&SIMD)?.map(level).transpose();
    let simd = simd.map_err(|v| bad(format!("{}: unknown level {v:?}", SIMD.name)));
    Ok(GlobalOpts {
        trace: g.has(&TRACE),
        metrics_out: g.opt(&METRICS_OUT)?,
        runs_root: g.get(&RUNS_ROOT)?,
        no_run: g.has(&NO_RUN),
        threads: g.opt(&THREADS)?,
        simd: simd?,
    })
}

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

fn io_err(e: std::io::Error) -> TensorError {
    bad(e.to_string())
}

/// The flags a command line gave, in order, with their values (`None`
/// for a boolean flag).
#[derive(Debug, Default, PartialEq)]
struct Given(Vec<(&'static str, Option<String>)>);

impl Given {
    fn has(&self, flag: &Flag) -> bool {
        self.0.iter().any(|(name, _)| *name == flag.name)
    }

    /// The value given for `flag`, else its default, parsed.
    fn opt<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>> {
        let given = self.0.iter().find(|(name, _)| *name == flag.name);
        let raw = match (given, &flag.absent) {
            (Some((_, value)), _) => value.as_deref(),
            (None, DefaultsTo(value)) => Some(*value),
            (None, _) => None,
        };
        let invalid = |v: &str| bad(format!("{}: invalid {} {v:?}", flag.name, flag.value));
        raw.map(|v| v.parse().map_err(|_| invalid(v))).transpose()
    }

    /// The value of a required or defaulted flag, parsed.
    fn get<T: FromStr>(&self, flag: &Flag) -> Result<T> {
        let missing = || bad(format!("missing {} {}", flag.name, flag.value));
        self.opt(flag)?.ok_or_else(missing)
    }
}

/// One scanned command line, before its values are typed.
#[derive(Debug, Default, PartialEq)]
struct Invocation {
    /// The command; a family header until its subcommand word arrives.
    spec: Option<&'static Spec>,
    operands: Vec<String>,
    flags: Given,
    help: bool,
}

/// Splits `args` into the command, its operands, its flags and the
/// global flags (which may appear anywhere), checking every flag
/// against the tables. `--flag VALUE` and `--flag=VALUE` are both
/// accepted; an unknown flag, a value flag without a value, a boolean
/// flag given `=value` and a repeated flag are errors naming the flag
/// and the command.
fn scan(args: &[String]) -> Result<(Invocation, GlobalOpts)> {
    let mut globals = Given::default();
    let mut inv = Invocation::default();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let command = inv.spec.map_or("lithogan-cli", |s| s.name);
        if !arg.starts_with("--") {
            match inv.spec {
                Some(spec) if !is_family(spec) => inv.operands.push(arg.clone()),
                // The command word, or the subcommand word after a family's.
                family => {
                    let name = family.map_or(arg.clone(), |f| format!("{} {arg}", f.name));
                    let spec = COMMANDS.iter().find(|s| s.name == name);
                    inv.spec = Some(spec.ok_or_else(|| match family {
                        Some(family) => missing_subcommand(family.name),
                        None => bad(format!("unknown command {arg:?}\n{}", usage())),
                    })?);
                }
            }
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let local = inv.spec.map_or(&[][..], |s| s.flags);
        let (flag, given) = match GLOBAL_FLAGS.iter().find(|f| f.name == name) {
            Some(flag) => (flag, &mut globals),
            None => match local.iter().find(|f| f.name == name) {
                Some(flag) => (flag, &mut inv.flags),
                None => return Err(bad(format!("{command}: unknown flag {name}"))),
            },
        };
        let value = match (flag.value, inline) {
            ("", Some(_)) => return Err(bad(format!("{command}: {name} takes no value"))),
            ("", None) => None,
            (_, Some(value)) => Some(value),
            (_, None) => match rest.next_if(|v| !v.starts_with("--")) {
                Some(value) => Some(value.clone()),
                None => return Err(bad(format!("{command}: {name} requires a value"))),
            },
        };
        if given.has(flag) {
            return Err(bad(format!("{command}: {name} given more than once")));
        }
        given.0.push((flag.name, value));
    }
    inv.help = globals.has(&HELP);
    match inv.spec {
        Some(family) if is_family(family) && !inv.help => Err(missing_subcommand(family.name)),
        _ => Ok((inv, global_opts(&globals)?)),
    }
}

fn missing_subcommand(family: &str) -> TensorError {
    bad(format!(
        "{family} takes a subcommand\n{}",
        command_help(family)
    ))
}

/// Parses an argument vector (without the program name).
fn parse_args(args: &[String]) -> Result<(Command, GlobalOpts)> {
    let (inv, opts) = scan(args)?;
    Ok((Command::try_from(inv)?, opts))
}

impl TryFrom<Invocation> for Command {
    type Error = TensorError;

    fn try_from(inv: Invocation) -> Result<Command> {
        let Some(spec) = inv.spec else {
            return Ok(Command::Help);
        };
        if inv.help {
            let word = spec.name.split(' ').next().unwrap_or_default();
            return Ok(Command::HelpFor(word.to_string()));
        }
        let m = &inv.flags;
        let mut operands = inv.operands.iter().cloned();
        let mut operand = || {
            let missing = || bad(format!("{} takes {}", spec.name, spec.operands));
            operands.next().ok_or_else(missing)
        };
        let cmd = match spec.name {
            "generate" => Command::Generate {
                node: m.get(&NODE)?,
                clips: m.get(&CLIPS)?,
                size: m.get(&SIZE)?,
                jitter_nm: m.get(&JITTER)?,
                out: m.get(&DATASET_OUT)?,
            },
            "train" => Command::Train {
                data: m.get(&DATA)?,
                epochs: m.get(&EPOCHS)?,
                seed: m.get(&SEED)?,
                augment: m.has(&AUGMENT),
                // Any health-adjacent flag implies the health stream.
                health: [HEALTH, HEALTH_STRIDE, ABORT_ON, POISON_NAN_AT_EPOCH]
                    .iter()
                    .any(|f| m.has(f)),
                health_stride: m.get(&HEALTH_STRIDE)?,
                abort_on: m.opt(&ABORT_ON)?,
                poison_nan_at_epoch: m.opt(&POISON_NAN_AT_EPOCH)?,
                out: m.get(&MODEL_OUT)?,
            },
            "eval" => Command::Eval {
                data: m.get(&DATA)?,
                model: m.get(&MODEL)?,
            },
            "predict" => Command::Predict {
                data: m.get(&DATA)?,
                model: m.get(&MODEL)?,
                index: m.get(&INDEX)?,
                out_dir: m.get(&OUT_DIR)?,
            },
            "report" => Command::Report { run: operand()? },
            "triage" => Command::Triage {
                run: operand()?,
                worst: m.get(&WORST)?,
            },
            "profile" => Command::Profile {
                run: operand()?,
                top: m.get(&TOP)?,
            },
            "health" => Command::Health {
                run: operand()?,
                fail_on: m.opt(&FAIL_ON)?,
            },
            "compare" => {
                let (a, b) = (operand()?, operand().ok());
                let gate = m.opt(&BASELINE_GATE)?;
                let write_baseline = m.opt(&WRITE_BASELINE)?;
                if b.is_none() && gate.is_none() && write_baseline.is_none() {
                    return Err(bad("compare needs <run-b>, --gate or --write-baseline"));
                }
                let tol_pct = m.opt(&GATE_TOL)?;
                Command::Compare {
                    a,
                    b,
                    gate,
                    tol_pct,
                    write_baseline,
                }
            }
            "runs ls" => Command::RunsLs {
                status: m.opt(&STATUS)?,
                command: m.opt(&COMMAND)?,
                dataset: m.opt(&DATASET)?,
                last: m.opt(&LAST)?,
                json: m.has(&LS_JSON),
            },
            "runs trend" => Command::RunsTrend {
                metrics: operand()?,
                slice: m.opt(&SLICE)?,
                last: m.opt(&LAST)?,
                gate: m.has(&DRIFT_GATE),
                tol_pct: m.opt(&TREND_TOL)?,
                drift_runs: m.opt(&DRIFT_RUNS)?,
                out: m.opt(&TREND_OUT)?,
            },
            "runs diff-eval" => Command::RunsDiffEval {
                a: operand()?,
                b: operand()?,
                gate: m.has(&DIFF_GATE),
                tol_pct: m.get(&DIFF_TOL)?,
            },
            "runs gc" => Command::RunsGc {
                keep: m.get(&KEEP)?,
                baseline: m.opt(&GC_BASELINE)?,
            },
            "reindex" => Command::Reindex,
            "alerts" => Command::Alerts {
                rules: m.opt(&RULES)?,
                gate: m.has(&ALERTS_GATE),
                json: m.has(&ALERTS_JSON),
            },
            "watch" => Command::Watch {
                run: operand()?,
                interval_ms: m.get(&INTERVAL_MS)?,
                timeout_s: m.opt(&TIMEOUT_S)?,
                wait_s: m.get(&WAIT_S)?,
            },
            "dash" => Command::Dash {
                addr: m.get(&ADDR)?,
            },
            "help" => operand().ok().map_or(Command::Help, Command::HelpFor),
            other => unreachable!("command {other:?} has a table entry but no builder"),
        };
        if let Some(extra) = operands.next() {
            return Err(bad(format!("{}: unexpected operand {extra:?}", spec.name)));
        }
        Ok(cmd)
    }
}

impl Command {
    fn name(&self) -> &'static str {
        match self {
            Command::Generate { .. } => "generate",
            Command::Train { .. } => "train",
            Command::Eval { .. } => "eval",
            Command::Predict { .. } => "predict",
            Command::Report { .. } => "report",
            Command::Triage { .. } => "triage",
            Command::Profile { .. } => "profile",
            Command::Health { .. } => "health",
            Command::Compare { .. } => "compare",
            Command::RunsLs { .. }
            | Command::RunsTrend { .. }
            | Command::RunsDiffEval { .. }
            | Command::RunsGc { .. } => "runs",
            Command::Reindex => "reindex",
            Command::Alerts { .. } => "alerts",
            Command::Watch { .. } => "watch",
            Command::Dash { .. } => "dash",
            Command::Help | Command::HelpFor(_) => "help",
        }
    }

    /// Should this invocation open a run ledger?
    fn records_run(&self) -> bool {
        matches!(
            self,
            Command::Generate { .. }
                | Command::Train { .. }
                | Command::Eval { .. }
                | Command::Predict { .. }
                | Command::Dash { .. }
        )
    }

    fn seed(&self) -> Option<u64> {
        match self {
            Command::Train { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// Flat key/value pairs for the run manifest.
    fn config_pairs(&self) -> Vec<(String, String)> {
        let kv = |k: &str, v: String| (k.to_string(), v);
        match self {
            Command::Generate {
                node,
                clips,
                size,
                jitter_nm,
                out,
            } => vec![
                kv("node", node.clone()),
                kv("clips", clips.to_string()),
                kv("size", size.to_string()),
                kv("jitter_nm", jitter_nm.to_string()),
                kv("out", out.clone()),
            ],
            Command::Train {
                data,
                epochs,
                seed,
                augment,
                health,
                health_stride,
                abort_on,
                poison_nan_at_epoch,
                out,
            } => {
                let mut pairs = vec![
                    kv("data", data.clone()),
                    kv("epochs", epochs.to_string()),
                    kv("seed", seed.to_string()),
                    kv("augment", augment.to_string()),
                    kv("out", out.clone()),
                ];
                if *health {
                    pairs.push(kv("health", "true".to_string()));
                    pairs.push(kv("health_stride", health_stride.to_string()));
                }
                if let Some(conds) = abort_on {
                    pairs.push(kv("abort_on", conds.clone()));
                }
                if let Some(epoch) = poison_nan_at_epoch {
                    pairs.push(kv("poison_nan_at_epoch", epoch.to_string()));
                }
                pairs
            }
            Command::Eval { data, model } => {
                vec![kv("data", data.clone()), kv("model", model.clone())]
            }
            Command::Predict {
                data,
                model,
                index,
                out_dir,
            } => vec![
                kv("data", data.clone()),
                kv("model", model.clone()),
                kv("index", index.to_string()),
                kv("out_dir", out_dir.clone()),
            ],
            Command::Dash { addr } => vec![kv("addr", addr.clone())],
            _ => Vec::new(),
        }
    }
}

/// Turns telemetry on. A JSONL sink goes to `--metrics-out` when given,
/// else to the active run's `trace.jsonl`; with a ledger present,
/// telemetry is always enabled so every run carries its trace.
fn init_telemetry(
    opts: &GlobalOpts,
    command: &str,
    ledger: Option<&mut RunLedger>,
) -> Result<()> {
    let has_ledger = ledger.is_some();
    if !opts.trace && opts.metrics_out.is_none() && !has_ledger {
        return Ok(());
    }
    let sink_path: Option<PathBuf> = match (&opts.metrics_out, &ledger) {
        (Some(path), _) => Some(PathBuf::from(path)),
        (None, Some(ledger)) => Some(ledger.default_trace_path()),
        (None, None) => None,
    };
    if let Some(path) = &sink_path {
        let sink = litho_telemetry::JsonlSink::create(path)
            .map_err(|e| bad(format!("--metrics-out {}: {e}", path.display())))?;
        litho_telemetry::set_sink(Some(Box::new(sink)));
    }
    if let Some(ledger) = ledger {
        let trace = match &opts.metrics_out {
            // An explicit path lives outside the run dir; record it as given.
            Some(path) => path.clone(),
            None => "trace.jsonl".to_string(),
        };
        ledger.set_trace_path(&trace).map_err(io_err)?;
        litho_telemetry::set_run_id(Some(ledger.run_id()));
    }
    litho_telemetry::enable();
    // Per-job pool accounting is cheap (two clock reads per participant)
    // and only meaningful with somewhere to report to, so it follows the
    // telemetry switch.
    litho_tensor::pool::set_profiling(true);
    litho_telemetry::emit_run_metadata(&[(
        "command",
        litho_telemetry::Value::Str(command.to_string()),
    )]);
    Ok(())
}

fn net_for(size: usize) -> NetConfig {
    if size == 256 {
        NetConfig::paper()
    } else {
        NetConfig::scaled(size)
    }
}

/// Dataset identity for the manifest: path, content fingerprint and shape.
fn dataset_info(path: &str, ds: &Dataset) -> Result<DatasetInfo> {
    let (fingerprint, bytes) = fingerprint_file(Path::new(path)).map_err(io_err)?;
    Ok(DatasetInfo {
        path: path.to_string(),
        fingerprint,
        bytes,
        samples: ds.len(),
        image_size: ds.config.image_size,
        node: ds.config.process.name.clone(),
        nm_per_px: ds.config.golden_nm_per_px(),
    })
}

/// Resolves a `report`/`compare` operand: a run directory path, or a run
/// id under the runs root. An argument that is neither an existing run
/// directory nor a valid single-component run id is rejected, so
/// `report ../../x` can never escape the runs root.
fn resolve_run(arg: &str, runs_root: &str) -> Result<RunData> {
    let direct = Path::new(arg);
    let dir = if direct.join("manifest.json").exists() {
        direct.to_path_buf()
    } else {
        validate_run_id(arg).map_err(io_err)?;
        Path::new(runs_root).join(arg)
    };
    load_run(&dir).map_err(|e| bad(format!("run {arg:?}: {e}")))
}

/// How many samples `eval_into_ledger` stacks into one inference batch.
/// Bounds workspace memory while keeping the GEMMs wide enough to feed
/// the worker pool.
const EVAL_BATCH: usize = 8;

/// Evaluates `samples` and appends one record per sample to the ledger.
/// Inference runs batched (bit-identical to per-sample `predict`); the
/// measured throughput is stamped into the manifest as
/// `samples_per_sec`. Returns the accumulator for summary printing.
fn eval_into_ledger(
    model: &mut LithoGan,
    samples: &[&litho_dataset::Sample],
    nm_per_px: f64,
    ledger: &mut Option<RunLedger>,
) -> Result<MetricAccumulator> {
    let mut acc = MetricAccumulator::new(nm_per_px);
    let t0 = std::time::Instant::now();
    let mut predictions = Vec::with_capacity(samples.len());
    for chunk in samples.chunks(EVAL_BATCH) {
        let masks: Vec<&litho_tensor::Tensor> = chunk.iter().map(|s| &s.mask).collect();
        predictions.extend(model.predict_batch(&masks)?);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if let Some(ledger) = ledger {
        if !samples.is_empty() && elapsed > 0.0 {
            ledger.set_samples_per_sec(samples.len() as f64 / elapsed);
        }
    }
    for (i, (prediction, s)) in predictions.iter().zip(samples).enumerate() {
        litho_telemetry::set_sample_id(Some(i as u64));
        // Clip identity rides every record so `triage` / `runs diff-eval`
        // can join this run against any other run of the same dataset.
        let record = acc.add_pair_identified(
            prediction,
            &s.golden,
            &s.clip.fingerprint(),
            s.family.name(),
        )?;
        if let Some(ledger) = ledger {
            ledger.append_record(&record).map_err(io_err)?;
        }
    }
    litho_telemetry::set_sample_id(None);
    Ok(acc)
}

fn run(cmd: Command, opts: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            Ok(())
        }
        Command::HelpFor(cmd) => {
            println!("{}", command_help(&cmd));
            Ok(())
        }
        Command::Generate {
            node,
            clips,
            size,
            jitter_nm,
            out,
        } => {
            let process = match node.to_uppercase().as_str() {
                "N10" => ProcessConfig::n10(),
                "N7" => ProcessConfig::n7(),
                other => return Err(bad(format!("unknown node {other:?} (N10 or N7)"))),
            };
            let mut config = DatasetConfig::scaled(process, clips, size);
            config.mask_jitter_nm = jitter_nm;
            let t0 = std::time::Instant::now();
            let (ds, stats) = generate(&config)?;
            save_dataset(&ds, &out)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&out, &ds)?).map_err(io_err)?;
            }
            println!(
                "generated {} samples in {:.1?} ({} retries, {} OPC non-converged) -> {out}",
                ds.len(),
                t0.elapsed(),
                stats.empty_golden_retries,
                stats.opc_unconverged
            );
            Ok(())
        }
        Command::Train {
            data,
            epochs,
            seed,
            augment,
            health,
            health_stride,
            abort_on,
            poison_nan_at_epoch,
            out,
        } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let (train, test) = ds.split();
            let cfg = TrainConfig {
                epochs,
                seed,
                augment,
                ..TrainConfig::paper()
            };
            let mut model = LithoGan::new(&net_for(ds.config.image_size), seed);
            let monitor = if health {
                let conds = match &abort_on {
                    Some(list) => AbortCondition::parse_list(list)
                        .map_err(|name| bad(format!("--abort-on: unknown condition {name:?}")))?,
                    None => Vec::new(),
                };
                let path = match ledger {
                    Some(ledger) => ledger.dir().join("health.jsonl"),
                    None => PathBuf::from("health.jsonl"),
                };
                let monitor = HealthMonitor::create(
                    &path,
                    HealthConfig {
                        stride: health_stride.max(1),
                        abort_on: conds,
                        poison_nan_at_epoch,
                    },
                )
                .map_err(io_err)?;
                model.attach_health(&monitor);
                eprintln!("health: {}", path.display());
                Some(monitor)
            } else {
                None
            };
            let t0 = std::time::Instant::now();
            let train_result = model.train(&train, &cfg, |epoch, _| {
                eprintln!("epoch {}/{epochs} done ({:.1?})", epoch + 1, t0.elapsed());
                // Push buffered trace/health records to disk each epoch so
                // `lithogan-cli watch` sees progress while training runs.
                litho_telemetry::flush();
                if let Some(monitor) = &monitor {
                    monitor.flush();
                }
            });
            if let Some(monitor) = &monitor {
                monitor.flush();
            }
            let history = train_result?;
            model.save_to_path(&out)?;
            println!(
                "trained on {} samples; generator loss {:.2} -> {:.2}; saved {out}",
                train.len(),
                history.g_loss.first().copied().unwrap_or(0.0),
                history.g_loss.last().copied().unwrap_or(0.0)
            );
            // Post-training evaluation on the held-out split feeds the run
            // ledger, so `report`/`compare --gate` see quality, not just loss.
            if !test.is_empty() {
                let acc =
                    eval_into_ledger(&mut model, &test, ds.config.golden_nm_per_px(), ledger)?;
                let s = acc.summary();
                println!(
                    "test split  {} samples: EDE {:.2} nm, pixel acc {:.4}, mIoU {:.4}",
                    s.samples, s.ede_mean_nm, s.pixel_accuracy, s.mean_iou
                );
            }
            Ok(())
        }
        Command::Eval { data, model } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let (_, test) = ds.split();
            let mut m = LithoGan::load_from_path(&net_for(ds.config.image_size), &model)?;
            let acc = eval_into_ledger(&mut m, &test, ds.config.golden_nm_per_px(), ledger)?;
            let s = acc.summary();
            println!(
                "test samples {}\nEDE        {:.2} ± {:.2} nm\npixel acc  {:.4}\nclass acc  {:.4}\nmean IoU   {:.4}\ncentre err {:.2} nm",
                s.samples, s.ede_mean_nm, s.ede_std_nm, s.pixel_accuracy, s.class_accuracy, s.mean_iou, s.center_error_nm
            );
            for sl in &s.slices {
                let ede = sl
                    .ede_mean_nm
                    .map_or("-".to_string(), |v| format!("{v:.2} nm"));
                println!(
                    "  {:<9} {:>4} samples, EDE {ede}, mIoU {:.4}",
                    sl.family, sl.samples, sl.mean_iou
                );
            }
            Ok(())
        }
        Command::Predict {
            data,
            model,
            index,
            out_dir,
        } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let sample = ds
                .samples
                .get(index)
                .ok_or_else(|| bad(format!("index {index} out of range ({})", ds.len())))?;
            let mut m = LithoGan::load_from_path(&net_for(ds.config.image_size), &model)?;
            litho_telemetry::set_sample_id(Some(index as u64));
            let p = m.predict_detailed(&sample.mask)?;
            litho_telemetry::set_sample_id(None);
            if let Some(ledger) = ledger {
                let mut acc = MetricAccumulator::new(ds.config.golden_nm_per_px());
                let record = acc.add_pair_identified(
                    &p.adjusted,
                    &sample.golden,
                    &sample.clip.fingerprint(),
                    sample.family.name(),
                )?;
                ledger.append_record(&record).map_err(io_err)?;
            }
            std::fs::create_dir_all(&out_dir).map_err(io_err)?;
            let dir = Path::new(&out_dir);
            write_ppm(&sample.mask, dir.join(format!("sample{index}_mask.ppm")))?;
            let binary = p.adjusted.map(|v| if v >= 0.5 { 1.0 } else { 0.0 });
            let panel = overlay_panel(&binary, &sample.golden)?;
            write_ppm(&panel, dir.join(format!("sample{index}_prediction.ppm")))?;
            println!(
                "sample {index}: predicted centre ({:.1}, {:.1}) px, inference {:.2} ms; panels in {out_dir}",
                p.center_px.0,
                p.center_px.1,
                p.elapsed.as_secs_f64() * 1e3
            );
            Ok(())
        }
        Command::Report { run } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            print!("{}", render_report(&data));
            let svg_path = data.dir.join("dashboard.svg");
            std::fs::write(&svg_path, dashboard_svg(&data)).map_err(io_err)?;
            println!("dashboard:  {}", svg_path.display());
            Ok(())
        }
        Command::Triage { run, worst } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            print!(
                "{}",
                render_triage(&data.manifest.run_id, &data.records, worst)
            );
            let nm_per_px = data
                .manifest
                .dataset
                .as_ref()
                .map_or(1.0, |d| d.nm_per_px);
            let svg_path = data.dir.join("triage.svg");
            let svg = triage_svg(&data.manifest.run_id, &data.records, worst, nm_per_px);
            std::fs::write(&svg_path, svg).map_err(io_err)?;
            println!("gallery:    {}", svg_path.display());
            Ok(())
        }
        Command::Profile { run, top } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            let Some(trace) = &data.trace else {
                return Err(bad(format!(
                    "run {run:?} has no telemetry trace — rerun without --no-run"
                )));
            };
            print!("{}", render_attribution(trace, top));
            let svg_path = data.dir.join("flamegraph.svg");
            std::fs::write(&svg_path, flamegraph_svg(trace)).map_err(io_err)?;
            let folded_path = data.dir.join("flamegraph.folded");
            std::fs::write(&folded_path, fold_lines(trace)).map_err(io_err)?;
            println!("flamegraph: {}", svg_path.display());
            println!("folded:     {}", folded_path.display());
            Ok(())
        }
        Command::Health { run, fail_on } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            let Some(h) = &data.health else {
                return Err(bad(format!(
                    "run {run:?} has no health.jsonl — train with --health"
                )));
            };
            print!("{}", render_health(&data.manifest.run_id, h));
            let svg_path = data.dir.join("health.svg");
            std::fs::write(&svg_path, health_svg(&data.manifest.run_id, h)).map_err(io_err)?;
            println!("panel:      {}", svg_path.display());
            if let Some(list) = fail_on {
                let kinds = DiagnosisKind::parse_list(&list)
                    .map_err(|name| bad(format!("--fail-on: unknown diagnosis {name:?}")))?;
                let mut fired: Vec<&str> = h
                    .diagnoses
                    .iter()
                    .filter(|d| kinds.contains(&d.kind))
                    .map(|d| d.kind.as_str())
                    .collect();
                fired.dedup();
                if !fired.is_empty() {
                    return Err(bad(format!("health check failed: {}", fired.join(", "))));
                }
            }
            Ok(())
        }
        Command::Compare {
            a,
            b,
            gate: gate_path,
            tol_pct,
            write_baseline,
        } => {
            let run_a = resolve_run(&a, &opts.runs_root)?;
            if let Some(b) = b {
                let run_b = resolve_run(&b, &opts.runs_root)?;
                print!("{}", render_compare(&run_a, &run_b));
            }
            if let Some(path) = write_baseline {
                let keys = [
                    "ede_mean_nm",
                    "pixel_accuracy",
                    "class_accuracy",
                    "mean_iou",
                ];
                let baseline = Baseline::from_run(&run_a, tol_pct.unwrap_or(25.0), &keys);
                std::fs::write(&path, baseline.to_json_string()).map_err(io_err)?;
                println!("baseline written to {path}");
            }
            if let Some(path) = gate_path {
                let baseline = Baseline::load(Path::new(&path))
                    .map_err(|e| bad(format!("--gate {path}: {e}")))?;
                let outcome = gate(&run_a, &baseline, tol_pct);
                print!("{}", outcome.render());
                if !outcome.passed() {
                    let failed: Vec<String> =
                        outcome.failures().map(|c| c.metric.clone()).collect();
                    return Err(bad(format!("regression gate failed: {}", failed.join(", "))));
                }
            }
            Ok(())
        }
        Command::RunsLs {
            status,
            command,
            dataset,
            last,
            json,
        } => {
            let root = Path::new(&opts.runs_root);
            let parse = load_index(root).map_err(io_err)?;
            if parse.skipped_lines > 0 {
                eprintln!(
                    "warning: index has {} corrupt line(s) — run `lithogan-cli reindex`",
                    parse.skipped_lines
                );
            }
            let mut records = parse.records;
            if let Some(s) = &status {
                records
                    .retain(|r| r.status == *s || (s == "aborted" && r.status.starts_with("aborted")));
            }
            if let Some(c) = &command {
                records.retain(|r| r.command == *c);
            }
            if let Some(fp) = &dataset {
                records.retain(|r| {
                    r.dataset_fingerprint
                        .as_deref()
                        .is_some_and(|f| f.starts_with(fp.as_str()))
                });
            }
            if let Some(n) = last {
                let cut = records.len().saturating_sub(n);
                records.drain(..cut);
            }
            if json {
                // Same serializer as the index lines and /api/runs, so
                // downstream tooling sees one schema.
                for r in &records {
                    println!("{}", r.to_jsonl());
                }
                return Ok(());
            }
            if records.is_empty() {
                println!("no runs match under {}", root.display());
                return Ok(());
            }
            let w = records
                .iter()
                .map(|r| r.run_id.len())
                .max()
                .unwrap_or(3)
                .max(3);
            println!(
                "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  health",
                "run", "started (UTC)", "command", "status", "wall", "dataset", "ede nm"
            );
            for r in &records {
                let wall = r
                    .wall_clock_s
                    .map_or("-".to_string(), |v| format!("{v:.1}s"));
                let fp = r
                    .dataset_fingerprint
                    .as_deref()
                    .map_or("-", |f| &f[..f.len().min(12)]);
                let ede = r
                    .metric("ede_mean_nm")
                    .map_or("-".to_string(), |v| format!("{v:.2}"));
                println!(
                    "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  {}",
                    r.run_id,
                    fmt_unix(r.started_unix_s),
                    r.command,
                    r.status,
                    wall,
                    fp,
                    ede,
                    r.health.as_deref().unwrap_or("-"),
                );
            }
            println!("{} run(s)", records.len());
            Ok(())
        }
        Command::RunsTrend {
            metrics,
            slice,
            last,
            gate: gate_on,
            tol_pct,
            drift_runs,
            out,
        } => {
            let root = Path::new(&opts.runs_root);
            let records = load_index(root).map_err(io_err)?.records;
            if records.is_empty() {
                return Err(bad(format!(
                    "no runs indexed under {} (need runs, or `lithogan-cli reindex`)",
                    root.display()
                )));
            }
            let cfg = TrendConfig::new(tol_pct, drift_runs);
            // `--slice family=F` redirects every metric to its per-family
            // slice key; runs without that slice simply have no value for
            // the key, so they abstain from the trend and its drift gate.
            let family = match &slice {
                Some(spec) => match spec.strip_prefix("family=") {
                    Some(f) if !f.is_empty() => Some(f.to_string()),
                    _ => return Err(bad("--slice takes family=<name>")),
                },
                None => None,
            };
            let mut trends = Vec::new();
            for metric in metrics.split(',').map(str::trim).filter(|m| !m.is_empty()) {
                let key = match &family {
                    Some(f) => slice_metric_key(metric, f),
                    None => metric.to_string(),
                };
                let t = trend(&records, &key, last, &cfg);
                print!("{}", render_trend(&t));
                trends.push(t);
            }
            if trends.is_empty() {
                return Err(bad("runs trend: empty metric list"));
            }
            let svg_path = out.map_or_else(|| root.join("trend.svg"), PathBuf::from);
            std::fs::write(&svg_path, trend_svg(&trends)).map_err(io_err)?;
            println!("trend:      {}", svg_path.display());
            if gate_on {
                let drifted: Vec<&str> = trends
                    .iter()
                    .filter(|t| t.drift.is_some())
                    .map(|t| t.metric.as_str())
                    .collect();
                if !drifted.is_empty() {
                    return Err(bad(format!(
                        "trend gate failed: drift in {}",
                        drifted.join(", ")
                    )));
                }
                println!("trend gate: PASS");
            }
            Ok(())
        }
        Command::RunsDiffEval {
            a,
            b,
            gate: gate_on,
            tol_pct,
        } => {
            let run_a = resolve_run(&a, &opts.runs_root)?;
            let run_b = resolve_run(&b, &opts.runs_root)?;
            let d = diff_eval(
                &run_a.manifest.run_id,
                &run_a.records,
                &run_b.manifest.run_id,
                &run_b.records,
                tol_pct,
            );
            print!("{}", render_diff_eval(&d));
            if gate_on && !d.gate_passed() {
                return Err(bad(format!(
                    "diff-eval gate failed: {} clip(s) regressed",
                    d.regressed.len()
                )));
            }
            Ok(())
        }
        Command::RunsGc { keep, baseline } => {
            let root = Path::new(&opts.runs_root);
            // The baseline run must survive gc: a vanished baseline would
            // silently disarm `compare --gate` in CI.
            let baseline_path = match baseline {
                Some(path) => Some(PathBuf::from(path)),
                None => {
                    let default = PathBuf::from("ci/baseline.json");
                    default.exists().then_some(default)
                }
            };
            let mut protected = Vec::new();
            if let Some(path) = baseline_path {
                let b = Baseline::load(&path)
                    .map_err(|e| bad(format!("--baseline {}: {e}", path.display())))?;
                if let Some(id) = b.run_id {
                    protected.push(id);
                }
            }
            let outcome = litho_ledger::index::gc(root, keep, &protected).map_err(io_err)?;
            println!(
                "gc: kept {}, removed {}, protected {}",
                outcome.kept.len(),
                outcome.removed.len(),
                outcome.protected.len()
            );
            for id in &outcome.removed {
                println!("removed   {id}");
            }
            for id in &outcome.protected {
                println!("protected {id}");
            }
            Ok(())
        }
        Command::Reindex => {
            let root = Path::new(&opts.runs_root);
            let outcome = reindex(root).map_err(io_err)?;
            println!(
                "reindexed {} run(s) -> {}",
                outcome.records.len(),
                litho_ledger::index::index_path(root).display()
            );
            for dir in &outcome.unreadable {
                eprintln!("warning: skipped unreadable run dir {dir}");
            }
            Ok(())
        }
        Command::Alerts { rules, gate, json } => {
            let root = Path::new(&opts.runs_root);
            let rules =
                litho_alert::load_rules(root, rules.as_deref().map(Path::new)).map_err(io_err)?;
            let records = load_index(root).map_err(io_err)?.records;
            let prior = litho_alert::load_alerts(root).map_err(io_err)?;
            let now = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let ctx = litho_alert::EngineContext {
                records: &records,
                runs_root: root,
                now_unix_s: now,
            };
            let outcome = litho_alert::evaluate(&rules, &ctx, &prior.active());
            litho_alert::append_alerts(root, &outcome.transitions).map_err(io_err)?;
            for t in &outcome.transitions {
                eprintln!("{}", litho_alert::render_transition(t));
            }
            print!("{}", litho_alert::render_alerts_table(&outcome.active));
            if json {
                for a in &outcome.active {
                    println!("{}", a.to_json());
                }
            }
            let firing = outcome.firing().len();
            if gate {
                if firing > 0 {
                    return Err(bad(format!("alerts gate: {firing} alert(s) firing")));
                }
                println!("alerts gate: PASS");
            }
            Ok(())
        }
        Command::Watch {
            run,
            interval_ms,
            timeout_s,
            wait_s,
        } => {
            let direct = Path::new(&run);
            let dir = if direct.join("manifest.json").exists() || direct.is_dir() {
                direct.to_path_buf()
            } else {
                validate_run_id(&run).map_err(io_err)?;
                Path::new(&opts.runs_root).join(&run)
            };
            let cfg = WatchConfig {
                interval: Duration::from_millis(interval_ms.max(10)),
                timeout: timeout_s.map(Duration::from_secs),
                wait_create: Duration::from_secs(wait_s),
            };
            eprintln!("watching {}", dir.display());
            let mut session = WatchSession::new(&dir);
            // Alert transitions appended while watching are echoed live;
            // the initial drain swallows history so only new ones print.
            let mut alerts_tail = litho_ledger::json::jsonl::JsonlTailer::new(
                litho_alert::alerts_path(Path::new(&opts.runs_root)),
            );
            let _ = alerts_tail.poll();
            // Snapshots can differ in unrendered fields (e.g. the health
            // record count); only print when the visible line changes.
            let mut last_line = String::new();
            let snap = session
                .follow_with(
                    &cfg,
                    |snap| {
                        let line = render_snapshot(snap);
                        if line != last_line {
                            eprintln!("{line}");
                            last_line = line;
                        }
                    },
                    || {
                        for v in alerts_tail.poll().unwrap_or_default() {
                            if let Some(rec) = litho_alert::AlertRecord::from_json(&v) {
                                eprintln!("{}", litho_alert::render_transition(&rec));
                            }
                        }
                    },
                )
                .map_err(|e| bad(format!("watch {run:?}: {e}")))?;
            println!("{}", render_snapshot(&snap));
            if snap.succeeded() {
                Ok(())
            } else {
                Err(bad(format!("run finished with status {:?}", snap.status)))
            }
        }
        Command::Dash { addr } => {
            let cfg = DashConfig {
                addr,
                runs_root: PathBuf::from(&opts.runs_root),
                // Exclude the dash's own (running) ledger from live tails.
                run_id: ledger.as_ref().map(|l| l.run_id().to_string()),
            };
            run_dash(&cfg).map_err(io_err)
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&raw) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    // Before the ledger opens, so the manifest records the effective width.
    if let Some(n) = opts.threads {
        litho_tensor::pool::configure_threads(n);
    }
    // Likewise: the manifest's `simd` field records the *effective* kernel
    // level, already clamped to what the host can execute.
    if let Some(level) = opts.simd {
        litho_tensor::configure_simd(level);
    }
    let mut ledger = if cmd.records_run() && !opts.no_run {
        match RunLedger::create(
            Path::new(&opts.runs_root),
            cmd.name(),
            cmd.seed(),
            cmd.config_pairs(),
            None,
        ) {
            Ok(ledger) => {
                eprintln!("run: {}", ledger.dir().display());
                // Crash forensics: ring the last telemetry events and
                // dump an incident bundle if this run panics or aborts.
                lithogan::incident::arm(ledger.dir(), litho_telemetry::DEFAULT_FLIGHT_CAPACITY);
                Some(ledger)
            }
            Err(err) => {
                eprintln!("error: cannot create run ledger: {err}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let outcome = init_telemetry(&opts, cmd.name(), ledger.as_mut()).and_then(|()| {
        let result = run(cmd, &opts, &mut ledger);
        if let Some(ledger) = &mut ledger {
            // Compute-plane profile of the whole invocation: pool stats
            // accumulate from process start, so the totals are the run's.
            if let Some(util) = litho_tensor::pool::stats().utilization() {
                ledger.set_pool_utilization(util);
            }
            let ws = litho_tensor::peak_workspace_bytes();
            if ws > 0 {
                ledger.set_peak_workspace_bytes(ws);
            }
            // An aborted training run is recorded as such, distinct from
            // both a clean finish and an ordinary error.
            match &result {
                Err(TensorError::Aborted(reason)) => {
                    // Ship the post-mortem before finalize stamps the
                    // manifest, so the bundle snapshots the dying state.
                    match lithogan::incident::dump(&format!("aborted({reason})"), None) {
                        Ok(Some(bundle)) => eprintln!("incident: {}", bundle.display()),
                        Ok(None) => {}
                        Err(e) => eprintln!("warning: incident bundle failed: {e}"),
                    }
                    ledger
                        .finalize_with_status(&format!("aborted({reason})"))
                        .map_err(io_err)?
                }
                other => ledger.finalize(other.is_ok()).map_err(io_err)?,
            }
        }
        result
    });
    litho_telemetry::flush();
    if opts.trace && litho_telemetry::is_enabled() {
        litho_telemetry::print_report();
    }
    match outcome {
        Ok(()) => {}
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[String]) -> Result<Command> {
        parse_args(args).map(|(cmd, _)| cmd)
    }

    /// The invocation `args` scan to.
    fn scanned(args: &[&str]) -> Invocation {
        scan(&strs(args)).unwrap().0
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&strs(&["generate", "--out", "x.lgd"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                node: "N10".into(),
                clips: 140,
                size: 64,
                jitter_nm: 3.0,
                out: "x.lgd".into()
            }
        );
    }

    #[test]
    fn parses_train_flags() {
        let cmd = parse(&strs(&[
            "train", "--data", "d.lgd", "--epochs", "5", "--augment", "--out", "m.lgm",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                data: "d.lgd".into(),
                epochs: 5,
                seed: 0,
                augment: true,
                health: false,
                health_stride: 8,
                abort_on: None,
                poison_nan_at_epoch: None,
                out: "m.lgm".into()
            }
        );
        assert_eq!(cmd.seed(), Some(0));
        assert!(cmd.records_run());
        assert!(cmd
            .config_pairs()
            .contains(&("epochs".to_string(), "5".to_string())));
        // No health flags -> no health config pairs.
        assert!(!cmd.config_pairs().iter().any(|(k, _)| k == "health"));
    }

    #[test]
    fn parses_train_health_flags() {
        let cmd = parse(&strs(&[
            "train",
            "--data",
            "d.lgd",
            "--health-stride",
            "4",
            "--abort-on",
            "nan,collapse",
            "--out",
            "m.lgm",
        ]))
        .unwrap();
        match &cmd {
            Command::Train {
                health,
                health_stride,
                abort_on,
                ..
            } => {
                // --health-stride / --abort-on imply --health.
                assert!(health);
                assert_eq!(*health_stride, 4);
                assert_eq!(abort_on.as_deref(), Some("nan,collapse"));
            }
            other => panic!("expected train, got {other:?}"),
        }
        let pairs = cmd.config_pairs();
        assert!(pairs.contains(&("health".to_string(), "true".to_string())));
        assert!(pairs.contains(&("abort_on".to_string(), "nan,collapse".to_string())));
        assert!(parse(&strs(&[
            "train", "--data", "d", "--health-stride", "x", "--out", "m"
        ]))
        .is_err());
    }

    #[test]
    fn parses_profile_command() {
        let cmd = parse(&strs(&["profile", "train-1-2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                run: "train-1-2".into(),
                top: 20,
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "profile");
        assert_eq!(
            parse(&strs(&["profile", "r", "--top", "5"])).unwrap(),
            Command::Profile {
                run: "r".into(),
                top: 5,
            }
        );
        assert!(parse(&strs(&["profile"])).is_err());
        assert!(parse(&strs(&["profile", "a", "b"])).is_err());
        assert!(parse(&strs(&["profile", "r", "--top", "x"])).is_err());
    }

    #[test]
    fn parses_health_command() {
        assert_eq!(
            parse(&strs(&["health", "train-1-2"])).unwrap(),
            Command::Health {
                run: "train-1-2".into(),
                fail_on: None,
            }
        );
        let cmd = parse(&strs(&["health", "r", "--fail-on", "nan,dead-layer"])).unwrap();
        assert_eq!(
            cmd,
            Command::Health {
                run: "r".into(),
                fail_on: Some("nan,dead-layer".into()),
            }
        );
        assert!(!cmd.records_run());
        assert!(parse(&strs(&["health"])).is_err());
        assert!(parse(&strs(&["health", "a", "b"])).is_err());
    }

    #[test]
    fn parses_report_and_compare() {
        assert_eq!(
            parse(&strs(&["report", "train-1-2"])).unwrap(),
            Command::Report {
                run: "train-1-2".into()
            }
        );
        assert_eq!(
            parse(&strs(&["compare", "a", "b"])).unwrap(),
            Command::Compare {
                a: "a".into(),
                b: Some("b".into()),
                gate: None,
                tol_pct: None,
                write_baseline: None,
            }
        );
        let gated = parse(&strs(&[
            "compare", "a", "--gate", "base.json", "--tol-pct", "12.5",
        ]))
        .unwrap();
        assert_eq!(
            gated,
            Command::Compare {
                a: "a".into(),
                b: None,
                gate: Some("base.json".into()),
                tol_pct: Some(12.5),
                write_baseline: None,
            }
        );
        assert!(!gated.records_run());
        // One run and no gate/baseline is a user error.
        assert!(parse(&strs(&["compare", "a"])).is_err());
        assert!(parse(&strs(&["report"])).is_err());
        assert!(parse(&strs(&["report", "a", "b"])).is_err());
    }

    #[test]
    fn parses_runs_family() {
        assert_eq!(
            parse(&strs(&["runs", "ls", "--status", "ok", "--last", "5"])).unwrap(),
            Command::RunsLs {
                status: Some("ok".into()),
                command: None,
                dataset: None,
                last: Some(5),
                json: false,
            }
        );
        assert_eq!(
            parse(&strs(&["runs", "ls", "--json", "--command", "train"])).unwrap(),
            Command::RunsLs {
                status: None,
                command: Some("train".into()),
                dataset: None,
                last: None,
                json: true,
            }
        );
        // In `runs trend`, --gate is boolean: the metric stays positional.
        let t = parse(&strs(&[
            "runs",
            "trend",
            "ede_mean_nm,mean_iou",
            "--gate",
            "--tol-pct",
            "7.5",
            "--last",
            "10",
        ]))
        .unwrap();
        assert_eq!(
            t,
            Command::RunsTrend {
                metrics: "ede_mean_nm,mean_iou".into(),
                slice: None,
                last: Some(10),
                gate: true,
                tol_pct: Some(7.5),
                drift_runs: None,
                out: None,
            }
        );
        assert!(!t.records_run());
        assert_eq!(t.name(), "runs");
        // --slice keeps the metric positional.
        match parse(&strs(&["runs", "trend", "ede_mean_nm", "--slice", "family=chain1d"])).unwrap()
        {
            Command::RunsTrend { metrics, slice, .. } => {
                assert_eq!(metrics, "ede_mean_nm");
                assert_eq!(slice.as_deref(), Some("family=chain1d"));
            }
            other => panic!("expected runs trend, got {other:?}"),
        }
        assert_eq!(
            parse(&strs(&["runs", "gc", "--keep", "3"])).unwrap(),
            Command::RunsGc {
                keep: 3,
                baseline: None,
            }
        );
        assert_eq!(parse(&strs(&["reindex"])).unwrap(), Command::Reindex);
        assert!(parse(&strs(&["runs"])).is_err());
        assert!(parse(&strs(&["runs", "trend"])).is_err());
        assert!(parse(&strs(&["runs", "gc"])).is_err());
    }

    #[test]
    fn parses_triage_and_diff_eval() {
        let cmd = parse(&strs(&["triage", "train-1-2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Triage {
                run: "train-1-2".into(),
                worst: 10,
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "triage");
        assert_eq!(
            parse(&strs(&["triage", "r", "--worst", "3"])).unwrap(),
            Command::Triage {
                run: "r".into(),
                worst: 3,
            }
        );
        assert!(parse(&strs(&["triage"])).is_err());
        assert!(parse(&strs(&["triage", "a", "b"])).is_err());
        assert!(parse(&strs(&["triage", "r", "--worst", "x"])).is_err());

        // --gate is boolean in diff-eval: both runs stay positional.
        let cmd = parse(&strs(&[
            "runs", "diff-eval", "run-a", "run-b", "--gate", "--tol-pct", "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::RunsDiffEval {
                a: "run-a".into(),
                b: "run-b".into(),
                gate: true,
                tol_pct: 5.0,
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "runs");
        assert!(parse(&strs(&["runs", "diff-eval", "a"])).is_err());
        assert!(parse(&strs(&["runs", "diff-eval", "a", "b", "c"])).is_err());
    }

    #[test]
    fn parses_alerts() {
        assert_eq!(
            parse(&strs(&["alerts"])).unwrap(),
            Command::Alerts {
                rules: None,
                gate: false,
                json: false,
            }
        );
        assert_eq!(
            parse(&strs(&["alerts", "--rules", "alerts.toml", "--gate", "--json"])).unwrap(),
            Command::Alerts {
                rules: Some("alerts.toml".into()),
                gate: true,
                json: true,
            }
        );
    }

    #[test]
    fn parses_watch() {
        let cmd = parse(&strs(&["watch", "train-1-2", "--timeout-s", "30"])).unwrap();
        assert_eq!(
            cmd,
            Command::Watch {
                run: "train-1-2".into(),
                interval_ms: 200,
                timeout_s: Some(30),
                wait_s: 10,
            }
        );
        assert!(!cmd.records_run());
        assert!(parse(&strs(&["watch"])).is_err());
        assert!(parse(&strs(&["watch", "a", "b"])).is_err());
    }

    #[test]
    fn parses_dash() {
        let cmd = parse(&strs(&["dash"])).unwrap();
        assert_eq!(
            cmd,
            Command::Dash {
                addr: "127.0.0.1:9091".into(),
            }
        );
        // The daemon is itself a recorded run, with its address in the
        // manifest config.
        assert!(cmd.records_run());
        assert_eq!(cmd.name(), "dash");
        assert_eq!(
            cmd.config_pairs(),
            vec![("addr".to_string(), "127.0.0.1:9091".to_string())]
        );
        assert_eq!(
            parse(&strs(&["dash", "--addr", "0.0.0.0:0"])).unwrap(),
            Command::Dash {
                addr: "0.0.0.0:0".into(),
            }
        );
    }

    #[test]
    fn global_flags_accept_equals_form() {
        let (rest, t) = scan(&strs(&[
            "runs",
            "ls",
            "--runs-root=elsewhere",
            "--metrics-out=trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(rest, scanned(&["runs", "ls"]));
        assert_eq!(t.runs_root, "elsewhere");
        assert_eq!(t.metrics_out.as_deref(), Some("trace.jsonl"));
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&strs(&["generate"])).is_err());
        assert!(parse(&strs(&["train", "--out", "m"])).is_err());
        assert!(parse(&strs(&["eval", "--data", "d"])).is_err());
        assert!(parse(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn bad_numbers_error() {
        assert!(parse(&strs(&["generate", "--clips", "abc", "--out", "x"])).is_err());
        assert!(parse(&strs(&["predict", "--data", "d", "--model", "m", "--index", "x"])).is_err());
    }

    #[test]
    fn global_flags_are_stripped_anywhere() {
        let (rest, t) = scan(&strs(&[
            "--trace", "train", "--data", "d.lgd", "--metrics-out", "run.jsonl", "--no-run",
            "--runs-root", "elsewhere", "--out", "m.lgm",
        ]))
        .unwrap();
        let stripped = scanned(&["train", "--data", "d.lgd", "--out", "m.lgm"]);
        assert_eq!(rest, stripped);
        assert!(t.trace);
        assert!(t.no_run);
        assert_eq!(t.metrics_out.as_deref(), Some("run.jsonl"));
        assert_eq!(t.runs_root, "elsewhere");

        let (rest, t) = scan(&strs(&["eval", "--data", "d", "--model", "m"])).unwrap();
        // All five words stay with the command: its name and two flag/value pairs.
        assert_eq!(1 + rest.operands.len() + 2 * rest.flags.0.len(), 5);
        assert_eq!(t, scan(&[]).unwrap().1);
        assert_eq!(t.runs_root, "runs");
    }

    #[test]
    fn trailing_value_flags_without_value_error() {
        assert!(scan(&strs(&["eval", "--metrics-out"])).is_err());
        assert!(scan(&strs(&["eval", "--runs-root"])).is_err());
        assert!(scan(&strs(&["eval", "--threads"])).is_err());
    }

    #[test]
    fn global_threads_flag_parses() {
        let (rest, t) = scan(&strs(&[
            "eval", "--threads", "4", "--data", "d", "--model", "m",
        ]))
        .unwrap();
        assert_eq!(rest, scanned(&["eval", "--data", "d", "--model", "m"]));
        assert_eq!(t.threads, Some(4));
        let (_, t) = scan(&strs(&["eval", "--threads=2"])).unwrap();
        assert_eq!(t.threads, Some(2));
        // 0 = auto-detect; accepted, not an error.
        let (_, t) = scan(&strs(&["eval", "--threads", "0"])).unwrap();
        assert_eq!(t.threads, Some(0));
        assert!(scan(&strs(&["eval", "--threads", "x"])).is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse(&strs(&["help", "train"])).unwrap(),
            Command::HelpFor("train".into())
        );
        assert_eq!(
            parse(&strs(&["compare", "--help"])).unwrap(),
            Command::HelpFor("compare".into())
        );
        assert!(usage().contains("generate"));
        assert!(usage().contains("--runs-root"));
        // Every per-command help mentions the global observability flags.
        for cmd in [
            "generate", "train", "eval", "predict", "report", "triage", "profile", "health",
            "compare", "runs", "reindex", "alerts", "watch", "dash",
        ] {
            let text = command_help(cmd);
            assert!(text.contains("--trace"), "{cmd} help lacks --trace");
            assert!(
                text.contains("--metrics-out"),
                "{cmd} help lacks --metrics-out"
            );
            assert!(text.contains(cmd), "{cmd} help lacks its own name");
        }
        // Unknown command help falls back to usage.
        assert!(command_help("nope").contains("usage:"));
    }

    #[test]
    fn help_lists_every_flag_with_its_default() {
        for spec in COMMANDS {
            let word = spec.name.split(' ').next().unwrap();
            let help = command_help(word);
            for f in spec.flags.iter().chain(GLOBAL_FLAGS) {
                let label = format!("  {} {}", f.name, f.value);
                let mut rows = help.lines().filter(|l| l.starts_with(label.trim_end()));
                let row = rows.find(|l| l.contains(f.help));
                let row = row.unwrap_or_else(|| panic!("help {word} lacks {}", f.name));
                let note = match f.absent {
                    DefaultsTo(v) | FallsBackTo(v) => format!(" (default {v})"),
                    Required => " (required)".to_string(),
                    Unset => String::new(),
                };
                assert!(row.ends_with(&format!("{}{note}", f.help)), "{row}");
            }
            if !is_family(spec) {
                assert!(usage().contains(&synopsis(spec)), "{}", spec.name);
            }
        }
        assert!(command_help("watch").contains("--wait-s N"));
        assert!(command_help("runs").contains("--drift-runs N"));
    }

    #[test]
    fn table_defaults_parse_as_their_fields() {
        // Every command builds from the table's defaults, given its
        // operands and required flags.
        for spec in COMMANDS.iter().filter(|s| !is_family(s)) {
            let mut args: Vec<&str> = spec.name.split(' ').collect();
            let operands = spec.operands.split(' ').filter(|o| o.contains('<'));
            args.extend(operands.map(|_| "r"));
            for f in spec.flags.iter().filter(|f| f.absent == Required) {
                args.extend([f.name, "1"]);
            }
            assert!(parse(&strs(&args)).is_ok(), "{args:?}");
        }
    }
}
