//! Live tailing of an in-flight run (`lithogan_cli watch <run>`).
//!
//! A [`WatchSession`] incrementally follows the `trace.jsonl` and
//! `health.jsonl` streams of a run directory using the
//! truncation-tolerant [`litho_json::jsonl::JsonlTailer`], so it can be
//! aimed at a run that has barely started (streams not created yet) or
//! one whose writer is mid-append (torn final line). Each
//! [`WatchSession::poll`] re-reads the manifest and drains both stream
//! tailers into a [`WatchSnapshot`]: epoch progress, loss deltas, an
//! ETA derived from the observed epoch cadence, and live health
//! verdicts. The session is done when the manifest leaves status
//! `running`.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use litho_health::{decode_record, diagnose, HealthRecord};
use litho_json::jsonl::JsonlTailer;

use crate::manifest::{load_manifest, RunManifest};
use crate::trace::TraceEvent;

/// Pacing and patience knobs for a watch loop.
#[derive(Debug, Clone, Copy)]
pub struct WatchConfig {
    /// Delay between polls.
    pub interval: Duration,
    /// Give up after this long without the run finishing (`None`: wait
    /// forever).
    pub timeout: Option<Duration>,
    /// How long to wait for `manifest.json` to appear before declaring
    /// the run missing — covers the race of watching a run launched a
    /// moment ago.
    pub wait_create: Duration,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            interval: Duration::from_millis(200),
            timeout: None,
            wait_create: Duration::from_secs(10),
        }
    }
}

/// The last observed training epoch, with deltas against the one before.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProgress {
    pub epoch: u64,
    pub g_loss: f64,
    pub d_loss: f64,
    pub g_delta: Option<f64>,
    pub d_delta: Option<f64>,
}

/// One poll's view of an in-flight run.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSnapshot {
    /// Manifest status, or `waiting` while `manifest.json` has not
    /// appeared yet.
    pub status: String,
    pub command: Option<String>,
    /// Epoch events observed so far.
    pub epochs_done: usize,
    /// Planned epochs, from the manifest's `epochs` config when present.
    pub epochs_total: Option<u64>,
    pub last_epoch: Option<EpochProgress>,
    /// Seconds until the last planned epoch, extrapolated from the
    /// cadence of the epoch events observed so far.
    pub eta_s: Option<f64>,
    /// Latest `pool.utilization` gauge (0..1) from the trace, when the
    /// run is pool-profiled.
    pub pool_utilization: Option<f64>,
    /// Most recently closed instrumented kernel span (`gemm[MxNxK]`,
    /// `im2col[RxC]`, …) — what the compute plane was last doing.
    pub current_kernel: Option<String>,
    /// Live diagnosis lines (`kind subject`) over the health stream so
    /// far; empty for a healthy (or health-less) run.
    pub diagnoses: Vec<String>,
    /// Health records seen so far.
    pub health_records: usize,
    /// True once the manifest left status `running`.
    pub finished: bool,
}

impl WatchSnapshot {
    /// True when the run ended in success.
    pub fn succeeded(&self) -> bool {
        self.finished && self.status == "ok"
    }
}

/// Incremental follower of one run directory.
#[derive(Debug)]
pub struct WatchSession {
    dir: PathBuf,
    /// Created lazily once the manifest names its trace stream.
    trace: Option<JsonlTailer>,
    health: JsonlTailer,
    epochs: Vec<(u64, f64, f64, u64)>, // (epoch, g_loss, d_loss, ts_us)
    health_records: Vec<HealthRecord>,
    pool_utilization: Option<f64>,
    current_kernel: Option<String>,
    /// True once a manifest has been observed; a later disappearance of
    /// the whole directory is then a hard error, not "waiting".
    seen_manifest: bool,
}

impl WatchSession {
    /// Aims a session at a run directory (which may not exist yet).
    pub fn new(run_dir: impl Into<PathBuf>) -> WatchSession {
        let dir = run_dir.into();
        WatchSession {
            health: JsonlTailer::new(dir.join("health.jsonl")),
            dir,
            trace: None,
            epochs: Vec::new(),
            health_records: Vec::new(),
            pool_utilization: None,
            current_kernel: None,
            seen_manifest: false,
        }
    }

    /// The directory being watched.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn trace_path(&self, manifest: &RunManifest) -> PathBuf {
        match &manifest.trace {
            Some(t) => {
                let p = Path::new(t);
                if p.is_absolute() {
                    p.to_path_buf()
                } else {
                    self.dir.join(p)
                }
            }
            None => self.dir.join("trace.jsonl"),
        }
    }

    /// Re-reads the manifest, drains both stream tailers and returns the
    /// current snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the tailers (missing streams are not
    /// errors).
    pub fn poll(&mut self) -> io::Result<WatchSnapshot> {
        let manifest = load_manifest(&self.dir).ok();
        match &manifest {
            Some(_) => self.seen_manifest = true,
            // The run existed and is now gone wholesale (`runs gc`, a
            // manual rm): tailing a vanished directory would spin on
            // "waiting" forever. Surface it as a hard error instead.
            None if self.seen_manifest && !self.dir.exists() => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "run directory {} vanished mid-watch (removed by `runs gc`?)",
                        self.dir.display()
                    ),
                ));
            }
            None => {}
        }
        if let Some(m) = &manifest {
            let path = self.trace_path(m);
            match &self.trace {
                // The manifest can re-point the trace between the early
                // "running" write and the moment telemetry attaches.
                Some(t) if t.path() == path => {}
                _ => self.trace = Some(JsonlTailer::new(path)),
            }
        }
        if let Some(tailer) = self.trace.as_mut() {
            for v in tailer.poll()? {
                let Some(ev) = TraceEvent::from_json(&v) else {
                    continue;
                };
                if ev.kind == "event" && ev.name == "train_epoch" {
                    let epoch = ev.fields.get("epoch").and_then(|j| j.as_u64()).unwrap_or(0);
                    let g = ev
                        .fields
                        .get("g_loss")
                        .and_then(|j| j.as_f64())
                        .unwrap_or(f64::NAN);
                    let d = ev
                        .fields
                        .get("d_loss")
                        .and_then(|j| j.as_f64())
                        .unwrap_or(f64::NAN);
                    self.epochs.push((epoch, g, d, ev.ts_us));
                } else if ev.kind == "gauge" && ev.name == "pool.utilization" {
                    self.pool_utilization = ev.fields.get("value").and_then(|j| j.as_f64());
                } else if ev.kind == "span" && ev.name.contains('[') {
                    // Instrumented kernel spans are named `kernel[shape]`.
                    let leaf = ev.name.rsplit('/').next().unwrap_or(&ev.name);
                    self.current_kernel = Some(leaf.to_string());
                }
            }
        }
        for v in self.health.poll()? {
            if let Some(rec) = decode_record(&v) {
                self.health_records.push(rec);
            }
        }

        let status = manifest
            .as_ref()
            .map_or_else(|| "waiting".to_string(), |m| m.status.clone());
        let finished = manifest.as_ref().is_some_and(|m| m.status != "running");
        let epochs_total = manifest.as_ref().and_then(|m| {
            m.config
                .iter()
                .find(|(k, _)| k == "epochs")
                .and_then(|(_, v)| v.parse::<u64>().ok())
        });
        let last_epoch = match self.epochs.as_slice() {
            [] => None,
            [only] => Some(EpochProgress {
                epoch: only.0,
                g_loss: only.1,
                d_loss: only.2,
                g_delta: None,
                d_delta: None,
            }),
            [.., prev, last] => Some(EpochProgress {
                epoch: last.0,
                g_loss: last.1,
                d_loss: last.2,
                g_delta: Some(last.1 - prev.1),
                d_delta: Some(last.2 - prev.2),
            }),
        };
        // ETA from the epoch-event cadence: events are stamped relative
        // to telemetry start, so ts/count is the mean epoch duration. No
        // cadence exists until at least one epoch has completed — the
        // guard keeps the division away from `done == 0`.
        let done = self.epochs.len() as u64;
        let eta_s = match (epochs_total, self.epochs.last(), finished) {
            (Some(total), Some(&(last_epoch_no, _, _, ts_us)), false) if ts_us > 0 && done > 0 => {
                let remaining = total.saturating_sub(last_epoch_no + 1);
                Some(ts_us as f64 / 1e6 / done as f64 * remaining as f64)
            }
            _ => None,
        };
        let diagnoses = if self.health_records.is_empty() {
            Vec::new()
        } else {
            diagnose(&self.health_records)
                .iter()
                .map(|d| format!("{} {}", d.kind.as_str(), d.subject))
                .collect()
        };
        Ok(WatchSnapshot {
            status,
            command: manifest.as_ref().map(|m| m.command.clone()),
            epochs_done: self.epochs.len(),
            epochs_total,
            last_epoch,
            eta_s,
            pool_utilization: self.pool_utilization,
            current_kernel: self.current_kernel.clone(),
            diagnoses,
            health_records: self.health_records.len(),
            finished,
        })
    }

    /// Polls until the run finishes, invoking `on_update` for the first
    /// snapshot and every later one that differs from its predecessor.
    /// Returns the final snapshot.
    ///
    /// # Errors
    ///
    /// Poll errors; [`io::ErrorKind::NotFound`] when no manifest appears
    /// within `cfg.wait_create`; [`io::ErrorKind::TimedOut`] when the
    /// run outlives `cfg.timeout`.
    pub fn follow(
        &mut self,
        cfg: &WatchConfig,
        on_update: impl FnMut(&WatchSnapshot),
    ) -> io::Result<WatchSnapshot> {
        self.follow_with(cfg, on_update, || {})
    }

    /// [`WatchSession::follow`] plus an `on_poll` hook invoked once per
    /// poll cycle regardless of snapshot changes — the CLI drains side
    /// channels there (e.g. live alert transitions from
    /// `runs/alerts.jsonl`) without coupling this crate to them.
    ///
    /// # Errors
    ///
    /// As [`WatchSession::follow`].
    pub fn follow_with(
        &mut self,
        cfg: &WatchConfig,
        mut on_update: impl FnMut(&WatchSnapshot),
        mut on_poll: impl FnMut(),
    ) -> io::Result<WatchSnapshot> {
        let started = Instant::now();
        let mut last: Option<WatchSnapshot> = None;
        loop {
            let snap = self.poll()?;
            on_poll();
            if snap.status == "waiting" && started.elapsed() > cfg.wait_create {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no manifest appeared in {}", self.dir.display()),
                ));
            }
            if last.as_ref() != Some(&snap) {
                on_update(&snap);
            }
            if snap.finished {
                return Ok(snap);
            }
            last = Some(snap);
            if let Some(timeout) = cfg.timeout {
                if started.elapsed() > timeout {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("run still going after {timeout:?}"),
                    ));
                }
            }
            std::thread::sleep(cfg.interval);
        }
    }
}

/// Renders one snapshot as a single status line (the CLI repaints it in
/// place on a terminal, or prints one line per update otherwise).
pub fn render_snapshot(snap: &WatchSnapshot) -> String {
    let mut line = format!("[{}]", snap.status);
    if let Some(cmd) = &snap.command {
        line.push_str(&format!(" {cmd}"));
    }
    match snap.epochs_total {
        Some(total) => line.push_str(&format!(" epoch {}/{}", snap.epochs_done, total)),
        None if snap.epochs_done > 0 => line.push_str(&format!(" epoch {}", snap.epochs_done)),
        None => {}
    }
    if let Some(e) = &snap.last_epoch {
        line.push_str(&format!(" g_loss {:.4}", e.g_loss));
        if let Some(d) = e.g_delta {
            line.push_str(&format!(" ({d:+.4})"));
        }
        line.push_str(&format!(" d_loss {:.4}", e.d_loss));
        if let Some(d) = e.d_delta {
            line.push_str(&format!(" ({d:+.4})"));
        }
    }
    if let Some(eta) = snap.eta_s {
        line.push_str(&format!(" eta {eta:.0}s"));
    }
    if let Some(util) = snap.pool_utilization {
        line.push_str(&format!(" pool {:.0}%", util * 100.0));
    }
    if let (Some(kernel), false) = (&snap.current_kernel, snap.finished) {
        line.push_str(&format!(" kernel {kernel}"));
    }
    if !snap.diagnoses.is_empty() {
        line.push_str(&format!(" health: {}", snap.diagnoses.join("; ")));
    } else if snap.health_records > 0 {
        line.push_str(" health: ok");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("litho_watch_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_manifest(dir: &Path, status: &str, epochs: u64) {
        fs::write(
            dir.join("manifest.json"),
            format!(
                "{{\"schema_version\":2,\"run_id\":\"train-1-1\",\"command\":\"train\",\
                 \"started_unix_s\":1,\"config\":{{\"epochs\":\"{epochs}\"}},\
                 \"trace\":\"trace.jsonl\",\"status\":\"{status}\"}}\n"
            ),
        )
        .unwrap();
    }

    fn epoch_line(epoch: u64, g: f64, d: f64, ts_us: u64) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"kind\":\"event\",\"name\":\"train_epoch\",\
             \"epoch\":{epoch},\"g_loss\":{g},\"d_loss\":{d}}}\n"
        )
    }

    #[test]
    fn missing_run_then_progress_then_finish() {
        let dir = scratch("progress");
        let run = dir.join("train-1-1");
        let mut session = WatchSession::new(&run);

        // Nothing there yet: waiting, not an error.
        let snap = session.poll().unwrap();
        assert_eq!(snap.status, "waiting");
        assert!(!snap.finished);

        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 4);
        let mut trace = fs::File::create(run.join("trace.jsonl")).unwrap();
        trace
            .write_all(epoch_line(0, 2.0, 0.9, 1_000_000).as_bytes())
            .unwrap();
        trace
            .write_all(epoch_line(1, 1.5, 0.8, 2_000_000).as_bytes())
            .unwrap();
        // Torn third epoch: must not surface yet.
        let torn = epoch_line(2, 1.2, 0.7, 3_000_000);
        trace.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        trace.flush().unwrap();

        let snap = session.poll().unwrap();
        assert_eq!(snap.status, "running");
        assert_eq!(snap.epochs_done, 2);
        assert_eq!(snap.epochs_total, Some(4));
        let last = snap.last_epoch.clone().unwrap();
        assert_eq!(last.epoch, 1);
        assert_eq!(last.g_delta, Some(-0.5));
        // 2 epochs in 2 s -> 1 s each, 2 remaining.
        assert!((snap.eta_s.unwrap() - 2.0).abs() < 1e-9);

        // Completing the torn line releases epoch 2 exactly once.
        trace.write_all(&torn.as_bytes()[torn.len() / 2..]).unwrap();
        trace
            .write_all(epoch_line(3, 1.0, 0.6, 4_000_000).as_bytes())
            .unwrap();
        trace.flush().unwrap();
        write_manifest(&run, "ok", 4);
        let snap = session.poll().unwrap();
        assert!(snap.finished && snap.succeeded());
        assert_eq!(snap.epochs_done, 4);
        assert_eq!(snap.eta_s, None, "finished runs carry no ETA");

        let line = render_snapshot(&snap);
        assert!(line.contains("[ok]"));
        assert!(line.contains("epoch 4/4"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_gauges_and_kernel_spans_surface_live() {
        let dir = scratch("pool");
        let run = dir.join("train-1-1");
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 4);
        // A trace with kernel spans and a pool gauge but zero completed
        // epochs: the ETA must stay absent, not divide by zero.
        fs::write(
            run.join("trace.jsonl"),
            "{\"ts_us\":100,\"kind\":\"span\",\"name\":\"train/epoch/gemm[64x64x64]\",\"dur_us\":50.0,\"depth\":2}\n\
             {\"ts_us\":200,\"kind\":\"span\",\"name\":\"im2col[75x4096]\",\"dur_us\":30.0,\"depth\":0}\n\
             {\"ts_us\":300,\"kind\":\"gauge\",\"name\":\"pool.utilization\",\"value\":0.85}\n",
        )
        .unwrap();
        let mut session = WatchSession::new(&run);
        let snap = session.poll().unwrap();
        assert_eq!(snap.epochs_done, 0);
        assert_eq!(snap.eta_s, None, "no cadence before the first epoch");
        assert_eq!(snap.pool_utilization, Some(0.85));
        assert_eq!(snap.current_kernel.as_deref(), Some("im2col[75x4096]"));
        let line = render_snapshot(&snap);
        assert!(line.contains("pool 85%"), "{line}");
        assert!(line.contains("kernel im2col[75x4096]"), "{line}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_stream_feeds_live_diagnoses() {
        let dir = scratch("health");
        let run = dir.join("train-1-1");
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 2);
        // A NaN-poisoned layer record trips the nan-poisoned rule.
        fs::write(
            run.join("health.jsonl"),
            "{\"kind\":\"layer\",\"net\":\"G\",\"pass\":\"fwd\",\"epoch\":0,\"step\":1,\
             \"layer\":0,\"name\":\"conv\",\"count\":10,\"mean\":0.1,\"std\":0.1,\"l2\":1.0,\
             \"abs_max\":1.0,\"zero_frac\":0.0,\"nan\":5,\"inf\":0}\n",
        )
        .unwrap();
        let mut session = WatchSession::new(&run);
        let snap = session.poll().unwrap();
        assert_eq!(snap.health_records, 1);
        assert!(
            snap.diagnoses.iter().any(|d| d.contains("nan-poisoned")),
            "diagnoses: {:?}",
            snap.diagnoses
        );
        assert!(render_snapshot(&snap).contains("health: nan-poisoned"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_reports_updates_and_final_status() {
        let dir = scratch("follow");
        let run = dir.join("train-1-1");
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 2);
        let writer_run = run.clone();
        let writer = std::thread::spawn(move || {
            let mut trace = fs::File::create(writer_run.join("trace.jsonl")).unwrap();
            for e in 0..2u64 {
                trace
                    .write_all(epoch_line(e, 2.0 - e as f64, 0.5, (e + 1) * 10_000).as_bytes())
                    .unwrap();
                trace.flush().unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            write_manifest(&writer_run, "aborted(nan-poisoned)", 2);
        });
        let mut session = WatchSession::new(&run);
        let mut updates = 0;
        let cfg = WatchConfig {
            interval: Duration::from_millis(5),
            timeout: Some(Duration::from_secs(30)),
            wait_create: Duration::from_secs(5),
        };
        let last = session.follow(&cfg, |_| updates += 1).unwrap();
        writer.join().unwrap();
        assert!(last.finished && !last.succeeded());
        assert_eq!(last.status, "aborted(nan-poisoned)");
        assert_eq!(last.epochs_done, 2);
        assert!(updates >= 2, "one update per epoch at minimum: {updates}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanished_run_directory_is_a_hard_error_not_waiting() {
        let dir = scratch("vanished");
        let run = dir.join("train-1-1");
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 2);
        let mut session = WatchSession::new(&run);
        assert_eq!(session.poll().unwrap().status, "running");

        // `runs gc` (or a manual rm) takes the whole directory away.
        fs::remove_dir_all(&run).unwrap();
        let err = session.poll().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("vanished mid-watch"), "{err}");

        // follow_with propagates the same error out of the loop.
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 2);
        let mut session = WatchSession::new(&run);
        let cfg = WatchConfig {
            interval: Duration::from_millis(5),
            timeout: Some(Duration::from_secs(10)),
            wait_create: Duration::from_secs(5),
        };
        let run2 = run.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            fs::remove_dir_all(&run2).unwrap();
        });
        let mut polls = 0;
        let err = session
            .follow_with(&cfg, |_| {}, || polls += 1)
            .unwrap_err();
        killer.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("vanished mid-watch"), "{err}");
        assert!(polls >= 1, "on_poll must tick before the error: {polls}");

        // A manifest that never appeared keeps the old "waiting" grace
        // path: NotFound only after wait_create, with the original
        // message.
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_times_out_on_a_stuck_run_and_errors_on_a_missing_one() {
        let dir = scratch("timeout");
        let run = dir.join("train-1-1");
        fs::create_dir_all(&run).unwrap();
        write_manifest(&run, "running", 2);
        let mut session = WatchSession::new(&run);
        let cfg = WatchConfig {
            interval: Duration::from_millis(5),
            timeout: Some(Duration::from_millis(40)),
            wait_create: Duration::from_secs(5),
        };
        let err = session.follow(&cfg, |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        let mut missing = WatchSession::new(dir.join("no-such-run"));
        let cfg = WatchConfig {
            interval: Duration::from_millis(5),
            timeout: None,
            wait_create: Duration::from_millis(40),
        };
        let err = missing.follow(&cfg, |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);

        fs::remove_dir_all(&dir).ok();
    }
}
