//! End-to-end CLI tests for the fleet layer: the runs index written at
//! finalize and rebuilt by `reindex`, the `runs ls`/`trend`/`gc` views
//! (all honoring `--runs-root`, space and `=` spellings alike), and the
//! `watch` live tailer following a real background training process and
//! standing in for its exit code. Also: malformed flags fail before any
//! work starts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lithogan_cli"));
    // This suite exercises the ledger/CLI plumbing, not kernel numerics
    // (crates/tensor/tests/simd_levels.rs owns the level policy), so the
    // spawned processes always run at the host's fastest kernel level:
    // an outer LITHO_SIMD=scalar pass would otherwise push the live
    // debug-build trainer past the watch timeouts.
    cmd.env("LITHO_SIMD", "auto");
    cmd
}

/// Fresh scratch directory per call; std-only stand-in for tempfile.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lithogan-runs-cli-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(out: &Output) -> String {
    assert!(
        out.status.success(),
        "command failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

fn fixture(set: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fleet")
        .join(set)
}

#[test]
fn reindex_ls_and_trend_over_fixture_fleet() {
    let dir = scratch("fleet");
    let runs = dir.join("runs");
    copy_tree(&fixture("clean"), &runs);

    // `=` spelling of the global flag.
    let out = cli()
        .arg(format!("--runs-root={}", runs.display()))
        .arg("reindex")
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("reindexed 4 run(s)"), "stdout:\n{stdout}");
    assert!(runs.join("index.jsonl").exists());

    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "ls"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("train-1700000100-1"), "stdout:\n{stdout}");
    assert!(stdout.contains("4 run(s)"), "stdout:\n{stdout}");
    assert!(stdout.contains("feedc0defeed"), "dataset fingerprint shown");

    // Filters compose; --last keeps the newest.
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "ls", "--status", "ok", "--last", "2"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(!stdout.contains("train-1700000100-1"), "stdout:\n{stdout}");
    assert!(stdout.contains("train-1700000400-4"), "stdout:\n{stdout}");
    assert!(stdout.contains("2 run(s)"), "stdout:\n{stdout}");

    // A clean fleet passes the trend gate and renders table + SVG.
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "trend", "ede_mean_nm", "--gate"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("ede_mean_nm"), "stdout:\n{stdout}");
    assert!(stdout.contains("train-1700000400-4"), "stdout:\n{stdout}");
    assert!(stdout.contains("trend gate: PASS"), "stdout:\n{stdout}");
    let svg = fs::read_to_string(runs.join("trend.svg")).expect("trend.svg written");
    assert!(svg.starts_with("<svg") || svg.contains("<svg"), "svg:\n{svg}");

    // --out redirects the SVG.
    let custom = dir.join("custom.svg");
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "trend", "ede_mean_nm,mean_iou", "--out"])
        .arg(&custom)
        .output()
        .unwrap();
    run_ok(&out);
    assert!(custom.exists());

    // Two trailing regressed runs confirm a drift; the gate goes red.
    copy_tree(&fixture("regressed"), &runs);
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .arg("reindex")
        .output()
        .unwrap();
    run_ok(&out);
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "trend", "ede_mean_nm", "--gate"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "regressed fleet must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drift"), "stderr:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DRIFT"), "stdout:\n{stdout}");

    // --last scopes the trend window: only the newest 2 runs are
    // considered, so the oldest fixture run drops out of the table.
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "trend", "ede_mean_nm", "--last", "2"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(!stdout.contains("train-1700000100-1"), "stdout:\n{stdout}");
    assert!(stdout.contains("train-1700000600-6"), "stdout:\n{stdout}");
}

#[test]
fn gc_keeps_newest_and_baseline_run() {
    let dir = scratch("gc");
    let runs = dir.join("runs");
    copy_tree(&fixture("clean"), &runs);
    copy_tree(&fixture("regressed"), &runs);
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .arg("reindex")
        .output()
        .unwrap();
    run_ok(&out);

    // The committed baseline points at the oldest run; gc must spare it.
    let baseline = dir.join("baseline.json");
    fs::write(
        &baseline,
        "{\"tol_pct\":25,\"run_id\":\"train-1700000100-1\",\"metrics\":{\"ede_mean_nm\":3.0}}\n",
    )
    .unwrap();
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "gc", "--keep", "2", "--baseline"])
        .arg(&baseline)
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("protected train-1700000100-1"), "stdout:\n{stdout}");

    let mut kept: Vec<String> = fs::read_dir(&runs)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().unwrap().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    kept.sort();
    assert_eq!(
        kept,
        vec![
            "train-1700000100-1".to_string(),
            "train-1700000500-5".to_string(),
            "train-1700000600-6".to_string(),
        ],
        "2 newest + the baseline run survive"
    );
    // The index was rebuilt to match.
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["runs", "ls"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("3 run(s)"), "stdout:\n{stdout}");
}

#[test]
fn real_runs_append_to_the_index() {
    let dir = scratch("append");
    let runs = dir.join("runs");
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["generate", "--clips", "6", "--size", "32", "--out"])
        .arg(dir.join("data.lgd"))
        .output()
        .unwrap();
    run_ok(&out);

    let index = fs::read_to_string(runs.join("index.jsonl")).expect("finalize appended index");
    assert_eq!(index.lines().count(), 1);
    assert!(index.contains("\"command\":\"generate\""), "index:\n{index}");
    assert!(index.contains("\"status\":\"ok\""), "index:\n{index}");

    // A lost index is fully recoverable from the run directories.
    fs::remove_file(runs.join("index.jsonl")).unwrap();
    let out = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .arg("reindex")
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    assert!(stdout.contains("reindexed 1 run(s)"), "stdout:\n{stdout}");
    let rebuilt = fs::read_to_string(runs.join("index.jsonl")).unwrap();
    assert!(rebuilt.contains("\"command\":\"generate\""), "index:\n{rebuilt}");
}

/// Spawns `train` in the background and returns (child, run directory)
/// once the run directory exists. Every caller waits on the child.
#[allow(clippy::zombie_processes)]
fn spawn_train(dir: &Path, data: &Path, extra: &[&str]) -> (std::process::Child, PathBuf) {
    let runs = dir.join("runs");
    let mut child = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["train", "--data"])
        .arg(data)
        .args(["--seed", "7", "--out"])
        .arg(dir.join("model.lgm"))
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(entries) = fs::read_dir(&runs) {
            if let Some(run) = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("train-"))
            {
                return (child, run);
            }
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("train never created a run dir");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn watch_follows_a_live_train_to_completion() {
    let dir = scratch("watch-ok");
    let data = dir.join("data.lgd");
    let out = cli()
        .args(["--runs-root"])
        .arg(dir.join("runs"))
        .args(["generate", "--clips", "10", "--size", "32", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    run_ok(&out);

    let (mut child, run) = spawn_train(&dir, &data, &["--epochs", "3"]);
    // Watch by run id, resolved under --runs-root, until the run ends.
    let run_id = run.file_name().unwrap().to_string_lossy().into_owned();
    let out = cli()
        .args(["--runs-root"])
        .arg(dir.join("runs"))
        .args(["watch", &run_id, "--interval-ms", "25", "--timeout-s", "120"])
        .output()
        .unwrap();
    let stdout = run_ok(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // At least one rendered update per epoch (the trainer flushes its
    // trace at every epoch boundary).
    for epoch in 1..=3 {
        assert!(
            stderr.contains(&format!("epoch {epoch}/3")),
            "missing epoch {epoch} update\nstderr:\n{stderr}"
        );
    }
    assert!(stderr.contains("g_loss"), "stderr:\n{stderr}");
    assert!(stdout.contains("[ok]"), "final snapshot ok\nstdout:\n{stdout}");
    assert!(child.wait().unwrap().success());
}

#[test]
fn watch_propagates_an_aborted_runs_failure() {
    let dir = scratch("watch-abort");
    let data = dir.join("data.lgd");
    let out = cli()
        .args(["--runs-root"])
        .arg(dir.join("runs"))
        .args(["generate", "--clips", "6", "--size", "32", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    run_ok(&out);

    let (mut child, run) = spawn_train(
        &dir,
        &data,
        &["--epochs", "3", "--poison-nan-at-epoch", "1", "--abort-on", "nan"],
    );
    let out = cli()
        .arg("watch")
        .arg(&run)
        .args(["--interval-ms", "25", "--timeout-s", "120"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "watch must exit nonzero for an aborted run\nstdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("aborted"), "stderr:\n{stderr}");
    assert!(!child.wait().unwrap().success(), "the aborted train itself fails");
}

/// A run directory removed mid-watch (e.g. by `runs gc`) is a hard
/// error, not an eternal wait — and alert transitions appended to
/// `runs/alerts.jsonl` while watching are echoed live.
#[test]
fn watch_errors_when_run_directory_vanishes() {
    let dir = scratch("watch-vanish");
    let runs = dir.join("runs");
    let run = runs.join("train-77-7");
    fs::create_dir_all(&run).unwrap();
    fs::write(
        run.join("manifest.json"),
        "{\"schema_version\":2,\"run_id\":\"train-77-7\",\"command\":\"train\",\
         \"started_unix_s\":1,\"config\":{},\"status\":\"running\"}\n",
    )
    .unwrap();

    let mut child = cli()
        .args(["--runs-root"])
        .arg(&runs)
        .args(["watch", "train-77-7", "--interval-ms", "25", "--timeout-s", "60"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Let the watcher see the live run, then fire an alert transition
    // and finally yank the directory out from under it.
    std::thread::sleep(Duration::from_millis(300));
    let alert = litho_alert::AlertRecord {
        schema_version: litho_alert::ALERTS_SCHEMA,
        rule: "unhealthy-run".to_string(),
        kind: "health".to_string(),
        severity: "page".to_string(),
        state: litho_alert::AlertState::Firing,
        fingerprint: litho_alert::fingerprint("unhealthy-run", "train-77-7"),
        subject: "train-77-7".to_string(),
        reason: "health verdict: nan".to_string(),
        value: None,
        streak: 1,
        first_seen_unix_s: 1,
        last_seen_unix_s: 1,
    };
    litho_alert::append_alerts(&runs, std::slice::from_ref(&alert)).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    fs::remove_dir_all(&run).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("watch kept waiting on a vanished run directory");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "vanished run dir must be a hard error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("vanished"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("alert [firing] unhealthy-run"),
        "live alert transition not echoed\nstderr:\n{stderr}"
    );
}

#[test]
fn watch_times_out_on_a_missing_run() {
    let dir = scratch("watch-missing");
    let out = cli()
        .args(["--runs-root"])
        .arg(dir.join("runs"))
        .args(["watch", "train-0-0", "--wait-s", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("watch"), "stderr:\n{stderr}");
}

#[test]
fn malformed_flags_fail_before_any_work() {
    let dir = scratch("flags");
    let runs = dir.join("runs");
    let data = dir.join("x.lgd");
    // A misspelled flag: no dataset and no run directory may appear.
    let out = cli()
        .arg("--runs-root")
        .arg(&runs)
        .args(["generate", "--clips", "1", "--cilps", "9", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("--cilps"), "stderr:\n{stderr}");
    assert!(!data.exists(), "dataset written despite the bad flag");
    assert!(!runs.exists(), "run directory created despite the bad flag");

    // A trailing value flag with no value.
    let out = cli()
        .args(["--no-run", "train", "--data", "d", "--out", "m", "--epochs"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("--epochs"), "stderr:\n{stderr}");

    // Unknown, valueless, `=` on a boolean, and repeated flags all exit 1
    // naming the flag and the command.
    for (args, flag, command) in [
        (&["runs", "ls", "--jsno"][..], "--jsno", "runs ls"),
        (
            &["train", "--data", "d", "--epochs", "--out", "m"],
            "--epochs",
            "train",
        ),
        (
            &["runs", "trend", "m", "--gate=base.json"],
            "--gate",
            "runs trend",
        ),
        (
            &["triage", "r", "--worst", "2", "--worst=3"],
            "--worst",
            "triage",
        ),
        (
            &["reindex", "--runs-root", "a", "--runs-root=b"],
            "--runs-root",
            "reindex",
        ),
        (&["--trace=yes", "reindex"], "--trace", "lithogan-cli"),
    ] {
        let out = cli()
            .arg("--no-run")
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(command),
            "{args:?}: {stderr}"
        );
    }
    // `--gate` takes a value in `compare` only, `=` spelling included.
    let out = cli()
        .args(["compare", "a", "--gate=base.json"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("run \"a\""));
    let _ = fs::remove_dir_all(&dir);
}
