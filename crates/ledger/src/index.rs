//! The fleet-level runs index: `runs/index.jsonl`.
//!
//! One summary line per run — id, command, seed, dataset fingerprint,
//! status, wall clock, headline metrics and health verdict — appended
//! transactionally (a single `O_APPEND` write of one complete line) by
//! every CLI/bench invocation when its [`crate::RunLedger`] finalizes.
//! The index is what makes `runs ls` / `runs trend` O(index) instead of
//! O(re-parse every run directory).
//!
//! The file is append-only and crash-tolerant: a killed appender leaves
//! at worst a torn final line, which the truncation-tolerant reader
//! skips. Runs killed before finalize never append at all — that is
//! what [`reindex`] repairs, rebuilding the whole index from surviving
//! `manifest.json`s (re-deriving metrics from `samples.jsonl` and the
//! health verdict from `health.jsonl`) and swapping it in atomically.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use litho_health::{diagnose, parse_health_file};
use litho_json::jsonl::parse_jsonl_with;
use litho_json::Json;
use litho_metrics::{MetricAccumulator, MetricSummary};

use crate::manifest::{load_manifest, load_records, RunManifest};

/// Index record schema version, bumped on incompatible changes.
pub const INDEX_SCHEMA: u32 = 1;

/// One line of `runs/index.jsonl`: the fleet-level summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRecord {
    pub schema_version: u32,
    pub run_id: String,
    pub command: String,
    /// Wall-clock start, seconds since the Unix epoch (the fleet sort key).
    pub started_unix_s: u64,
    pub seed: Option<u64>,
    /// FNV-1a fingerprint of the dataset the run consumed, when known.
    pub dataset_fingerprint: Option<String>,
    /// `running`, `ok`, `error` or `aborted(<reason>)`.
    pub status: String,
    pub wall_clock_s: Option<f64>,
    /// Effective SIMD kernel level (`"scalar"` / `"avx2"`); `None` on
    /// records from before runtime kernel dispatch existed.
    pub simd: Option<String>,
    /// Headline metrics, as [`record_from_parts`] picks them: the paper's
    /// Tables 3–4 axes with their per-family EDE slices, sample count,
    /// throughput, pool utilization and peak workspace footprint. Each
    /// is absent when the run did not record it.
    pub metrics: Vec<(String, f64)>,
    /// `"ok"` or a comma-joined diagnosis list; `None` when the run
    /// carried no health stream.
    pub health: Option<String>,
}

impl IndexRecord {
    /// Looks up one headline metric.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The canonical JSON form of this record — the single serializer
    /// behind index lines, `runs ls --json` and the dash `/api/runs`
    /// responses, so all three agree byte-for-byte.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "schema_version".to_string(),
                Json::Num(self.schema_version as f64),
            ),
            ("run_id".to_string(), Json::Str(self.run_id.clone())),
            ("command".to_string(), Json::Str(self.command.clone())),
            (
                "started_unix_s".to_string(),
                Json::Num(self.started_unix_s as f64),
            ),
        ];
        if let Some(seed) = self.seed {
            members.push(("seed".to_string(), Json::Num(seed as f64)));
        }
        if let Some(fp) = &self.dataset_fingerprint {
            members.push(("dataset_fingerprint".to_string(), Json::Str(fp.clone())));
        }
        members.push(("status".to_string(), Json::Str(self.status.clone())));
        if let Some(wall) = self.wall_clock_s {
            members.push(("wall_clock_s".to_string(), Json::Num(wall)));
        }
        if let Some(simd) = &self.simd {
            members.push(("simd".to_string(), Json::Str(simd.clone())));
        }
        if !self.metrics.is_empty() {
            members.push((
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if let Some(health) = &self.health {
            members.push(("health".to_string(), Json::Str(health.clone())));
        }
        Json::Obj(members)
    }

    /// Renders as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Decodes one index line; `schema_version` defaults to 1 for
    /// forward-compat with records written before the field existed.
    pub fn from_json(v: &Json) -> Option<IndexRecord> {
        let metrics = match v.get("metrics") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n)))
                .collect(),
            _ => Vec::new(),
        };
        Some(IndexRecord {
            schema_version: v
                .get("schema_version")
                .and_then(Json::as_u64)
                .unwrap_or(1) as u32,
            run_id: v.get("run_id")?.as_str()?.to_string(),
            command: v.get("command")?.as_str()?.to_string(),
            started_unix_s: v.get("started_unix_s").and_then(Json::as_u64).unwrap_or(0),
            seed: v.get("seed").and_then(Json::as_u64),
            dataset_fingerprint: v
                .get("dataset_fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string),
            status: v.get("status")?.as_str()?.to_string(),
            wall_clock_s: v.get("wall_clock_s").and_then(Json::as_f64),
            simd: v.get("simd").and_then(Json::as_str).map(str::to_string),
            metrics,
            health: v.get("health").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Path of the index inside a runs root.
pub fn index_path(root: &Path) -> PathBuf {
    root.join("index.jsonl")
}

/// Appends one record to `root/index.jsonl` as a single `O_APPEND` write
/// of one complete line, so concurrent finalizing runs interleave whole
/// lines rather than bytes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn append_index(root: &Path, record: &IndexRecord) -> io::Result<()> {
    fs::create_dir_all(root)?;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(index_path(root))?;
    let mut line = record.to_jsonl();
    line.push('\n');
    file.write_all(line.as_bytes())
}

/// A decoded index: records deduplicated by run id (last write wins,
/// so a repaired or re-finalized run supersedes its stale line) and
/// sorted chronologically.
#[derive(Debug, Default, Clone)]
pub struct IndexParse {
    pub records: Vec<IndexRecord>,
    pub skipped_lines: usize,
    pub truncated_tail: bool,
}

/// Reads `root/index.jsonl`, tolerating a torn tail; a missing file
/// yields an empty index.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn load_index(root: &Path) -> io::Result<IndexParse> {
    let text = match fs::read_to_string(index_path(root)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(IndexParse::default()),
        Err(e) => return Err(e),
    };
    let parse = parse_jsonl_with(&text, IndexRecord::from_json);
    let mut records: Vec<IndexRecord> = Vec::new();
    for rec in parse.records {
        if let Some(slot) = records.iter_mut().find(|r| r.run_id == rec.run_id) {
            *slot = rec;
        } else {
            records.push(rec);
        }
    }
    records.sort_by(|a, b| {
        (a.started_unix_s, &a.run_id).cmp(&(b.started_unix_s, &b.run_id))
    });
    Ok(IndexParse {
        records,
        skipped_lines: parse.skipped_lines,
        truncated_tail: parse.truncated_tail,
    })
}

/// Builds the slice-qualified form of a headline metric key, e.g.
/// `ede_mean_nm{family=chain1d}`. These keys ride the same
/// `metrics` object of an index record as the aggregate keys, which is
/// what lets `runs trend --slice` and the `slice_drift` alert rule reuse
/// the unmodified trend machinery.
pub fn slice_metric_key(metric: &str, family: &str) -> String {
    format!("{metric}{{family={family}}}")
}

/// Splits a slice-qualified key into `(metric, family)`; `None` for
/// plain aggregate keys.
pub fn split_slice_key(key: &str) -> Option<(&str, &str)> {
    let (metric, rest) = key.split_once('{')?;
    let family = rest.strip_prefix("family=")?.strip_suffix('}')?;
    Some((metric, family))
}

/// Extracts the headline subset of an aggregated metric summary,
/// including one `ede_mean_nm{family=<f>}` entry per family slice that
/// recorded any box metrics (an all-skipped slice stays absent, never
/// NaN).
pub fn headline_metrics(s: &MetricSummary) -> Vec<(String, f64)> {
    let mut out = vec![
        ("samples".to_string(), s.samples as f64),
        ("ede_mean_nm".to_string(), s.ede_mean_nm),
        ("pixel_accuracy".to_string(), s.pixel_accuracy),
        ("class_accuracy".to_string(), s.class_accuracy),
        ("mean_iou".to_string(), s.mean_iou),
        ("center_error_nm".to_string(), s.center_error_nm),
    ];
    for slice in &s.slices {
        if let Some(ede) = slice.ede_mean_nm {
            out.push((slice_metric_key("ede_mean_nm", &slice.family), ede));
        }
    }
    out
}

/// The health verdict of a run directory: `None` without a health
/// stream, `"ok"` for a clean one, else the comma-joined diagnosis
/// kinds.
pub fn health_verdict(run_dir: &Path) -> Option<String> {
    let path = run_dir.join("health.jsonl");
    if !path.exists() {
        return None;
    }
    let parse = parse_health_file(&path).ok()?;
    let diagnoses = diagnose(&parse.records);
    if diagnoses.is_empty() {
        return Some("ok".to_string());
    }
    let mut kinds: Vec<&str> = diagnoses.iter().map(|d| d.kind.as_str()).collect();
    kinds.dedup();
    Some(kinds.join(","))
}

/// Builds an index record from a manifest plus already-aggregated parts
/// (the live finalize path, which has the summary in memory).
pub fn record_from_parts(
    manifest: &RunManifest,
    summary: Option<&MetricSummary>,
    health: Option<String>,
) -> IndexRecord {
    let mut metrics = summary.map(headline_metrics).unwrap_or_default();
    // Throughput and the compute-plane profile live in the manifest, not
    // the sample aggregate, so they survive both the live finalize path
    // and a `reindex` rebuild.
    if let Some(sps) = manifest.samples_per_sec {
        metrics.push(("samples_per_sec".to_string(), sps));
    }
    if let Some(util) = manifest.pool_utilization {
        metrics.push(("pool_utilization".to_string(), util));
    }
    if let Some(ws) = manifest.peak_workspace_bytes {
        metrics.push(("peak_workspace_bytes".to_string(), ws as f64));
    }
    IndexRecord {
        schema_version: INDEX_SCHEMA,
        run_id: manifest.run_id.clone(),
        command: manifest.command.clone(),
        started_unix_s: manifest.started_unix_s,
        seed: manifest.seed,
        dataset_fingerprint: manifest.dataset.as_ref().map(|d| d.fingerprint.clone()),
        status: manifest.status.clone(),
        wall_clock_s: manifest.wall_clock_s,
        simd: manifest.simd.clone(),
        metrics,
        health,
    }
}

/// Builds an index record by reading a run directory back (the repair
/// path): manifest, `samples.jsonl` aggregate, `health.jsonl` verdict.
///
/// # Errors
///
/// I/O errors; a missing or unparsable manifest is an error, missing
/// samples/health streams are not.
pub fn index_record_for_run(run_dir: &Path) -> io::Result<IndexRecord> {
    let manifest = load_manifest(run_dir)?;
    let (records, _) = load_records(run_dir)?;
    let summary = if records.is_empty() {
        None
    } else {
        let mut acc = MetricAccumulator::new(1.0); // records already in nm
        for r in &records {
            acc.add_record(r);
        }
        Some(acc.summary())
    };
    Ok(record_from_parts(
        &manifest,
        summary.as_ref(),
        health_verdict(run_dir),
    ))
}

/// Lists the run directories under a root (anything holding a
/// `manifest.json`), unsorted.
///
/// # Errors
///
/// Propagates I/O errors; a missing root yields an empty list.
pub fn scan_run_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(dirs),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.join("manifest.json").is_file() {
            dirs.push(path);
        }
    }
    Ok(dirs)
}

/// Outcome of a [`reindex`]: the rebuilt records plus repair accounting.
#[derive(Debug, Default, Clone)]
pub struct ReindexOutcome {
    /// Rebuilt records, chronological.
    pub records: Vec<IndexRecord>,
    /// Run directories whose manifest failed to load (left out).
    pub unreadable: Vec<String>,
}

/// Rebuilds `root/index.jsonl` from the surviving run directories and
/// swaps it in atomically (write temp, rename), so a crash mid-reindex
/// never leaves a half-written index.
///
/// # Errors
///
/// Propagates I/O errors. Individual unreadable runs are skipped and
/// reported, not fatal.
pub fn reindex(root: &Path) -> io::Result<ReindexOutcome> {
    let mut outcome = ReindexOutcome::default();
    for dir in scan_run_dirs(root)? {
        match index_record_for_run(&dir) {
            Ok(rec) => outcome.records.push(rec),
            Err(_) => outcome
                .unreadable
                .push(dir.file_name().unwrap_or_default().to_string_lossy().into_owned()),
        }
    }
    outcome.records.sort_by(|a, b| {
        (a.started_unix_s, &a.run_id).cmp(&(b.started_unix_s, &b.run_id))
    });
    fs::create_dir_all(root)?;
    let tmp = root.join(format!("index.jsonl.tmp{}", std::process::id()));
    let mut text = String::new();
    for rec in &outcome.records {
        text.push_str(&rec.to_jsonl());
        text.push('\n');
    }
    fs::write(&tmp, text)?;
    fs::rename(&tmp, index_path(root))?;
    outcome.unreadable.sort();
    Ok(outcome)
}

/// What `runs gc --keep N` decided (and, unless planning only, did).
#[derive(Debug, Default, Clone)]
pub struct GcOutcome {
    /// Run ids kept because they are among the newest `keep`.
    pub kept: Vec<String>,
    /// Run ids kept only because they are protected (running, or
    /// referenced by the baseline).
    pub protected: Vec<String>,
    /// Run ids whose directories were removed.
    pub removed: Vec<String>,
}

/// Removes all but the newest `keep` run directories under `root`.
/// Never removes a run whose id is in `protected_ids` (e.g. the run a
/// committed `ci/baseline.json` was written from) or whose manifest
/// still says `running`. The index is rebuilt afterwards so it reflects
/// the survivors.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn gc(root: &Path, keep: usize, protected_ids: &[String]) -> io::Result<GcOutcome> {
    let mut runs: Vec<(PathBuf, RunManifest)> = Vec::new();
    for dir in scan_run_dirs(root)? {
        if let Ok(manifest) = load_manifest(&dir) {
            runs.push((dir, manifest));
        }
    }
    // Newest first; ties broken by id for determinism.
    runs.sort_by(|a, b| {
        (b.1.started_unix_s, &b.1.run_id).cmp(&(a.1.started_unix_s, &a.1.run_id))
    });
    let mut outcome = GcOutcome::default();
    for (i, (dir, manifest)) in runs.iter().enumerate() {
        if i < keep {
            outcome.kept.push(manifest.run_id.clone());
        } else if protected_ids.contains(&manifest.run_id) || manifest.status == "running" {
            outcome.protected.push(manifest.run_id.clone());
        } else {
            fs::remove_dir_all(dir)?;
            outcome.removed.push(manifest.run_id.clone());
        }
    }
    reindex(root)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunLedger;
    use litho_metrics::SampleRecord;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("litho_index_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(run_id: &str, started: u64, status: &str, ede: f64) -> IndexRecord {
        IndexRecord {
            schema_version: INDEX_SCHEMA,
            run_id: run_id.to_string(),
            command: "train".to_string(),
            started_unix_s: started,
            seed: Some(7),
            dataset_fingerprint: Some("00000000deadbeef".to_string()),
            status: status.to_string(),
            wall_clock_s: Some(1.5),
            simd: Some("avx2".to_string()),
            metrics: vec![("samples".to_string(), 4.0), ("ede_mean_nm".to_string(), ede)],
            health: Some("ok".to_string()),
        }
    }

    #[test]
    fn index_record_round_trips() {
        let rec = record("train-1-2", 1000, "ok", 6.5);
        let parsed = IndexRecord::from_json(&Json::parse(&rec.to_jsonl()).unwrap()).unwrap();
        assert_eq!(parsed, rec);

        // Minimal record (no seed/dataset/metrics/health) round-trips too.
        let bare = IndexRecord {
            schema_version: INDEX_SCHEMA,
            run_id: "generate-9-9".to_string(),
            command: "generate".to_string(),
            started_unix_s: 9,
            seed: None,
            dataset_fingerprint: None,
            status: "error".to_string(),
            wall_clock_s: None,
            simd: None,
            metrics: Vec::new(),
            health: None,
        };
        let parsed = IndexRecord::from_json(&Json::parse(&bare.to_jsonl()).unwrap()).unwrap();
        assert_eq!(parsed, bare);
    }

    #[test]
    fn old_records_without_schema_version_still_parse() {
        let line = r#"{"run_id":"train-1-2","command":"train","started_unix_s":5,"status":"ok"}"#;
        let rec = IndexRecord::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(rec.schema_version, 1);
        assert_eq!(rec.run_id, "train-1-2");
    }

    #[test]
    fn append_load_dedups_and_sorts() {
        let root = temp_root("append");
        append_index(&root, &record("b", 200, "running", 7.0)).unwrap();
        append_index(&root, &record("a", 100, "ok", 6.0)).unwrap();
        // Re-finalized run: the later line supersedes the stale one.
        append_index(&root, &record("b", 200, "ok", 7.5)).unwrap();
        // Torn tail from a killed appender.
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(index_path(&root))
            .unwrap();
        file.write_all(b"{\"run_id\":\"torn").unwrap();
        drop(file);

        let parse = load_index(&root).unwrap();
        assert!(parse.truncated_tail);
        assert_eq!(parse.skipped_lines, 0);
        let ids: Vec<&str> = parse.records.iter().map(|r| r.run_id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
        assert_eq!(parse.records[1].status, "ok");
        assert_eq!(parse.records[1].metric("ede_mean_nm"), Some(7.5));

        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_index_is_empty_not_error() {
        let root = temp_root("missing");
        let parse = load_index(&root).unwrap();
        assert!(parse.records.is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn finalize_appends_and_reindex_rebuilds() {
        let root = temp_root("reindex");
        let mut ledger =
            RunLedger::create(&root, "train", Some(3), vec![("epochs".into(), "2".into())], None)
                .unwrap();
        ledger
            .append_record(&SampleRecord {
                sample: 0,
                pixel_accuracy: 0.9,
                class_accuracy: 0.8,
                mean_iou: 0.7,
                ede_mean_nm: Some(5.0),
                ede_edges_nm: Some([5.0; 4]),
                center_error_nm: Some(1.0),
                clip_fingerprint: Some("00000000deadbeef".to_string()),
                family: Some("isolated".to_string()),
            })
            .unwrap();
        ledger.set_pool_utilization(0.82);
        ledger.set_peak_workspace_bytes(123_456);
        ledger.finalize(true).unwrap();

        let parse = load_index(&root).unwrap();
        assert_eq!(parse.records.len(), 1);
        let rec = &parse.records[0];
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.seed, Some(3));
        assert_eq!(rec.metric("ede_mean_nm"), Some(5.0));
        assert_eq!(rec.metric("samples"), Some(1.0));
        // The compute-plane profile rides the manifest into the index.
        assert_eq!(rec.metric("pool_utilization"), Some(0.82));
        assert_eq!(rec.metric("peak_workspace_bytes"), Some(123_456.0));
        assert_eq!(rec.health, None, "no health stream on this run");

        // Wipe the index; reindex reconstructs the same summary from the
        // surviving run directory.
        fs::remove_file(index_path(&root)).unwrap();
        let outcome = reindex(&root).unwrap();
        assert!(outcome.unreadable.is_empty());
        let rebuilt = load_index(&root).unwrap();
        assert_eq!(rebuilt.records, parse.records);

        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn slice_keys_split_and_reach_the_index() {
        assert_eq!(slice_metric_key("ede_mean_nm", "chain1d"), "ede_mean_nm{family=chain1d}");
        assert_eq!(
            split_slice_key("ede_mean_nm{family=chain1d}"),
            Some(("ede_mean_nm", "chain1d"))
        );
        assert_eq!(split_slice_key("ede_mean_nm"), None);
        assert_eq!(split_slice_key("ede_mean_nm{node=N10}"), None);

        let root = temp_root("slices");
        let mut ledger = RunLedger::create(&root, "eval", None, Vec::new(), None).unwrap();
        let rec = |i: u64, ede: f64, family: &str| SampleRecord {
            sample: i,
            pixel_accuracy: 0.9,
            class_accuracy: 0.8,
            mean_iou: 0.7,
            ede_mean_nm: Some(ede),
            ede_edges_nm: Some([ede; 4]),
            center_error_nm: Some(0.5),
            clip_fingerprint: Some(format!("{i:016x}")),
            family: Some(family.to_string()),
        };
        ledger.append_record(&rec(0, 2.0, "isolated")).unwrap();
        ledger.append_record(&rec(1, 6.0, "chain1d")).unwrap();
        ledger.finalize(true).unwrap();

        let parse = load_index(&root).unwrap();
        let idx = &parse.records[0];
        assert_eq!(idx.metric("ede_mean_nm"), Some(4.0));
        assert_eq!(idx.metric(&slice_metric_key("ede_mean_nm", "isolated")), Some(2.0));
        assert_eq!(idx.metric(&slice_metric_key("ede_mean_nm", "chain1d")), Some(6.0));
        assert_eq!(idx.metric(&slice_metric_key("ede_mean_nm", "array2d")), None);

        // The reindex path re-derives the identical slice metrics from
        // samples.jsonl.
        fs::remove_file(index_path(&root)).unwrap();
        reindex(&root).unwrap();
        assert_eq!(load_index(&root).unwrap().records, parse.records);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_keeps_newest_and_protected() {
        let root = temp_root("gc");
        let mut dirs = Vec::new();
        for (i, id) in ["old", "baseline-run", "mid", "new"].iter().enumerate() {
            let dir = root.join(id);
            fs::create_dir_all(&dir).unwrap();
            let manifest = format!(
                "{{\"schema_version\":2,\"run_id\":\"{id}\",\"command\":\"train\",\
                 \"started_unix_s\":{},\"config\":{{}},\"status\":\"ok\"}}\n",
                100 + i as u64
            );
            fs::write(dir.join("manifest.json"), manifest).unwrap();
            dirs.push(dir);
        }
        let outcome = gc(&root, 1, &["baseline-run".to_string()]).unwrap();
        assert_eq!(outcome.kept, vec!["new".to_string()]);
        assert_eq!(outcome.protected, vec!["baseline-run".to_string()]);
        assert_eq!(outcome.removed, vec!["mid".to_string(), "old".to_string()]);
        assert!(root.join("baseline-run").exists());
        assert!(!root.join("old").exists());
        // Index reflects the survivors.
        let ids: Vec<String> = load_index(&root)
            .unwrap()
            .records
            .iter()
            .map(|r| r.run_id.clone())
            .collect();
        assert_eq!(ids, vec!["baseline-run".to_string(), "new".to_string()]);

        fs::remove_dir_all(&root).ok();
    }
}
