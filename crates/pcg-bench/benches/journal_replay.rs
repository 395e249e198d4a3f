//! Journal replay time: v3 binary frames on a full grid.
//!
//! `--resume`, `--merge-shards`, and compaction all start by replaying
//! every completed cell from disk. This bench builds a full-grid
//! replay — every zoo model × the paper's task grid, with
//! paper-shaped samples (20 low, 200 high, Figure-5 sweeps) — and
//! times [`pcg_harness::journal::load`] on it.
//!
//! Writes `target/pcgbench/BENCH_journal.json` with the cell count,
//! the journal's size and its best-of-N replay seconds. `-- --quick`
//! shrinks the grid for smoke runs.

use pcg_core::plan::{CellId, ShardSpec};
use pcg_core::task::all_tasks;
use pcg_core::TaskId;
use pcg_harness::journal::{self, JournalKey, Replay, ReplayCell};
use pcg_harness::record::TaskRecord;
use pcg_harness::EvalConfig;
use pcg_metrics::TaskSamples;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Deterministic paper-shaped record for grid row `i`: 20 low samples,
/// a 200-sample high set on even rows, and a 3-point sweep on every
/// third row — roughly the mix a real full run commits.
fn synth_record(task: TaskId, i: usize) -> TaskRecord {
    let flag = |k: usize| !(i * 31 + k * 7).is_multiple_of(3);
    let ratio = |k: usize| ((i * 13 + k * 5) % 97) as f64 * 0.371 + 0.25;
    let samples = |n: usize| TaskSamples {
        built: (0..n).map(flag).collect(),
        correct: (0..n).map(|k| flag(k) && flag(k + 1)).collect(),
        ratio: (0..n).map(ratio).collect(),
    };
    TaskRecord {
        task,
        low: samples(20),
        high: i.is_multiple_of(2).then(|| samples(200)),
        sweep: if i.is_multiple_of(3) {
            BTreeMap::from([
                (2u32, (0..20).map(ratio).collect()),
                (4u32, (0..20).map(|k| ratio(k) / 2.0).collect()),
                (8u32, (0..20).map(|k| ratio(k) / 4.0).collect()),
            ])
        } else {
            BTreeMap::new()
        },
    }
}

fn bench_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-journal-replay");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    dir.join(format!("{name}-{}.journal", std::process::id()))
}

/// Best-of-`reps` wall seconds to fully replay the journal at `path`,
/// verifying each pass recovers every cell cleanly.
fn replay_seconds(path: &Path, key: &JournalKey, expected: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let loaded = journal::load(path, key);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(loaded.replay.len(), expected, "replay must recover every cell");
        assert!(loaded.rejects.is_empty(), "a clean journal must replay without rejects");
        best = best.min(dt);
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (task_cap, reps) = if quick { (60, 3) } else { (420, 5) };

    let cfg = EvalConfig::quick();
    let key = JournalKey::new(&cfg, &[], ShardSpec::WHOLE, 0);
    let models: Vec<String> =
        pcg_models::zoo().into_iter().map(|m| m.card().name.to_string()).collect();
    let tasks: Vec<TaskId> = all_tasks().take(task_cap).collect();

    let mut replay = Replay::new();
    for model in &models {
        for &task in &tasks {
            let record = synth_record(task, replay.len());
            let id = CellId::new(key.config_hash, model, task);
            replay.insert(id, ReplayCell { model: model.clone(), record });
        }
    }

    let path = bench_path("v3");
    journal::compact(&path, &key, &replay).expect("write v3 journal");
    let v3_bytes = std::fs::metadata(&path).expect("v3 size").len();
    let v3_s = replay_seconds(&path, &key, replay.len(), reps);
    let _ = std::fs::remove_file(&path);

    let json = format!(
        concat!(
            "{{\"workload\":\"full-grid journal replay: {} cells ({} models x {} tasks, ",
            "paper-shaped samples), v3 binary frames, best of {}\",",
            "\"cells\":{},\"v3_bytes\":{},\"v3_replay_s\":{:.6}}}"
        ),
        replay.len(),
        models.len(),
        tasks.len(),
        reps,
        replay.len(),
        v3_bytes,
        v3_s,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    std::fs::write(dir.join("BENCH_journal.json"), &json).expect("write BENCH_journal.json");
    println!(
        "journal_replay: {} cells: v3 {:.1} MB replayed in {v3_s:.4}s",
        replay.len(),
        v3_bytes as f64 / 1e6,
    );
}
