//! Crash-safety integration: a run killed mid-grid and restarted with
//! its write-ahead journal must produce a record byte-identical to an
//! uninterrupted run.
//!
//! Byte-identity is the *shared-measurement* guarantee (the same
//! contract `parallel_evaluation_is_byte_identical_to_serial` tests for
//! worker counts): records embed candidate timings, so the comparison
//! holds when both runs draw from one [`SharedRunner`]'s execution
//! cache. Everything else — sample streams, outcome kinds, record
//! ordering — is scheduling- and crash-independent by construction.

use pcgbench::core::plan::ShardSpec;
use pcgbench::core::{ExecutionModel, ProblemId, ProblemType, TaskId};
use pcgbench::harness::journal::{self, Journal, JournalKey, Replay};
use pcgbench::harness::{eval, EvalConfig, SharedRunner};
use pcgbench::models::SyntheticModel;
use std::path::PathBuf;

fn mini_tasks() -> Vec<TaskId> {
    let problems = [
        ProblemId::new(ProblemType::Transform, 0),
        ProblemId::new(ProblemType::Scan, 1),
        ProblemId::new(ProblemType::SparseLinearAlgebra, 0),
    ];
    problems
        .into_iter()
        .flat_map(|p| ExecutionModel::ALL.into_iter().map(move |m| p.task(m)))
        .collect()
}

fn tmp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-crash-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.journal", std::process::id()))
}

/// Chop a journal down to its header plus the first `keep` entry
/// frames, then leave a torn frame — the on-disk state a SIGKILL
/// mid-append leaves behind. Cuts at exact v3 frame boundaries via
/// `journal::entry_offsets`, keeping 10 bytes of the next frame (less
/// than the 16-byte frame header, so replay sees a torn tail).
fn simulate_crash(path: &PathBuf, keep: usize) {
    let offsets = journal::entry_offsets(path);
    assert!(keep + 1 < offsets.len(), "must cut strictly inside the journal");
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..offsets[keep] as usize + 10]).unwrap();
}

#[test]
fn resumed_run_is_byte_identical_to_uninterrupted() {
    let cfg = EvalConfig::smoke();
    let models = [
        SyntheticModel::by_name("CodeLlama-13B").unwrap(),
        SyntheticModel::by_name("GPT-4").unwrap(),
    ];
    let tasks = mini_tasks();
    let runner = SharedRunner::new(cfg.clone());

    // The uninterrupted reference run.
    let (reference, _) = eval::evaluate_with(&cfg, &models, Some(&tasks), 8, &runner);
    let reference_json = serde_json::to_string(&reference).unwrap();

    // A journaled run at --jobs 8 (journal order = completion order,
    // deliberately not grid order), then a simulated SIGKILL that tears
    // the journal mid-append.
    let path = tmp_journal("kill");
    let wal = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    let (journaled, _) = eval::evaluate_resumable_priors(
        &cfg,
        &models,
        Some(&tasks),
        8,
        None,
        &runner,
        &Replay::new(),
        |cell, model, rec| wal.append(cell, model, rec).unwrap(),
    );
    drop(wal);
    assert_eq!(
        serde_json::to_string(&journaled).unwrap(),
        reference_json,
        "journaling must not perturb the record"
    );
    let keep = 9;
    simulate_crash(&path, keep);

    // Resume at a different worker count: keyed replay must not care.
    let replay = journal::load(&path, &JournalKey::new(&cfg, &[], ShardSpec::WHOLE, 0)).replay;
    assert_eq!(replay.len(), keep, "replay survives up to the torn frame");
    let (resumed, stats) = eval::evaluate_resumable_priors(
        &cfg,
        &models,
        Some(&tasks),
        1,
        None,
        &runner,
        &replay,
        |_, _, _| {},
    );
    assert_eq!(stats.resumed_cells, keep);
    assert_eq!(stats.cells, models.len() * tasks.len());
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        reference_json,
        "kill + --resume must reproduce the uninterrupted record exactly"
    );
    journal::remove(&path);
}

#[test]
fn journal_from_a_different_config_is_not_replayed() {
    let cfg = EvalConfig::smoke();
    let models = [SyntheticModel::by_name("StarCoderBase").unwrap()];
    let tasks = &mini_tasks()[..7];
    let runner = SharedRunner::new(cfg.clone());

    let path = tmp_journal("mismatch");
    let wal = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    let (_, _) = eval::evaluate_resumable_priors(
        &cfg,
        &models,
        Some(tasks),
        2,
        None,
        &runner,
        &Replay::new(),
        |cell, model, rec| wal.append(cell, model, rec).unwrap(),
    );
    drop(wal);

    // The journal holds every cell for `cfg` — but a changed config
    // (here: a different seed, i.e. different sample streams) must not
    // replay any of them.
    let mut other = cfg.clone();
    other.seed += 1;
    let key = |c: &EvalConfig| JournalKey::new(c, &[], ShardSpec::WHOLE, 0);
    assert!(journal::load(&path, &key(&other)).replay.is_empty());
    assert_eq!(journal::load(&path, &key(&cfg)).replay.len(), tasks.len());
    journal::remove(&path);
}
