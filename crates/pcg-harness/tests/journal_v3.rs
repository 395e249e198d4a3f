//! Journal v3 corruption battery + replay byte-identity guarantees.
//!
//! Two layers of defence for the binary journal:
//!
//! - **Property suite**: any `TaskRecord` the evaluator can produce
//!   round-trips through the entry codec with byte-identical JSON, and
//!   any single-bit mutation of a journal file never replays a record
//!   whose bytes differ from what was written — corruption is either
//!   tolerated (clean prefix) or loudly rejected, never silently
//!   misread.
//! - **Deterministic battery**: named corruption shapes (torn tail,
//!   truncated length prefix, duplicated cells, forged cell tags,
//!   wrong shard geometry, wrong config) with exact assertions on
//!   replay contents, stale accounting, and reject diagnostics.
//!
//! Plus the replay contract: a journal holding a full run's cells
//! reproduces a cache **byte-identical** to the uninterrupted
//! reference run at `--jobs 1` and `--jobs 8`.

use pcg_core::frame::JOURNAL_MAGIC;
use pcg_core::plan::{CellId, ShardSpec};
use pcg_core::{warm, ExecutionModel, ProblemId, ProblemType, TaskId};
use pcg_harness::codec;
use pcg_harness::eval::{self, evaluate_with, smoke_tasks};
use pcg_harness::journal::{self, Journal, JournalKey};
use pcg_harness::record::TaskRecord;
use pcg_harness::{EvalConfig, SharedRunner};
use pcg_metrics::TaskSamples;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("pcgbench-journal-v3-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.journal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deterministic record with every feature the codec must carry:
/// mixed flags, float ratios, a high-temperature set on odd variants,
/// and a multi-key sweep.
fn fixture_record(variant: usize) -> TaskRecord {
    TaskRecord {
        task: ProblemId::new(ProblemType::Scan, variant % 5).task(ExecutionModel::OpenMp),
        low: TaskSamples {
            built: vec![true, variant.is_multiple_of(2), false],
            correct: vec![true, false, false],
            ratio: vec![1.5 + variant as f64, 0.0, 0.25],
        },
        high: (variant % 2 == 1).then(|| TaskSamples {
            built: vec![true, true],
            correct: vec![true, false],
            ratio: vec![2.0, 0.5],
        }),
        sweep: BTreeMap::from([(2u32, vec![1.0, 2.0]), (8u32, vec![0.5 * variant as f64])]),
    }
}

/// The journal key of an unsalted, no-priors run of `cfg`'s shard
/// `shard`.
fn key(cfg: &EvalConfig, shard: ShardSpec) -> JournalKey {
    JournalKey::new(cfg, &[], shard, 0)
}

/// Write a 3-entry v3 journal and return `(path, entries)` where the
/// entries are keyed exactly as the journal keys them.
fn fixture_journal(cfg: &EvalConfig, tag: &str) -> (PathBuf, Vec<(CellId, String, TaskRecord)>) {
    let chash = key(cfg, ShardSpec::WHOLE).config_hash;
    let entries: Vec<(CellId, String, TaskRecord)> = (0..3)
        .map(|v| {
            let model = format!("model-{v}");
            let rec = fixture_record(v);
            (CellId::new(chash, &model, rec.task), model, rec)
        })
        .collect();
    let path = tmp_path(tag);
    let wal = Journal::create_sourced(&path, cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    for (cell, model, rec) in &entries {
        wal.append(*cell, model, rec).unwrap();
    }
    (path, entries)
}

/// Assert the invariant at the heart of the battery: every cell the
/// mutated journal replays is byte-identical (as JSON) to the record
/// originally written under that cell id — a corrupted file may lose
/// entries, never alter them.
fn assert_no_silent_corruption(
    loaded: &journal::Loaded,
    entries: &[(CellId, String, TaskRecord)],
    what: &str,
) {
    for (id, cell) in &loaded.replay {
        let (_, model, original) = entries
            .iter()
            .find(|(eid, _, _)| eid == id)
            .unwrap_or_else(|| panic!("{what}: replayed unknown cell {id:?}"));
        assert_eq!(&cell.model, model, "{what}: model altered for cell {id:?}");
        assert_eq!(
            serde_json::to_vec(&cell.record).unwrap(),
            serde_json::to_vec(original).unwrap(),
            "{what}: record bytes altered for cell {id:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any record shape → encode → decode is the identity, measured as
    /// JSON byte equality (the export format the cache commits).
    #[test]
    fn entry_codec_roundtrips_arbitrary_records(
        task_idx in 0usize..pcg_core::NUM_TASKS,
        model in "[-a-zA-Z0-9 ._:]{1,24}",
        flags in vec(0u8..2, 2..26),
        ratio in vec(-1e6f64..1e6, 0..24),
        high_present in 0u8..2,
        sweep_keys in vec(1u32..64, 0..4),
    ) {
        let bools: Vec<bool> = flags.iter().map(|&b| b == 1).collect();
        let sweep: BTreeMap<u32, Vec<f64>> =
            sweep_keys.iter().map(|&k| (k, ratio.clone())).collect();
        let record = TaskRecord {
            task: TaskId::from_index(task_idx).unwrap(),
            low: TaskSamples {
                built: bools.clone(),
                correct: bools.iter().map(|b| !b).collect(),
                ratio: ratio.clone(),
            },
            high: (high_present == 1).then(|| TaskSamples {
                built: bools.clone(),
                correct: bools.clone(),
                ratio: ratio.iter().map(|r| r / 2.0).collect(),
            }),
            sweep,
        };
        let payload = codec::encode_entry(&model, &record);
        let (model2, record2) = codec::decode_entry(&payload).unwrap();
        prop_assert_eq!(model2, model);
        prop_assert_eq!(
            serde_json::to_vec(&record2).unwrap(),
            serde_json::to_vec(&record).unwrap()
        );
    }

    /// Flip one arbitrary bit anywhere in a journal file: replay must
    /// come back a byte-identical subset of what was written. This is
    /// the "zero silently-corrupted records" law.
    #[test]
    fn mutated_journals_never_replay_altered_records(flip in 0usize..1_000_000) {
        let cfg = EvalConfig::smoke();
        let (path, entries) = fixture_journal(&cfg, "prop-mutate");
        let mut bytes = std::fs::read(&path).unwrap();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert_no_silent_corruption(&loaded, &entries, &format!("bit {bit}"));
        prop_assert!(
            loaded.replay.len() == entries.len()
                || !loaded.rejects.is_empty()
                || loaded.replay.is_empty(),
            "bit {}: lost cells without a reject diagnostic",
            bit
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn corruption_battery() {
    let cfg = EvalConfig::smoke();

    // ------- Baseline: the fixture journal replays fully and cleanly.
    let (path, entries) = fixture_journal(&cfg, "battery");
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.starts_with(&JOURNAL_MAGIC));
    let loaded = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(loaded.replay.len(), 3);
    assert_eq!(loaded.stale_frames, 0);
    assert!(loaded.rejects.is_empty());
    assert!(!loaded.needs_compaction());
    let offsets = journal::entry_offsets(&path);
    assert_eq!(offsets.len(), 4, "3 entry frames + end sentinel");

    // ------- Exhaustive single-bit flips across the whole file. Every
    // flip must leave replay a byte-identical subset of the original
    // entries — whether it lands in the magic, the header frame, a
    // length prefix, a cell tag, a CRC, or a payload.
    for bit in 0..pristine.len() * 8 {
        let mut corrupt = pristine.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &corrupt).unwrap();
        let loaded = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
        let what = format!("flip at bit {bit}");
        assert_no_silent_corruption(&loaded, &entries, &what);
        assert!(
            loaded.replay.len() == entries.len()
                || !loaded.rejects.is_empty()
                || loaded.replay.is_empty(),
            "{what}: cells vanished without a reject diagnostic"
        );
    }

    // ------- Truncated length prefix: cut 2 bytes into an entry
    // frame's header. Replay keeps the frames before the cut and
    // reports a torn tail at the right offset.
    std::fs::write(&path, &pristine[..offsets[1] as usize + 2]).unwrap();
    let torn = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(torn.replay.len(), 1);
    assert_no_silent_corruption(&torn, &entries, "truncated length prefix");
    assert_eq!(torn.rejects.len(), 1);
    assert_eq!(torn.rejects[0].offset, offsets[1]);
    assert!(torn.rejects[0].reason.contains("torn tail"), "got: {}", torn.rejects[0].reason);
    assert!(torn.needs_compaction());

    // ------- Torn tail mid-payload: the crash shape `simulate_crash`
    // uses, but cutting inside the payload (past the 16-byte frame
    // header) so the length field itself is intact.
    std::fs::write(&path, &pristine[..offsets[2] as usize + 20]).unwrap();
    let torn = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(torn.replay.len(), 2);
    assert_no_silent_corruption(&torn, &entries, "torn payload");
    assert_eq!(torn.rejects.len(), 1);
    assert_eq!(torn.rejects[0].offset, offsets[2]);
    assert!(torn.rejects[0].reason.contains("torn tail"));

    // ------- Duplicated cell: a re-append after an earlier truncated
    // replay. Last write wins, counted stale, but *not* a reject —
    // duplicates are an expected crash artifact, not corruption.
    std::fs::write(&path, &pristine).unwrap();
    let wal = Journal::open_append(&path).unwrap();
    let (cell0, model0, _) = &entries[0];
    // Same cell, same task — only the measured payload differs, as a
    // re-evaluation after an earlier truncated replay would produce.
    let mut shadow = fixture_record(0);
    shadow.low.ratio[0] = 9.75;
    wal.append(*cell0, model0, &shadow).unwrap();
    drop(wal);
    let dup = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(dup.replay.len(), 3);
    assert_eq!(dup.stale_frames, 1);
    assert!(dup.rejects.is_empty());
    assert!(dup.needs_compaction());
    assert_eq!(
        serde_json::to_vec(&dup.replay[cell0].record).unwrap(),
        serde_json::to_vec(&shadow).unwrap(),
        "last write must win for a duplicated cell"
    );

    // ------- Compaction folds the duplicate away and the compacted
    // journal replays identically (with the shadow record, which is
    // the replayable generation).
    let folded = dup.replay.clone();
    journal::compact(&path, &key(&cfg, ShardSpec::WHOLE), &folded).unwrap();
    assert!(std::fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC));
    let compacted = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(compacted.replay.len(), 3);
    assert_eq!(compacted.stale_frames, 0);
    assert!(!compacted.needs_compaction());
    assert_eq!(
        serde_json::to_vec(&compacted.replay[cell0].record).unwrap(),
        serde_json::to_vec(&shadow).unwrap()
    );

    // ------- Forged cell tag: splice in a frame whose CRC is valid
    // but whose cell tag doesn't match the entry's own fields. The
    // cell self-check must catch what the CRC cannot.
    let (cell2, model2, rec2) = &entries[2];
    let mut forged = pristine[..offsets[2] as usize].to_vec();
    forged.extend(pcg_core::frame::encode_frame(
        cell2.0 ^ 0xdead_beef,
        &codec::encode_entry(model2, rec2),
    ));
    std::fs::write(&path, &forged).unwrap();
    let loaded = journal::load(&path, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(loaded.replay.len(), 2);
    assert_no_silent_corruption(&loaded, &entries, "forged cell tag");
    assert_eq!(loaded.rejects.len(), 1);
    assert!(loaded.rejects[0].reason.contains("self-check"), "got: {}", loaded.rejects[0].reason);

    // ------- Wrong shard geometry / wrong config: a journal is only
    // replayable into the exact grid that wrote it.
    std::fs::write(&path, &pristine).unwrap();
    assert!(journal::load(&path, &key(&cfg, ShardSpec::new(1, 3))).replay.is_empty());
    let mut other_cfg = cfg.clone();
    other_cfg.seed ^= 1;
    assert!(journal::load(&path, &key(&other_cfg, ShardSpec::WHOLE)).replay.is_empty());

    std::fs::remove_file(&path).unwrap();
}

/// The replay contract, end to end: a journal holding a full run's
/// cells — appended in completion order through [`Journal::append`] —
/// reproduces a cache byte-identical to the uninterrupted reference
/// at `--jobs 1` and `--jobs 8`. One `#[test]`: the phases share a
/// [`SharedRunner`] so records are byte-comparable, and the warm flag
/// is process-global.
#[test]
fn journaled_replay_is_byte_identical_at_any_job_count() {
    let cfg = EvalConfig::smoke();
    let tasks: Vec<TaskId> = smoke_tasks().into_iter().take(4).collect();
    let models = pcg_models::zoo();
    warm::set_enabled(true);

    // The uninterrupted reference, jobs-agnostic.
    let runner = SharedRunner::new(cfg.clone());
    let (ref1, _) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
    let (ref8, _) = evaluate_with(&cfg, &models, Some(&tasks), 8, &runner);
    let ref_json = serde_json::to_vec(&ref1).unwrap();
    assert_eq!(ref_json, serde_json::to_vec(&ref8).unwrap(), "reference must be jobs-agnostic");

    // A journaled run at --jobs 8: frames land in completion order.
    let jpath = tmp_path("replay");
    let wal = Journal::create_sourced(&jpath, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    let (journaled, _) = eval::evaluate_resumable_priors(
        &cfg,
        &models,
        Some(&tasks),
        8,
        None,
        &runner,
        &journal::Replay::new(),
        |cell, model, rec| wal.append(cell, model, rec).unwrap(),
    );
    drop(wal);
    assert_eq!(serde_json::to_vec(&journaled).unwrap(), ref_json);
    assert!(std::fs::read(&jpath).unwrap().starts_with(&JOURNAL_MAGIC));
    let cells = models.len() * tasks.len();
    let loaded = journal::load(&jpath, &key(&cfg, ShardSpec::WHOLE));
    assert_eq!(loaded.replay.len(), cells);
    assert!(loaded.stale_frames == 0 && loaded.rejects.is_empty());
    assert!(!loaded.needs_compaction());

    // Assembling straight from the replay reproduces the committed
    // cache bytes with no evaluation at all...
    let plan = eval::plan_for(&cfg, &models, Some(&tasks));
    let assembled = eval::assemble(&cfg, &plan, |c| loaded.replay[&c.id].record.clone());
    assert_eq!(serde_json::to_vec(&assembled).unwrap(), ref_json);

    // ...and driving the real evaluator over the replay — at --jobs 1
    // and --jobs 8 — replays every cell and commits the identical
    // bytes the uninterrupted run did.
    for jobs in [1usize, 8] {
        let (rec, stats) = eval::evaluate_resumable_priors(
            &cfg,
            &models,
            Some(&tasks),
            jobs,
            None,
            &runner,
            &loaded.replay,
            |_, _, _| {},
        );
        assert_eq!(stats.resumed_cells, cells, "jobs={jobs}: every cell must replay");
        assert_eq!(
            serde_json::to_vec(&rec).unwrap(),
            ref_json,
            "jobs={jobs}: replay must commit identical bytes"
        );
    }

    std::fs::remove_file(&jpath).unwrap();
}
