//! Write-ahead journal for crash-safe (and sharded) evaluation.
//!
//! The pipeline appends one entry per completed grid cell, fsync'd
//! before the scheduler hands out more work from that point, so a
//! killed run loses at most the cells that were in flight. On startup
//! with `--resume`, a journal whose header matches the active
//! [`JournalKey`] is replayed: completed cells are skipped and only
//! the remainder is scheduled.
//!
//! Replay is **cell-addressed**: every entry carries its
//! [`pcg_core::CellId`] — the FNV-1a hash of `(config hash, model,
//! task)` — and the replay map is keyed by that id. The id is
//! recomputed from the entry's own fields on load, so each entry is
//! self-checking: an entry whose stored id disagrees with its
//! recomputed id is corrupt and truncates the replay there. Because
//! the same ids partition the grid across shards (`id % shard_count`),
//! a shard worker's journal is simply the slice of the global journal
//! it owns, and `merge` can stitch shard journals back into a
//! whole-grid record with no coordination beyond the shared config.
//!
//! ## Format (v3, binary frames)
//!
//! The file opens with the 8-byte magic `PCGJRNL3`, then a sequence of
//! CRC-checked frames ([`pcg_core::frame`]: `u32 len | u64 cell | u32
//! crc | payload`, little-endian, CRC-32 over cell bytes ++ payload).
//! Frame 0 is the header (cell tag 0; payload `u32 version=3 | u64
//! config_hash | u32 shard_index | u32 shard_count | u64 priors_hash`,
//! the encoded [`JournalKey`]); every further frame is one cell, its
//! payload encoded by [`crate::codec`]. Replay reads the whole file in
//! one buffered pass and never touches a JSON parser — JSON remains
//! the *export* format (the records cache, `record::projection`),
//! unchanged to the byte. A file without the magic, or whose header
//! does not decode to the active key, replays nothing; resume then
//! starts a fresh journal over it.
//!
//! A torn final frame (the crash happened mid-append), a CRC mismatch,
//! a payload that does not decode, or a failed cell self-check
//! truncates the replay at that frame — the cells after it are simply
//! re-evaluated, and every rejection is reported with its byte offset,
//! frame index, and cell id (see [`Reject`]) and counted into the
//! `journal_frames_rejected` stat.
//!
//! **Compaction:** a journal that survived one or more crashes can
//! carry stale bytes — the torn frame itself, frames shadowed by a
//! re-append after an earlier truncated replay, or a tail beyond the
//! first corruption that can never be trusted again. [`compact`]
//! rewrites the journal atomically (temp file + rename) with exactly
//! the replayable generation folded in, so long grids stop replaying
//! stale frames on every subsequent resume.
//!
//! Byte-identity contract: replaying a cell reproduces the exact bytes
//! an uninterrupted run would have recorded — floats travel as raw
//! IEEE-754 bits. The cells evaluated *after* resume reuse the same
//! deterministic sample streams (keyed by grid coordinates, never by
//! worker identity or time), extending the jobs-agnostic determinism
//! guarantee across a crash — and, with cell addressing, across
//! process boundaries.

use crate::codec;
use crate::config::EvalConfig;
use crate::record::TaskRecord;
use parking_lot::Mutex;
use pcg_core::frame::{self, FrameError, ByteReader, ByteWriter, FRAME_OVERHEAD, JOURNAL_MAGIC};
use pcg_core::plan::{fnv1a, CellId, ShardSpec};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal format version; bump on any layout change.
/// (v1 keyed entries by `(model, task)` with no cell address; v2 was
/// cell-addressed, shard-aware JSONL; v3 is binary frames.)
const VERSION: u32 = 3;

/// The header frame's cell tag. Real cell ids are FNV-1a hashes of
/// non-empty input; the header is additionally pinned to frame 0, so
/// the tag is a label, not a collision risk.
const HEADER_CELL: u64 = 0;

/// FNV-1a over the config's canonical JSON: journals are only replayed
/// into the exact configuration that wrote them, and every
/// [`CellId`] in the run is derived from this hash.
pub fn config_hash(cfg: &EvalConfig) -> u64 {
    fnv1a(&serde_json::to_vec(cfg).unwrap_or_default())
}

/// [`config_hash`] with a candidate-source salt folded in
/// (`pcg_models::CandidateSource::config_salt`). The empty salt — the
/// default synthetic path — returns exactly [`config_hash`], so every
/// pre-source artifact keeps its identity; a non-empty salt (e.g. a
/// replay pool's content hash) re-keys every cell id and journal
/// header, which is precisely what stops resume and merge from
/// splicing cells produced from different candidate pools.
pub fn config_hash_with(cfg: &EvalConfig, salt: &[u8]) -> u64 {
    let base = config_hash(cfg);
    if salt.is_empty() {
        return base;
    }
    let mut bytes = base.to_le_bytes().to_vec();
    bytes.extend_from_slice(salt);
    fnv1a(&bytes)
}

/// A journal's identity: everything its header frame pins. Replay,
/// compaction, the work-stealing progress peek and merge all gate on
/// equality with the decoded header, so the four can never drift
/// apart on policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalKey {
    /// [`config_hash_with`] of the run's config and candidate-source
    /// salt; every [`CellId`] in the journal derives from it.
    pub config_hash: u64,
    /// The shard the journal belongs to ([`ShardSpec::WHOLE`] for a
    /// single-process run).
    pub shard: ShardSpec,
    /// The [`pcg_core::CostPriors`] hash the run scheduled and sharded
    /// under, 0 for no priors. Priors change which cells a shard owns,
    /// so a journal written under different priors must not replay.
    pub priors_hash: u64,
}

impl JournalKey {
    /// The key of `cfg`'s shard `shard` scored from a candidate source
    /// with salt `salt` (empty for the synthetic default) under the
    /// priors table hashing to `priors_hash`.
    pub fn new(cfg: &EvalConfig, salt: &[u8], shard: ShardSpec, priors_hash: u64) -> JournalKey {
        JournalKey { config_hash: config_hash_with(cfg, salt), shard, priors_hash }
    }

    /// The magic plus the header frame: the first bytes of every
    /// journal written under this key.
    fn header_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(VERSION);
        w.put_u64(self.config_hash);
        w.put_u32(self.shard.index);
        w.put_u32(self.shard.count);
        w.put_u64(self.priors_hash);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        frame::encode_frame_into(&mut bytes, HEADER_CELL, &w.into_bytes());
        bytes
    }

    /// Decode the header of a journal's bytes: the key it was written
    /// under and the offset of its first entry frame. `None` for a
    /// file without the magic, a torn or corrupt header frame, another
    /// version, or any other header layout.
    fn read(bytes: &[u8]) -> Option<(JournalKey, usize)> {
        if !bytes.starts_with(&JOURNAL_MAGIC) {
            return None;
        }
        let header = match frame::decode_frame(bytes, JOURNAL_MAGIC.len()) {
            Some(Ok(f)) if f.cell == HEADER_CELL => f,
            _ => return None,
        };
        let mut r = ByteReader::new(header.payload);
        if r.u32().ok()? != VERSION {
            return None;
        }
        let key = JournalKey {
            config_hash: r.u64().ok()?,
            shard: ShardSpec { index: r.u32().ok()?, count: r.u32().ok()? },
            priors_hash: r.u64().ok()?,
        };
        r.is_exhausted().then_some((key, header.end))
    }

    /// The offset of the first entry frame in `bytes`, if its header
    /// decodes to exactly this key.
    fn entries_start(&self, bytes: &[u8]) -> Option<usize> {
        JournalKey::read(bytes).filter(|(key, _)| key == self).map(|(_, end)| end)
    }
}

/// Journal path for a record cache path (`records-quick.json` →
/// `records-quick.json.journal`).
pub fn journal_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// Journal path for one shard of a sharded run
/// (`records-quick.json.journal.shard-0-of-3`). The whole-grid spec
/// maps to the plain [`journal_path`], so single-process runs and
/// `0/1`-sharded runs are the same artifact.
pub fn shard_journal_path(cache_path: &Path, shard: ShardSpec) -> PathBuf {
    if shard.is_whole() {
        return journal_path(cache_path);
    }
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(format!(".journal.shard-{}-of-{}", shard.index, shard.count));
    PathBuf::from(os)
}

/// One replayed cell: the model that owns the record (needed to
/// rewrite the entry on compaction and to label merge output).
#[derive(Debug, Clone)]
pub struct ReplayCell {
    /// Model display name the cell belongs to.
    pub model: String,
    /// The journaled record, byte-identical to a fresh evaluation.
    pub record: TaskRecord,
}

/// Completed cells recovered from a journal, keyed by cell address.
pub type Replay = HashMap<CellId, ReplayCell>;

/// One rejected journal frame: where it sits in the file and why
/// replay refused it. Everything from the rejected frame to the end of
/// the file is untrusted.
#[derive(Debug, Clone)]
pub struct Reject {
    /// Byte offset of the rejected frame's first byte.
    pub offset: u64,
    /// Frame index within the file (the header is frame 0).
    pub frame: usize,
    /// The cell tag as stored in the rejected frame, when its fixed
    /// header was still readable. Untrusted — it may be the corrupted
    /// field.
    pub cell: Option<u64>,
    /// What failed: torn tail, CRC mismatch, undecodable payload, or a
    /// failed cell self-check.
    pub reason: String,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {} at byte offset {}", self.frame, self.offset)?;
        if let Some(cell) = self.cell {
            write!(f, " (cell {cell:016x})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// What [`load`] recovered, plus how much of the file it had to
/// discard or fold.
#[derive(Default)]
pub struct Loaded {
    /// The replayable cells.
    pub replay: Replay,
    /// Frames that carried no replayable information: the rejected
    /// frame, the untrusted frames structurally visible after it, and
    /// duplicate appends shadowed by a later frame. When positive, the
    /// journal is worth compacting.
    pub stale_frames: usize,
    /// Frames replay refused, with byte offset / frame index / cell id
    /// diagnostics. At most one per load under the
    /// truncate-at-first-corruption policy; its length feeds the
    /// `journal_frames_rejected` stat.
    pub rejects: Vec<Reject>,
}

impl Loaded {
    /// Whether resume should rewrite this journal before appending:
    /// there are stale bytes to fold away. A journal with replayable
    /// frames *must not* be truncated.
    pub fn needs_compaction(&self) -> bool {
        self.stale_frames > 0
    }
}

/// Append handle for one run's journal.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Start a fresh journal for `cfg`'s shard `shard`, truncating any
    /// previous file. The header carries the [`JournalKey`] of
    /// `(cfg, salt, shard, priors_hash)`: the salt is the candidate
    /// source's (empty for the synthetic default, which writes the
    /// unsalted config hash), and `priors_hash` is the
    /// [`pcg_core::CostPriors`] hash the run schedules under (0 for
    /// none). Replay and merge reject a journal whose key disagrees
    /// with the active run's.
    pub fn create_sourced(
        path: &Path,
        cfg: &EvalConfig,
        salt: &[u8],
        shard: ShardSpec,
        priors_hash: u64,
    ) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = File::create(path)?;
        file.write_all(&JournalKey::new(cfg, salt, shard, priors_hash).header_bytes())?;
        file.sync_data()?;
        Ok(Journal { file: Mutex::new(file) })
    }

    /// Continue appending to an existing journal (resume). The caller
    /// must have validated the header via [`load`] and compacted first
    /// if the file [`Loaded::needs_compaction`].
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file: Mutex::new(file) })
    }

    /// Durably append one completed cell: the frame is written,
    /// flushed, and fsync'd before this returns, so a crash at any
    /// later point cannot lose it.
    pub fn append(&self, cell: CellId, model: &str, record: &TaskRecord) -> std::io::Result<()> {
        let bytes = frame::encode_frame(cell.0, &codec::encode_entry(model, record));
        let mut file = self.file.lock();
        file.write_all(&bytes)?;
        file.flush()?;
        file.sync_data()
    }

    /// Durably append one work-stealing claim frame per cell, batched
    /// into a single write + fsync. A thief MUST call this and see it
    /// return `Ok` **before** evaluating the stolen cells
    /// (claim-before-evaluate): once the claims are on disk, siblings
    /// stop racing for these cells, and if the thief then crashes the
    /// claims are compacted away on its next resume (or ignored by
    /// merge), so the cells fall through to gap-fill — duplicated
    /// effort at worst, never lost work.
    pub fn append_claims(&self, cells: &[CellId], thief_index: u32) -> std::io::Result<()> {
        if cells.is_empty() {
            return Ok(());
        }
        let payload = codec::encode_claim(thief_index);
        let mut bytes = Vec::with_capacity(cells.len() * (FRAME_OVERHEAD + payload.len()));
        for cell in cells {
            frame::encode_frame_into(&mut bytes, cell.0, &payload);
        }
        let mut file = self.file.lock();
        file.write_all(&bytes)?;
        file.flush()?;
        file.sync_data()
    }
}

/// Load the replayable cells of the journal at `path` written under
/// `key`, reporting stale-frame counts (the compaction trigger) and
/// rejection diagnostics.
///
/// Loads empty — no replay, no reject — when the file is missing,
/// unreadable, not a v3 journal, or carries a header for a different
/// key. A torn or corrupt frame — including a CRC-valid frame whose
/// stored cell id disagrees with the id recomputed from its
/// `(model, task)` under the key's config hash — truncates the replay
/// there: everything before it is kept, everything after it is
/// discarded (it may describe cells appended after the corruption, but
/// trusting a journal past its first bad byte is how resumed runs
/// diverge — re-evaluating is always safe).
pub fn load(path: &Path, key: &JournalKey) -> Loaded {
    let mut loaded = Loaded::default();
    let Ok(bytes) = std::fs::read(path) else { return loaded };
    // Frame 0: the header. Any defect here — torn, bad CRC, wrong
    // version/config/shard/priors — means nothing is replayable.
    let Some(mut offset) = key.entries_start(&bytes) else { return loaded };
    let mut frame_idx = 1usize;
    loop {
        let f = match frame::decode_frame(&bytes, offset) {
            None => break,
            Some(Ok(f)) => f,
            Some(Err(e)) => {
                // Torn or corrupt frame: truncate replay here. The bad
                // frame and every (structurally countable) frame after
                // it are stale and untrusted.
                let cell = match e {
                    FrameError::BadCrc { cell, .. } => Some(cell),
                    FrameError::TornTail { .. } => None,
                };
                let after = tail_extent(&bytes, offset, &e);
                loaded.stale_frames += 1 + count_tail_frames(&bytes, after);
                loaded.rejects.push(Reject {
                    offset: offset as u64,
                    frame: frame_idx,
                    cell,
                    reason: e.to_string(),
                });
                return loaded;
            }
        };
        if codec::decode_claim(f.payload).is_some() {
            // A work-stealing claim: it marks intent, carries no
            // result, and must never replay. It counts as stale so a
            // resume compacts it away — a claim without a matching
            // result frame means the thief died mid-steal, and
            // dropping the claim is exactly what makes the cell
            // stealable (or merge-gap-fillable) again.
            loaded.stale_frames += 1;
            offset = f.end;
            frame_idx += 1;
            continue;
        }
        let reject = |reason: String| Reject {
            offset: offset as u64,
            frame: frame_idx,
            cell: Some(f.cell),
            reason,
        };
        let (model, record) = match codec::decode_entry(f.payload) {
            Ok(e) => e,
            Err(e) => {
                // CRC-valid but undecodable: can only happen across an
                // incompatible codec change. Same corruption policy.
                loaded.stale_frames += 1 + count_tail_frames(&bytes, f.end);
                loaded.rejects.push(reject(format!("payload does not decode: {e}")));
                return loaded;
            }
        };
        let id = CellId::new(key.config_hash, &model, record.task);
        if id.0 != f.cell {
            // Self-check failed: the frame decoded but does not
            // describe the cell it claims to.
            loaded.stale_frames += 1 + count_tail_frames(&bytes, f.end);
            loaded.rejects.push(reject(format!(
                "cell self-check failed: recomputed {:016x} from the entry's own fields",
                id.0
            )));
            return loaded;
        }
        if loaded.replay.insert(id, ReplayCell { model, record }).is_some() {
            // A duplicate append (an earlier resume re-evaluated this
            // cell after a truncated replay). Last write wins; the
            // shadowed frame is stale.
            loaded.stale_frames += 1;
        }
        offset = f.end;
        frame_idx += 1;
    }
    loaded
}

/// The priors hash stamped in the journal header at `path`, without
/// validating anything else: `None` when the file is missing or its
/// header does not decode. `--merge-shards` uses this to reject
/// workers that partitioned the grid under different priors before
/// attempting replay.
pub fn peek_priors_hash(path: &Path) -> Option<u64> {
    JournalKey::read(&std::fs::read(path).ok()?).map(|(key, _)| key.priors_hash)
}

/// A sibling journal's structurally visible progress: which cells it
/// has journaled results for and which it has merely claimed. This is
/// what a work-stealing worker reads to find stealable cells.
#[derive(Debug, Default, Clone)]
pub struct Progress {
    /// Cell ids with a result frame on disk. A cell can appear in both
    /// sets (claimed, then completed) — `done` wins for any purpose.
    pub done: std::collections::HashSet<u64>,
    /// Cell ids with a claim frame on disk.
    pub claimed: std::collections::HashSet<u64>,
}

/// Peek one sibling shard journal's progress **without full replay**:
/// the header is gated on `key` exactly like [`load`], then frames are
/// walked CRC-checked but entry payloads are never decoded — cell ids
/// come from the (CRC-covered) frame tags. The walk stops at the first
/// torn or corrupt frame, trusting only the clean prefix.
///
/// `None` means the journal is missing, not v3, or gated out — the
/// caller should treat the sibling as having made no visible progress
/// (every cell stealable; a stolen result is valid for the thief's own
/// plan regardless of what the victim's file said). The peek is
/// advisory only: a stale read means duplicated work at worst, since
/// results are deterministic per cell and merge folds duplicates.
pub fn peek_progress(path: &Path, key: &JournalKey) -> Option<Progress> {
    let bytes = std::fs::read(path).ok()?;
    let mut offset = key.entries_start(&bytes)?;
    let mut progress = Progress::default();
    while let Some(Ok(f)) = frame::decode_frame(&bytes, offset) {
        if codec::decode_claim(f.payload).is_some() {
            progress.claimed.insert(f.cell);
        } else {
            progress.done.insert(f.cell);
        }
        offset = f.end;
    }
    Some(progress)
}

/// Where the untrusted tail begins, one past the rejected frame: a
/// torn frame extends to end-of-file by definition; a CRC-bad frame
/// still has a structurally known extent.
fn tail_extent(bytes: &[u8], offset: usize, e: &FrameError) -> usize {
    match e {
        FrameError::TornTail { .. } => bytes.len(),
        FrameError::BadCrc { .. } => {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            (offset + FRAME_OVERHEAD).saturating_add(len).min(bytes.len())
        }
    }
}

/// Best-effort structural count of the frames in the untrusted tail
/// (for stale-frame accounting only — none of them is replayed).
/// Trailing bytes that do not form a whole frame count as one.
fn count_tail_frames(bytes: &[u8], mut offset: usize) -> usize {
    let mut n = 0;
    while offset < bytes.len() {
        if bytes.len() - offset < FRAME_OVERHEAD {
            return n + 1;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let Some(end) = (offset + FRAME_OVERHEAD).checked_add(len).filter(|&e| e <= bytes.len())
        else {
            return n + 1;
        };
        n += 1;
        offset = end;
    }
    n
}

/// Rewrite the journal at `path` atomically with exactly `replay`
/// folded in under `key`'s header — one frame per completed cell, in
/// deterministic (cell id) order, no torn bytes, no shadowed
/// duplicates. Returns the number of entries written. Readers (and
/// crashes) observe either the old journal or the compacted one, never
/// a hybrid.
pub fn compact(path: &Path, key: &JournalKey, replay: &Replay) -> std::io::Result<usize> {
    let mut os = path.as_os_str().to_os_string();
    os.push(crate::pipeline::unique_suffix("compact"));
    let tmp = PathBuf::from(os);
    let result = (|| {
        let mut bytes = key.header_bytes();
        let mut cells: Vec<(&CellId, &ReplayCell)> = replay.iter().collect();
        cells.sort_by_key(|(id, _)| **id);
        for (id, cell) in &cells {
            frame::encode_frame_into(&mut bytes, id.0, &codec::encode_entry(&cell.model, &cell.record));
        }
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(replay.len())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Byte offsets of each entry frame (frame 1 onward) in a v3 journal,
/// in file order, ending with the offset one past the last frame.
/// Structural only (no CRC verification) — this exists so crash tests
/// and tooling can cut a journal at exact frame boundaries.
pub fn entry_offsets(path: &Path) -> Vec<u64> {
    let Ok(bytes) = std::fs::read(path) else { return Vec::new() };
    if !bytes.starts_with(&JOURNAL_MAGIC) {
        return Vec::new();
    }
    let mut offsets = Vec::new();
    let mut offset = JOURNAL_MAGIC.len();
    let mut saw_header = false;
    while bytes.len() - offset >= FRAME_OVERHEAD {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let Some(end) = (offset + FRAME_OVERHEAD).checked_add(len).filter(|&e| e <= bytes.len())
        else {
            break;
        };
        if saw_header {
            offsets.push(offset as u64);
        }
        saw_header = true;
        offset = end;
    }
    offsets.push(offset as u64);
    offsets
}

/// Delete a journal (after its run committed the final record).
pub fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};
    use pcg_metrics::TaskSamples;
    use std::collections::BTreeMap;

    fn rec(variant: usize) -> TaskRecord {
        TaskRecord {
            task: ProblemId::new(ProblemType::Reduce, variant).task(ExecutionModel::OpenMp),
            low: TaskSamples {
                built: vec![true, false],
                correct: vec![true, false],
                ratio: vec![3.5, 0.0],
            },
            high: None,
            sweep: BTreeMap::from([(4u32, vec![2.25, 0.0])]),
        }
    }

    fn cell_of(cfg: &EvalConfig, model: &str, r: &TaskRecord) -> CellId {
        CellId::new(config_hash(cfg), model, r.task)
    }

    /// The key of an unsalted, no-priors run.
    fn key(cfg: &EvalConfig, shard: ShardSpec) -> JournalKey {
        JournalKey::new(cfg, &[], shard, 0)
    }

    fn new_journal(path: &Path, cfg: &EvalConfig, shard: ShardSpec) -> Journal {
        Journal::create_sourced(path, cfg, &[], shard, 0).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pcgbench-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    #[test]
    fn roundtrip_and_cell_keyed_replay() {
        let cfg = EvalConfig::smoke();
        let path = tmp("roundtrip");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        j.append(cell_of(&cfg, "CodeLlama-7B", &rec(0)), "CodeLlama-7B", &rec(0)).unwrap();
        drop(j);

        assert!(
            std::fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC),
            "production journals are v3"
        );
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert!(!loaded.needs_compaction());
        let replay = loaded.replay;
        assert_eq!(replay.len(), 3);
        let got = &replay[&cell_of(&cfg, "GPT-4", &rec(1))];
        assert_eq!(got.model, "GPT-4");
        assert_eq!(got.record.low.built, vec![true, false]);
        assert_eq!(got.record.low.ratio, vec![3.5, 0.0]);
        remove(&path);
        assert!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.is_empty());
    }

    #[test]
    fn source_salt_gates_replay_and_empty_salt_is_identity() {
        let cfg = EvalConfig::smoke();
        assert_eq!(config_hash_with(&cfg, &[]), config_hash(&cfg));
        let salt = b"pool-A".to_vec();
        assert_ne!(config_hash_with(&cfg, &salt), config_hash(&cfg));

        // A journal written under one pool's salt: its cells are keyed
        // by the salted hash.
        let path = tmp("sourced");
        let salted = JournalKey::new(&cfg, &salt, ShardSpec::WHOLE, 0);
        assert_eq!(salted.config_hash, config_hash_with(&cfg, &salt));
        let r = rec(0);
        let cell = CellId::new(salted.config_hash, "GPT-4", r.task);
        let j = Journal::create_sourced(&path, &cfg, &salt, ShardSpec::WHOLE, 0).unwrap();
        j.append(cell, "GPT-4", &r).unwrap();
        drop(j);

        // Same salt replays; no salt or a different pool replays
        // nothing — and the unsalted peek gates out too.
        let same = load(&path, &salted);
        assert_eq!(same.replay.len(), 1);
        assert!(same.replay.contains_key(&cell));
        let other = load(&path, &JournalKey::new(&cfg, b"pool-B", ShardSpec::WHOLE, 0));
        assert!(other.replay.is_empty());
        assert!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.is_empty());
        assert!(peek_progress(&path, &key(&cfg, ShardSpec::WHOLE)).is_none());
        let peek = peek_progress(&path, &salted).unwrap();
        assert!(peek.done.contains(&cell.0));

        // Compaction preserves the salt.
        compact(&path, &salted, &same.replay).unwrap();
        let again = load(&path, &salted);
        assert_eq!(again.replay.len(), 1);
        remove(&path);
    }

    #[test]
    fn replayed_record_serializes_byte_identically() {
        let cfg = EvalConfig::smoke();
        let path = tmp("bytes");
        let original = rec(2);
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &original), "GPT-4", &original).unwrap();
        drop(j);
        let replay = load(&path, &key(&cfg, ShardSpec::WHOLE)).replay;
        let back = &replay[&cell_of(&cfg, "GPT-4", &original)];
        assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(&back.record).unwrap(),
        );
        remove(&path);
    }

    #[test]
    fn claims_are_skipped_on_replay_and_folded_by_compaction() {
        let cfg = EvalConfig::smoke();
        let path = tmp("claims");
        let spec = ShardSpec::new(1, 3);
        let j = new_journal(&path, &cfg, spec);
        let done = cell_of(&cfg, "GPT-4", &rec(0));
        j.append(done, "GPT-4", &rec(0)).unwrap();
        // Claim two cells, then complete only one — the other is a
        // thief that died between claim and result.
        let c1 = cell_of(&cfg, "GPT-4", &rec(1));
        let c2 = cell_of(&cfg, "CodeLlama-7B", &rec(0));
        j.append_claims(&[c1, c2], 1).unwrap();
        j.append(c1, "GPT-4", &rec(1)).unwrap();
        drop(j);

        let loaded = load(&path, &key(&cfg, spec));
        assert_eq!(loaded.replay.len(), 2, "claims never replay");
        assert!(loaded.replay.contains_key(&done));
        assert!(loaded.replay.contains_key(&c1));
        assert!(!loaded.replay.contains_key(&c2));
        assert_eq!(loaded.stale_frames, 2, "each claim counts stale so resume compacts");
        assert!(loaded.rejects.is_empty(), "claims are a frame kind, not corruption");
        assert!(loaded.needs_compaction());

        // Compaction folds the claims away: the unfinished claim's
        // cell is simply absent — stealable / gap-fillable again.
        compact(&path, &key(&cfg, spec), &loaded.replay).unwrap();
        let again = load(&path, &key(&cfg, spec));
        assert_eq!(again.replay.len(), 2);
        assert_eq!(again.stale_frames, 0);
        assert!(!again.needs_compaction());
        remove(&path);
    }

    #[test]
    fn peek_progress_reports_done_and_claimed_without_replay() {
        let cfg = EvalConfig::smoke();
        let path = tmp("peek");
        let spec = ShardSpec::new(0, 3);
        let j = new_journal(&path, &cfg, spec);
        let done = cell_of(&cfg, "GPT-4", &rec(0));
        let claimed = cell_of(&cfg, "GPT-4", &rec(1));
        j.append(done, "GPT-4", &rec(0)).unwrap();
        j.append_claims(&[claimed], 2).unwrap();
        drop(j);

        let p = peek_progress(&path, &key(&cfg, spec)).unwrap();
        assert!(p.done.contains(&done.0));
        assert!(p.claimed.contains(&claimed.0));
        assert_eq!((p.done.len(), p.claimed.len()), (1, 1));

        // Gated exactly like replay: wrong geometry, wrong config,
        // wrong priors hash, or a missing file sees no progress.
        assert!(peek_progress(&path, &key(&cfg, ShardSpec::new(1, 3))).is_none());
        assert!(peek_progress(&path, &JournalKey::new(&cfg, &[], spec, 7)).is_none());
        let mut other = EvalConfig::smoke();
        other.seed += 1;
        assert!(peek_progress(&path, &key(&other, spec)).is_none());
        assert!(peek_progress(&tmp("peek-missing"), &key(&cfg, spec)).is_none());

        // A torn tail truncates the peek to the clean prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = frame::encode_frame(999, &codec::encode_entry("GPT-4", &rec(2)));
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &bytes).unwrap();
        let p = peek_progress(&path, &key(&cfg, spec)).unwrap();
        assert_eq!((p.done.len(), p.claimed.len()), (1, 1));
        remove(&path);
    }

    #[test]
    fn config_or_shard_mismatch_replays_nothing() {
        let cfg = EvalConfig::smoke();
        let path = tmp("mismatch");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        let mut other = EvalConfig::smoke();
        other.seed += 1;
        assert_ne!(config_hash(&cfg), config_hash(&other));
        assert!(load(&path, &key(&other, ShardSpec::WHOLE)).replay.is_empty());
        // A whole-grid journal must not replay into a shard worker.
        assert!(load(&path, &key(&cfg, ShardSpec::new(0, 3))).replay.is_empty());
        assert_eq!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.len(), 1);
        remove(&path);
    }

    #[test]
    fn torn_frame_truncates_replay_and_counts_stale() {
        let cfg = EvalConfig::smoke();
        let path = tmp("torn");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn third frame, then a valid
        // fourth frame that must NOT be trusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn_offset = bytes.len() as u64;
        let torn = frame::encode_frame(12345, &codec::encode_entry("GPT-4", &rec(2)));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert_eq!(loaded.replay.len(), 2, "replay stops at the torn frame");
        assert_eq!(loaded.stale_frames, 1, "the torn frame is stale");
        assert!(loaded.needs_compaction());
        assert_eq!(loaded.rejects.len(), 1);
        let r = &loaded.rejects[0];
        assert_eq!((r.offset, r.frame), (torn_offset, 3));
        assert!(r.to_string().contains("torn tail"), "{r}");

        // Now a whole valid frame after the torn one: still untrusted.
        let whole =
            frame::encode_frame(cell_of(&cfg, "CodeLlama-7B", &rec(3)).0, &codec::encode_entry("CodeLlama-7B", &rec(3)));
        bytes.extend_from_slice(&whole);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert_eq!(loaded.replay.len(), 2);
        assert!(!loaded.replay.contains_key(&cell_of(&cfg, "CodeLlama-7B", &rec(3))));
        remove(&path);
    }

    #[test]
    fn bit_flip_is_rejected_with_location() {
        let cfg = EvalConfig::smoke();
        let path = tmp("flip");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        let offsets = entry_offsets(&path);
        // Flip one payload byte inside the FIRST entry frame.
        let mut bytes = clean.clone();
        let target = offsets[0] as usize + FRAME_OVERHEAD + 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert!(loaded.replay.is_empty(), "nothing after the flip is trusted");
        assert_eq!(loaded.stale_frames, 2, "the corrupt frame and the structural tail");
        assert_eq!(loaded.rejects.len(), 1);
        let r = &loaded.rejects[0];
        assert_eq!((r.offset, r.frame), (offsets[0], 1));
        assert!(r.to_string().contains("CRC mismatch"), "{r}");
        remove(&path);
    }

    #[test]
    fn forged_cell_id_is_treated_as_corruption() {
        let cfg = EvalConfig::smoke();
        let path = tmp("forged");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        // An entry whose stored id belongs to a different cell. The
        // frame CRC is valid (it was written that way), so only the
        // cell self-check can catch it.
        j.append(cell_of(&cfg, "GPT-4", &rec(2)), "GPT-4", &rec(1)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(3)), "GPT-4", &rec(3)).unwrap();
        drop(j);
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert_eq!(loaded.replay.len(), 1, "replay truncates at the forged frame");
        assert_eq!(loaded.stale_frames, 2);
        assert_eq!(loaded.rejects.len(), 1);
        assert_eq!(loaded.rejects[0].cell, Some(cell_of(&cfg, "GPT-4", &rec(2)).0));
        assert!(loaded.rejects[0].to_string().contains("self-check"), "{}", loaded.rejects[0]);
        remove(&path);
    }

    #[test]
    fn duplicate_appends_fold_to_last_write_and_compact() {
        let cfg = EvalConfig::smoke();
        let path = tmp("dup");
        let k = key(&cfg, ShardSpec::WHOLE);
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        let mut first = rec(0);
        first.low.ratio = vec![1.0, 0.0];
        j.append(cell_of(&cfg, "GPT-4", &first), "GPT-4", &first).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        // The same cell re-appended (post-truncation re-evaluation).
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);

        let loaded = load(&path, &k);
        assert_eq!(loaded.replay.len(), 2);
        assert_eq!(loaded.stale_frames, 1, "the shadowed first append is stale");
        assert!(loaded.rejects.is_empty(), "duplicates are tolerated, not rejected");
        assert_eq!(
            loaded.replay[&cell_of(&cfg, "GPT-4", &rec(0))].record.low.ratio,
            rec(0).low.ratio,
            "last write wins"
        );

        // Compaction rewrites to exactly the replayable generation...
        compact(&path, &k, &loaded.replay).unwrap();
        let again = load(&path, &k);
        assert_eq!(again.stale_frames, 0, "a compacted journal has no stale frames");
        assert_eq!(again.replay.len(), 2);
        // ...and the compacted journal still replays byte-identically.
        assert_eq!(
            serde_json::to_string(&again.replay[&cell_of(&cfg, "GPT-4", &rec(1))].record).unwrap(),
            serde_json::to_string(&rec(1)).unwrap(),
        );
        // Appending after compaction still works (resume continues).
        let j = Journal::open_append(&path).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(4)), "GPT-4", &rec(4)).unwrap();
        drop(j);
        assert_eq!(load(&path, &k).replay.len(), 3);
        remove(&path);
    }

    #[test]
    fn append_after_resume_extends_the_same_journal() {
        let cfg = EvalConfig::smoke();
        let path = tmp("extend");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        let j = Journal::open_append(&path).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        assert_eq!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.len(), 2);
        remove(&path);
    }

    #[test]
    fn v2_jsonl_journal_loads_empty_and_resume_recreates_v3() {
        let cfg = EvalConfig::smoke();
        let path = tmp("v2");
        let k = key(&cfg, ShardSpec::WHOLE);
        // A v2 JSONL journal, header line plus one entry line, as a
        // pre-v3 run left it.
        let id = cell_of(&cfg, "GPT-4", &rec(0));
        let jsonl = format!(
            "{{\"version\":2,\"config_hash\":{},\"shard_index\":0,\"shard_count\":1}}\n\
             {{\"cell\":{},\"model\":\"GPT-4\",\"record\":{}}}\n",
            k.config_hash,
            id.0,
            serde_json::to_string(&rec(0)).unwrap(),
        );
        std::fs::write(&path, jsonl).unwrap();

        let loaded = load(&path, &k);
        assert!(loaded.replay.is_empty(), "a file without the v3 magic replays nothing");
        assert!(loaded.rejects.is_empty(), "a foreign file is not corruption");
        assert_eq!(loaded.stale_frames, 0);
        assert_eq!(peek_priors_hash(&path), None);
        assert!(peek_progress(&path, &k).is_none());

        // Resume finds nothing to replay, so the run starts a fresh v3
        // journal over the old file.
        let resumed = crate::pipeline::resume_journal(&path, &cfg, &[], ShardSpec::WHOLE, 0);
        assert!(resumed.replay.is_empty());
        assert_eq!((resumed.compacted, resumed.rejected), (0, 0));
        let j = resumed.open(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC));
        j.append(id, "GPT-4", &rec(0)).unwrap();
        drop(j);
        let again = load(&path, &k);
        assert_eq!(again.replay.len(), 1);
        assert!(again.rejects.is_empty() && !again.needs_compaction());
        assert_eq!(peek_priors_hash(&path), Some(0));
        remove(&path);
    }

    #[test]
    fn entry_offsets_walk_frame_boundaries() {
        let cfg = EvalConfig::smoke();
        let path = tmp("offsets");
        let j = new_journal(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        let offsets = entry_offsets(&path);
        assert_eq!(offsets.len(), 3, "two entries plus the end sentinel");
        assert_eq!(*offsets.last().unwrap(), std::fs::metadata(&path).unwrap().len());
        // Truncating at an entry offset yields a clean shorter journal.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..offsets[1] as usize]).unwrap();
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert_eq!(loaded.replay.len(), 1);
        assert_eq!(loaded.stale_frames, 0);
        remove(&path);
    }

    #[test]
    fn journal_paths_derive_from_cache_path() {
        let p = journal_path(Path::new("target/pcgbench/records-quick.json"));
        assert_eq!(p, Path::new("target/pcgbench/records-quick.json.journal"));
        let s = shard_journal_path(
            Path::new("target/pcgbench/records-quick.json"),
            ShardSpec::new(1, 3),
        );
        assert_eq!(
            s,
            Path::new("target/pcgbench/records-quick.json.journal.shard-1-of-3")
        );
        assert_eq!(
            shard_journal_path(Path::new("x.json"), ShardSpec::WHOLE),
            journal_path(Path::new("x.json")),
        );
    }

    #[test]
    fn priors_hash_mismatch_replays_nothing() {
        let cfg = EvalConfig::smoke();
        let path = tmp("priors");
        let stamped = JournalKey::new(&cfg, &[], ShardSpec::WHOLE, 0xabcd);
        let j = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0xabcd).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);

        assert_eq!(peek_priors_hash(&path), Some(0xabcd));
        assert_eq!(load(&path, &stamped).replay.len(), 1);
        // A different priors table — or none at all — partitioned the
        // grid differently; its journal must not replay.
        let other = JournalKey::new(&cfg, &[], ShardSpec::WHOLE, 0x1234);
        assert!(load(&path, &other).replay.is_empty());
        assert!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.is_empty());

        // Compaction preserves the stamp.
        let loaded = load(&path, &stamped);
        compact(&path, &stamped, &loaded.replay).unwrap();
        assert_eq!(peek_priors_hash(&path), Some(0xabcd));
        assert_eq!(load(&path, &stamped).replay.len(), 1);
        remove(&path);
        assert_eq!(peek_priors_hash(&path), None, "missing file has no hash to peek");
    }

    #[test]
    fn pre_priors_headers_replay_nothing() {
        let cfg = EvalConfig::smoke();
        let path = tmp("pre-priors");
        // Hand-write a v3 journal whose header ends at shard_count —
        // the layout shipped before the priors field existed.
        let mut w = ByteWriter::new();
        w.put_u32(VERSION);
        w.put_u64(config_hash(&cfg));
        w.put_u32(ShardSpec::WHOLE.index);
        w.put_u32(ShardSpec::WHOLE.count);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        frame::encode_frame_into(&mut bytes, HEADER_CELL, &w.into_bytes());
        let id = cell_of(&cfg, "GPT-4", &rec(0));
        frame::encode_frame_into(&mut bytes, id.0, &codec::encode_entry("GPT-4", &rec(0)));
        std::fs::write(&path, &bytes).unwrap();

        // The short header is gated out like any other mismatch: no
        // replay, no reject, no progress, no priors hash to peek.
        assert_eq!(peek_priors_hash(&path), None);
        let loaded = load(&path, &key(&cfg, ShardSpec::WHOLE));
        assert!(loaded.replay.is_empty(), "a pre-priors header replays nothing");
        assert!(loaded.rejects.is_empty());
        assert!(load(&path, &JournalKey::new(&cfg, &[], ShardSpec::WHOLE, 7)).replay.is_empty());
        assert!(peek_progress(&path, &key(&cfg, ShardSpec::WHOLE)).is_none());
        remove(&path);
    }

    #[test]
    fn shard_journals_replay_into_their_own_spec_only() {
        let cfg = EvalConfig::smoke();
        let path = tmp("shard");
        let spec = ShardSpec::new(1, 3);
        let j = new_journal(&path, &cfg, spec);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        assert_eq!(load(&path, &key(&cfg, spec)).replay.len(), 1);
        assert!(load(&path, &key(&cfg, ShardSpec::new(0, 3))).replay.is_empty());
        assert!(load(&path, &key(&cfg, ShardSpec::WHOLE)).replay.is_empty());
        remove(&path);
    }
}
