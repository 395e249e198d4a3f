//! One evaluation process of the end-to-end benchmark.
//!
//! `run.py` starts this binary in a fresh process, in a fresh working
//! directory, for every evaluation it measures, so every run is cold.
//! Roles:
//!
//! * `eval`   — a whole single-process workload: evaluate the grid with a
//!   write-ahead journal, commit the records, render the report;
//! * `worker` — one shard worker of `sharded-variants` (own partition,
//!   then work stealing from its sibling);
//! * `merge`  — `shard::merge_shards` over the worker journals, then the
//!   report;
//! * `check`  — verify the committed records: fingerprint against the
//!   pins, every verdict against the candidate kinds.
//!
//! `--probe` stops an `eval` or `worker` at its first cell dispatch
//! (set-up samples); `--trace` records spans around every call into the
//! harness. Each role writes a JSON report to `--out`.

mod analysis;
mod trace;
mod workload;

use analysis::{PinCheck, Pins};
use pcg_core::plan::{CellId, ShardSpec, WorkPlan};
use pcg_core::{ExecutionModel, TaskId};
use pcg_harness::colstats::{self, ColumnarStats};
use pcg_harness::journal::{self, Journal, Replay};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::{EvalRecord, EvalStats};
use pcg_harness::runner::SharedRunner;
use pcg_harness::{eval, report, shard, EvalConfig, TaskRecord};
use pcg_models::{CandidateSource, SampleSpec, SyntheticSource};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{timed, Trace};
use workload::Workload;

/// Records file every role reads or writes, relative to the run directory.
const RECORDS: &str = "records.json";

/// What one process reports back to `run.py`.
#[derive(Debug, Default, Serialize, Deserialize)]
struct ProcReport {
    /// Unix time of the first cell dispatch (0 when none happened).
    first_dispatch_unix: f64,
    /// Plan cells of the whole workload.
    cells: u64,
    /// Harness failures seen: candidate panics, wall-clock timeouts,
    /// quarantined candidates, failed journal appends.
    failures: u64,
    /// Wall seconds of this process's own evaluation work.
    wall_s: f64,
    /// Per-layer metrics (filled by `eval` and `merge`).
    layers: BTreeMap<String, f64>,
    /// Worker only: durations of each journal append.
    append_s: Vec<f64>,
    /// Worker only: cell ids this worker journaled.
    journaled: Vec<u64>,
    /// Worker only: bytes in its journal at the end.
    journal_bytes: u64,
    /// Worker only: wrapped `sample` calls and their summed seconds.
    sample_calls: u64,
    sample_s: f64,
    /// Human-readable traced summary (spans, rollup, top cells).
    summary: String,
    /// `check` only.
    fingerprint: String,
    pin: String,
    missing: u64,
    mismatches: u64,
    problems: Vec<String>,
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn write_report(out: &Path, rep: &ProcReport) {
    let bytes = serde_json::to_vec(rep).expect("report serializes");
    std::fs::write(out, bytes).unwrap_or_else(|e| fail(&format!("cannot write {out:?}: {e}")));
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// The zoo source under the workload's prompt variants, wrapped so the
/// benchmark sees every `sample` call: the first one marks the first
/// cell dispatch, and traced runs time each call.
struct TimedSource<'a> {
    inner: SyntheticSource,
    trace: Option<&'a Trace>,
    /// Span that the current sample calls belong to (`usize::MAX`: none).
    parent: AtomicUsize,
    first_dispatch: OnceLock<f64>,
    calls: AtomicU64,
    nanos: AtomicU64,
    /// Probe mode: report the first dispatch to this file and exit.
    probe: Option<PathBuf>,
}

impl<'a> TimedSource<'a> {
    fn new(cfg: &EvalConfig, trace: Option<&'a Trace>, probe: Option<PathBuf>) -> Self {
        TimedSource {
            inner: SyntheticSource::zoo(&cfg.prompt_variants),
            trace,
            parent: AtomicUsize::new(usize::MAX),
            first_dispatch: OnceLock::new(),
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            probe,
        }
    }

    fn set_parent(&self, span: Option<usize>) {
        self.parent
            .store(span.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    fn first_dispatch_unix(&self) -> f64 {
        self.first_dispatch.get().copied().unwrap_or(0.0)
    }

    fn sample_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl CandidateSource for TimedSource<'_> {
    fn model_names(&self) -> Vec<String> {
        self.inner.model_names()
    }

    fn weights_available(&self, model: usize) -> bool {
        self.inner.weights_available(model)
    }

    fn sample(
        &self,
        model: usize,
        task: TaskId,
        spec: &SampleSpec,
    ) -> Vec<pcg_core::CandidateKind> {
        let first = *self.first_dispatch.get_or_init(unix_now);
        if let Some(out) = &self.probe {
            // Every worker thread may get here; the first one reports and
            // exits while holding the lock, so the others never write.
            static PROBE: Mutex<()> = Mutex::new(());
            let _only = PROBE.lock();
            write_report(
                out,
                &ProcReport {
                    first_dispatch_unix: first,
                    ..Default::default()
                },
            );
            std::process::exit(0);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(tr) = self.trace else {
            return self.inner.sample(model, task, spec);
        };
        let t0 = Instant::now();
        let kinds = self.inner.sample(model, task, spec);
        let t1 = Instant::now();
        self.nanos
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        let parent = self.parent.load(Ordering::Relaxed);
        tr.record(
            "models.sample",
            (parent != usize::MAX).then_some(parent),
            t0,
            t1,
        );
        kinds
    }

    fn config_salt(&self) -> Vec<u8> {
        self.inner.config_salt()
    }
}

/// Journal appends made through the `on_cell` hook, timed.
struct AppendLog<'a> {
    trace: Option<&'a Trace>,
    secs: Vec<f64>,
    ids: Vec<u64>,
    failures: u64,
}

impl<'a> AppendLog<'a> {
    fn new(trace: Option<&'a Trace>, cap: usize) -> Self {
        AppendLog {
            trace,
            secs: Vec::with_capacity(cap),
            ids: Vec::with_capacity(cap),
            failures: 0,
        }
    }

    fn append(
        &mut self,
        wal: &Journal,
        parent: Option<usize>,
        cell: CellId,
        model: &str,
        rec: &TaskRecord,
    ) {
        let t0 = Instant::now();
        let res = wal.append(cell, model, rec);
        let t1 = Instant::now();
        if let Err(e) = res {
            eprintln!("perfbench: journal append failed: {e}");
            self.failures += 1;
        }
        self.secs.push((t1 - t0).as_secs_f64());
        self.ids.push(cell.0);
        if let Some(tr) = self.trace {
            tr.record("journal.append", parent, t0, t1);
        }
    }
}

fn harness_failures(stats: &EvalStats) -> u64 {
    stats.panics + stats.timeouts + stats.quarantined.len() as u64
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Layer metrics that come from the harness's own counters and measured
/// cell walls. Returns the cell-wall rollup for the summary.
fn stats_layers(
    stats: &EvalStats,
    plan: &WorkPlan,
    l: &mut BTreeMap<String, f64>,
) -> analysis::Rollup {
    let walls: Vec<(u64, f64)> = stats.cell_walls.iter().map(|w| (w.cell, w.secs)).collect();
    let roll = analysis::rollup(plan, &walls, 8);
    let cell_s = sorted(walls.iter().map(|w| w.1).collect());
    let mut put = |k: &str, v: f64| {
        l.insert(k.to_string(), v);
    };
    put(
        "scheduler.critical_cell_s",
        cell_s.last().copied().unwrap_or(0.0),
    );
    put("scheduler.cell_s_p50", analysis::percentile(&cell_s, 0.5));
    put("scheduler.cell_s_p99", analysis::percentile(&cell_s, 0.99));
    put("scheduler.cells_timed", cell_s.len() as f64);
    let requests = stats.executions + stats.cache_hits;
    put("runner.executions", stats.executions as f64);
    put(
        "runner.cache_hit_ratio",
        ratio(stats.cache_hits as f64, requests as f64),
    );
    put("runner.run_s", stats.run_s);
    put("runner.baseline_s", stats.baseline_s);
    put("runner.validate_s", stats.validate_s);
    put("runner.timeouts", stats.timeouts as f64);
    put("runner.panics", stats.panics as f64);
    // Summed cell wall per substrate, in seconds and as a share of all
    // cell wall: a workload without the substrate reads a 0 share.
    let substrates: [(&str, &[ExecutionModel]); 5] = [
        ("mpisim", &[ExecutionModel::Mpi]),
        ("shmem", &[ExecutionModel::OpenMp]),
        ("patterns", &[ExecutionModel::Kokkos]),
        ("hybrid", &[ExecutionModel::MpiOpenMp]),
        ("gpusim", &[ExecutionModel::Cuda, ExecutionModel::Hip]),
    ];
    put("scheduler.cell_wall_s", roll.total_s);
    for (layer, models) in substrates {
        let secs: f64 = models.iter().map(|&m| roll.model_wall(m)).sum();
        put(&format!("{layer}.cell_s"), secs);
        put(&format!("{layer}.cell_share"), ratio(secs, roll.total_s));
    }
    let serial = roll.model_wall(ExecutionModel::Serial);
    put("problems.serial_cell_s", serial);
    put("problems.serial_cell_share", ratio(serial, roll.total_s));
    let graph = roll.wall_where(|r| r.model == ExecutionModel::Mpi.label() && r.ptype == "graph");
    put("mpisim.graph_cell_s", graph);
    put("mpisim.graph_cell_share", ratio(graph, roll.total_s));
    put("mpisim.ranks_multiplexed", stats.ranks_multiplexed as f64);
    put(
        "mpisim.zero_copy_mib",
        stats.bytes_zero_copied as f64 / (1u64 << 20) as f64,
    );
    let leases = stats.lease_hits + stats.lease_misses;
    put(
        "problems.lease_hit_ratio",
        ratio(stats.lease_hits as f64, leases as f64),
    );
    put("problems.input_cache_hits", stats.input_cache_hits as f64);
    put("problems.pool_setup_s", stats.pool_setup_s);
    put("shard.cells_stolen", stats.cells_stolen as f64);
    put("shard.steal_conflicts", stats.steal_conflicts as f64);
    roll
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn journal_layers(append_s: &[f64], bytes: u64, l: &mut BTreeMap<String, f64>) {
    let s = sorted(append_s.to_vec());
    l.insert("journal.appends".into(), s.len() as f64);
    l.insert("journal.append_s".into(), s.iter().sum());
    l.insert("journal.append_s_p50".into(), analysis::percentile(&s, 0.5));
    l.insert(
        "journal.append_s_p99".into(),
        analysis::percentile(&s, 0.99),
    );
    l.insert("journal.bytes".into(), bytes as f64);
}

/// Records JSON plus the `.cols` sidecar bytes, as the pipeline commits
/// them.
fn serialize(record: &EvalRecord, stats: &EvalStats, salt: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let json = serde_json::to_vec(record).expect("records serialize");
    let mut cols = ColumnarStats::from_record(record);
    let walls: HashMap<CellId, f64> = stats
        .cell_walls
        .iter()
        .map(|w| (CellId(w.cell), w.secs))
        .collect();
    cols.set_walls(journal::config_hash_with(&record.config, salt), &walls);
    (json, cols.to_bytes())
}

/// Write `bytes` durably: temp file, fsync, rename.
fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    std::fs::rename(&tmp, path)
}

/// Every table and figure plus the summary, as `reproduce` prints them.
fn render(record: &EvalRecord) -> String {
    let mut s = report::table1();
    s += &report::table2();
    s += &report::figure1(record);
    s += &report::figure2(record);
    s += &report::figure3(record);
    s += &report::figure4(record);
    s += &report::figure5(record);
    s += &report::figure6(record);
    s += &report::figure7(record);
    if record.config.prompt_variants.len() > 1 {
        s += &report::variant_summary(record);
    }
    s += &report::experiments_summary(record);
    s
}

fn render_to_file(record: &EvalRecord) {
    let text = render(record);
    std::fs::write("report.txt", text)
        .unwrap_or_else(|e| fail(&format!("cannot write report: {e}")));
}

/// Traced summary: self time per span name, the cell-wall rollup, and
/// the journal-append distribution.
fn summary(tr: &Trace, roll: &analysis::Rollup, append_s: &[f64]) -> String {
    use std::fmt::Write as _;
    let spans = tr.spans();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "spans ({} recorded): name, count, total s, self s",
        spans.len()
    );
    for (name, t) in trace::self_times(&spans) {
        let _ = writeln!(
            s,
            "  {name:<18} {:>7} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    let _ = writeln!(s, "journal appends: {}", analysis::describe(append_s));
    s += &roll.render();
    // Spans are written out at exit, next to the run's other output.
    if let Ok(bytes) = serde_json::to_vec(&spans) {
        let _ = std::fs::write("spans.json", bytes);
    }
    s
}

struct Args {
    role: String,
    workload: Workload,
    seed: u64,
    out: PathBuf,
    trace: bool,
    probe: bool,
    shard: u32,
    workers: Vec<PathBuf>,
    pins: Option<PathBuf>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let role = argv
        .first()
        .cloned()
        .unwrap_or_else(|| fail("missing role"));
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = value("--workload")
        .and_then(|w| Workload::parse(&w))
        .unwrap_or_else(|| fail("missing or unknown --workload"));
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("missing or malformed --seed"));
    let out = value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| fail("missing --out"));
    Args {
        role,
        workload,
        seed,
        out,
        trace: argv.iter().any(|a| a == "--trace"),
        probe: argv.iter().any(|a| a == "--probe"),
        shard: value("--shard").and_then(|s| s.parse().ok()).unwrap_or(0),
        workers: value("--workers")
            .map(|w| w.split(',').map(PathBuf::from).collect())
            .unwrap_or_default(),
        pins: value("--pins").map(PathBuf::from),
    }
}

fn main() {
    let a = parse_args();
    let run_id = format!("{}-{}-{}{}", a.workload.name(), a.seed, a.role, a.shard);
    let tr = a.trace.then(|| Trace::new(run_id));
    let rep = match a.role.as_str() {
        "eval" => run_eval(&a, tr.as_ref()),
        "worker" => run_worker(&a, tr.as_ref()),
        "merge" => run_merge(&a, tr.as_ref()),
        "check" => run_check(&a),
        other => fail(&format!("unknown role {other:?}")),
    };
    write_report(&a.out, &rep);
}

/// A whole single-process workload, composed from the same public calls
/// `pipeline::load_or_run_opts` makes, with the journal on.
fn run_eval(a: &Args, tr: Option<&Trace>) -> ProcReport {
    let w = a.workload;
    let cfg = w.config(a.seed);
    let tasks = w.tasks();
    let probe = a.probe.then(|| a.out.clone());
    let jpath = journal::journal_path(Path::new(RECORDS));
    let (source, plan, wal, runner) = timed(tr, "setup", None, |_| {
        let source = TimedSource::new(&cfg, tr, probe);
        let plan = eval::plan_for(&cfg, &source, tasks.as_deref());
        let wal = Journal::create_sourced(&jpath, &cfg, &source.config_salt(), ShardSpec::WHOLE, 0)
            .unwrap_or_else(|e| fail(&format!("cannot create journal: {e}")));
        let runner = SharedRunner::new(cfg.clone());
        (source, plan, wal, runner)
    });
    let mut appends = AppendLog::new(tr, plan.len());
    let (record, stats) = timed(tr, "evaluate", None, |span| {
        source.set_parent(span);
        eval::evaluate_resumable_priors(
            &cfg,
            &source,
            tasks.as_deref(),
            w.jobs(),
            None,
            &runner,
            &Replay::new(),
            |cell, model, rec| appends.append(&wal, span, cell, model, rec),
        )
    });
    let journal_bytes = std::fs::metadata(&jpath).map_or(0, |m| m.len());
    let salt = source.config_salt();
    let t_ser = Instant::now();
    let (json, cols) = timed(tr, "record.serialize", None, |_| {
        serialize(&record, &stats, &salt)
    });
    let serialize_s = t_ser.elapsed().as_secs_f64();
    let mut failures = appends.failures + harness_failures(&stats);
    timed(tr, "record.write", None, |_| {
        let cache = Path::new(RECORDS);
        for (path, bytes) in [
            (cache.to_path_buf(), &json),
            (colstats::cols_path(cache), &cols),
        ] {
            if let Err(e) = write_durable(&path, bytes) {
                eprintln!("perfbench: cannot commit {}: {e}", path.display());
                failures += 1;
            }
        }
        journal::remove(&jpath);
    });
    let t_rep = Instant::now();
    timed(tr, "report.render", None, |_| render_to_file(&record));
    let render_s = t_rep.elapsed().as_secs_f64();

    let mut rep = ProcReport {
        first_dispatch_unix: source.first_dispatch_unix(),
        cells: plan.len() as u64,
        failures,
        wall_s: stats.wall_s,
        ..Default::default()
    };
    if let Some(tr) = tr {
        let l = &mut rep.layers;
        let roll = stats_layers(&stats, &plan, l);
        journal_layers(&appends.secs, journal_bytes, l);
        l.insert(
            "models.sample_calls".into(),
            source.calls.load(Ordering::Relaxed) as f64,
        );
        l.insert("models.sample_s".into(), source.sample_s());
        l.insert("shard.merge_s".into(), 0.0);
        l.insert("shard.worker_wall_max_s".into(), stats.wall_s);
        l.insert("shard.imbalance".into(), 1.0);
        l.insert("shard.gapfill_cells".into(), 0.0);
        l.insert("record.serialize_s".into(), serialize_s);
        l.insert("report.render_s".into(), render_s);
        rep.summary = summary(tr, &roll, &appends.secs);
    }
    rep
}

/// One shard worker: the steps of `shard::run_shard` (journal, victim
/// pre-scan, own partition, then stealing), composed from its public
/// parts so the benchmark can wrap the candidate source and hook each
/// journal append.
fn run_worker(a: &Args, tr: Option<&Trace>) -> ProcReport {
    let t0 = Instant::now();
    let w = a.workload;
    let cfg = w.config(a.seed);
    let tasks = w.tasks();
    let spec = ShardSpec::new(a.shard, w.shards());
    let cache = PathBuf::from(RECORDS);
    let probe = a.probe.then(|| a.out.clone());
    let (source, salt, plan, wal, runner, owned) = timed(tr, "setup", None, |_| {
        let source = TimedSource::new(&cfg, tr, probe);
        let salt = source.config_salt();
        let plan = eval::plan_for(&cfg, &source, tasks.as_deref());
        let jpath = journal::shard_journal_path(&cache, spec);
        let wal = Journal::create_sourced(&jpath, &cfg, &salt, spec, 0)
            .unwrap_or_else(|e| fail(&format!("cannot create shard journal: {e}")));
        // Victim pre-scan: cells a sibling already finished or claimed.
        let mut owned = plan.shard_with(spec, None);
        let sib = shard::scan_siblings(&cache, &cfg, &salt, spec, 0);
        owned.retain(|c| !sib.done.contains(&c.id.0) && !sib.claimed.contains(&c.id.0));
        let runner = SharedRunner::new(cfg.clone());
        (source, salt, plan, wal, runner, owned)
    });
    let mut appends = AppendLog::new(tr, plan.len());
    let run = timed(tr, "evaluate", None, |span| {
        source.set_parent(span);
        eval::evaluate_cells_priors(
            &cfg,
            &source,
            owned,
            w.jobs(),
            None,
            &runner,
            &Replay::new(),
            |cell, model, rec| appends.append(&wal, span, cell, model, rec),
        )
    });
    let mut stats = run.stats;
    let done: HashSet<u64> = run.cells.iter().map(|(c, _)| c.id.0).collect();
    let steal = timed(tr, "shard.steal", None, |span| {
        source.set_parent(span);
        shard::steal_from_siblings(
            &cache,
            &cfg,
            &salt,
            &plan,
            spec,
            None,
            0,
            &wal,
            w.jobs(),
            done,
            |batch| {
                let fill = eval::evaluate_cells_priors(
                    &cfg,
                    &source,
                    batch,
                    w.jobs(),
                    None,
                    &runner,
                    &Replay::new(),
                    |cell, model, rec| appends.append(&wal, span, cell, model, rec),
                );
                // Runner counters are cumulative, so the latest snapshot
                // wins; cells and measured walls accumulate.
                let mut walls = std::mem::take(&mut stats.cell_walls);
                walls.extend(fill.stats.cell_walls.iter().copied());
                stats = EvalStats {
                    cells: stats.cells + fill.stats.cells,
                    cell_walls: walls,
                    ..fill.stats
                };
            },
        )
    });
    stats.cells_stolen = steal.stolen;
    stats.steal_conflicts = steal.conflicts;
    stats.steal_scans = steal.scans + 1;
    stats.cell_walls.sort_by_key(|w| w.cell);
    stats.wall_s = t0.elapsed().as_secs_f64();
    timed(tr, "shard.stats_write", None, |_| {
        let bytes = serde_json::to_vec(&stats).expect("stats serialize");
        if let Err(e) = write_durable(&shard::shard_stats_path(&cache, spec), &bytes) {
            eprintln!("perfbench: cannot write shard stats: {e}");
        }
    });
    let jpath = journal::shard_journal_path(&cache, spec);
    let mut rep = ProcReport {
        first_dispatch_unix: source.first_dispatch_unix(),
        cells: plan.len() as u64,
        failures: appends.failures + harness_failures(&stats),
        wall_s: stats.wall_s,
        journal_bytes: std::fs::metadata(&jpath).map_or(0, |m| m.len()),
        sample_calls: source.calls.load(Ordering::Relaxed),
        sample_s: source.sample_s(),
        ..Default::default()
    };
    if let Some(tr) = tr {
        let roll = stats_layers(&stats, &plan, &mut rep.layers);
        rep.summary = summary(tr, &roll, &appends.secs);
        rep.append_s = appends.secs;
        rep.journaled = appends.ids;
    }
    rep
}

/// `shard::merge_shards` over the worker journals, then the report.
/// Traced runs fold the workers' reports into the workload's layers.
fn run_merge(a: &Args, tr: Option<&Trace>) -> ProcReport {
    let w = a.workload;
    let cfg = w.config(a.seed);
    let tasks = w.tasks();
    let cache = PathBuf::from(RECORDS);
    let opts = RunOptions::new(2);
    let t_merge = Instant::now();
    let record = timed(tr, "shard.merge", None, |_| {
        shard::merge_shards(Some(&cache), &cfg, &opts, w.shards(), tasks.as_deref())
    });
    let merge_s = t_merge.elapsed().as_secs_f64();
    let stats: EvalStats = std::fs::read(pipeline::stats_path(&cfg))
        .ok()
        .and_then(|b| serde_json::from_slice(&b).ok())
        .unwrap_or_else(|| fail("merge wrote no stats sidecar"));
    let t_rep = Instant::now();
    timed(tr, "report.render", None, |_| render_to_file(&record));
    let render_s = t_rep.elapsed().as_secs_f64();
    let mut rep = ProcReport {
        cells: stats.cells as u64,
        failures: harness_failures(&stats),
        wall_s: merge_s,
        ..Default::default()
    };
    let Some(tr) = tr else { return rep };

    // The merge serializes inside `merge_shards`; time the same
    // serialization of the merged record here.
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let salt = source.config_salt();
    let t_ser = Instant::now();
    tr.time("record.serialize", None, |_| {
        serialize(&record, &stats, &salt)
    });
    let serialize_s = t_ser.elapsed().as_secs_f64();

    let workers: Vec<ProcReport> = a
        .workers
        .iter()
        .map(|p| {
            std::fs::read(p)
                .ok()
                .and_then(|b| serde_json::from_slice(&b).ok())
                .unwrap_or_else(|| fail(&format!("cannot read worker report {p:?}")))
        })
        .collect();
    let plan = eval::plan_for(&cfg, &source, tasks.as_deref());
    let l = &mut rep.layers;
    let roll = stats_layers(&stats, &plan, l);
    let append_s: Vec<f64> = workers
        .iter()
        .flat_map(|r| r.append_s.iter().copied())
        .collect();
    journal_layers(&append_s, workers.iter().map(|r| r.journal_bytes).sum(), l);
    let journaled: HashSet<u64> = workers
        .iter()
        .flat_map(|r| r.journaled.iter().copied())
        .collect();
    let walls: Vec<f64> = workers.iter().map(|r| r.wall_s).collect();
    let max_wall = walls.iter().copied().fold(0.0, f64::max);
    let mean_wall = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    l.insert(
        "models.sample_calls".into(),
        workers.iter().map(|r| r.sample_calls as f64).sum(),
    );
    l.insert(
        "models.sample_s".into(),
        workers.iter().map(|r| r.sample_s).sum(),
    );
    l.insert("shard.merge_s".into(), merge_s);
    l.insert("shard.worker_wall_max_s".into(), max_wall);
    l.insert("shard.imbalance".into(), ratio(max_wall, mean_wall));
    l.insert(
        "shard.gapfill_cells".into(),
        plan.len().saturating_sub(journaled.len()) as f64,
    );
    l.insert("record.serialize_s".into(), serialize_s);
    l.insert("report.render_s".into(), render_s);
    let mut s = String::new();
    for (i, r) in workers.iter().enumerate() {
        s += &format!("--- worker {i} ({:.3}s)\n{}", r.wall_s, r.summary);
    }
    s += "--- merge\n";
    s += &summary(tr, &roll, &append_s);
    rep.summary = s;
    rep
}

/// Check the committed records: every plan cell present, every verdict
/// what its candidate kind implies, and the fingerprint equal to the
/// pinned one when this workload and seed are pinned.
fn run_check(a: &Args) -> ProcReport {
    let w = a.workload;
    let cfg = w.config(a.seed);
    let bytes = std::fs::read(RECORDS).unwrap_or_else(|e| fail(&format!("no records: {e}")));
    let record: EvalRecord =
        serde_json::from_slice(&bytes).unwrap_or_else(|e| fail(&format!("bad records: {e}")));
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let plan = eval::plan_for(&cfg, &source, w.tasks().as_deref());
    let found = analysis::oracle(&cfg, &source, &plan, &record);
    let fp = analysis::fingerprint(&record);
    let pins: Pins = match &a.pins {
        Some(p) => std::fs::read(p)
            .ok()
            .and_then(|b| serde_json::from_slice(&b).ok())
            .unwrap_or_else(|| fail(&format!("cannot read pins {p:?}"))),
        None => Pins::new(),
    };
    let mut problems = found.examples.clone();
    if record.config != cfg {
        problems.push("records carry a different config".into());
    }
    let pin = match analysis::check_pin(&pins, w.name(), a.seed, &fp) {
        PinCheck::Match => "match".to_string(),
        PinCheck::Unpinned => "unpinned".to_string(),
        PinCheck::Mismatch { pinned } => {
            problems.push(format!("fingerprint {fp} differs from the pinned {pinned}"));
            "mismatch".to_string()
        }
    };
    ProcReport {
        cells: plan.len() as u64,
        fingerprint: fp,
        pin,
        missing: found.missing,
        mismatches: found.mismatches,
        problems,
        ..Default::default()
    }
}
