//! Candidate execution: build, run (with a time limit), validate
//! against the baseline, check parallel-API usage, and time.
//!
//! Executions are shared by `(task, executed kind, n)`: a synthetic
//! model's candidate artifact is fully determined by its kind, so
//! distinct samples (and distinct models) sharing a kind share one
//! execution — the analog of the paper's per-sample compile-and-run,
//! minus redundant recompilation of byte-identical generations. A
//! wrong-output candidate is the efficient parallel path with a
//! corrupted result (`pcg_problems::corrupt::executed_kind`), so one
//! efficient execution at a `(task, n)` point serves the efficient
//! sample and all four corruption modes: when it finishes, every mode's
//! corrupted output is validated against the baseline and the output is
//! dropped. Only the verdicts are kept.
//!
//! [`SharedRunner`] is the concurrent form used by the parallel
//! scheduler: many evaluation cells call into one runner at once, and
//! each distinct execution happens exactly once (`OnceLock` per
//! execution key — concurrent requesters for the same key block on the
//! first initializer instead of duplicating work). All caching is keyed
//! by task coordinates, never by worker identity, so results are
//! byte-identical whatever the worker count. [`Runner`] remains as the
//! serial facade over the same machinery.

use crate::config::EvalConfig;
use crate::record::EvalStats;
use crate::scheduler::panic_message;
use pcg_core::cancel::{self, CancelToken};
use pcg_core::usage::UsageScope;
use pcg_core::{warm, CandidateKind, Output, PcgError, ProblemId, TaskId};
use pcg_problems::corrupt;
use pcg_problems::input_cache::{self, InputCacheStats};
use pcg_problems::lease::{self, LeaseStats};
use pcg_problems::registry;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

/// A measured, validated candidate execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether the candidate built.
    pub built: bool,
    /// Fully correct: built, ran in time, validated, used its API.
    pub correct: bool,
    /// Candidate runtime in seconds (virtual or measured; meaningful
    /// only when correct).
    pub seconds: f64,
    /// Failure code (`PcgError::code`-style) when not correct.
    pub error: Option<String>,
}

/// One execution and the verdicts scored from it: its own kind's
/// outcome first, then one per kind derived from its output
/// (`corrupt::derived_kinds`). The output itself is not retained.
#[derive(Debug)]
struct Execution {
    verdicts: Vec<(CandidateKind, Outcome)>,
    /// The final attempt hard-failed (worker panic or wall-clock
    /// timeout); every verdict then carries that failure.
    hard: bool,
}

impl Execution {
    /// Every kind served by an execution of `executed` gets `outcome`.
    fn uniform(executed: CandidateKind, outcome: Outcome, hard: bool) -> Execution {
        let verdicts = std::iter::once(executed)
            .chain(corrupt::derived_kinds(executed))
            .map(|k| (k, outcome.clone()))
            .collect();
        Execution { verdicts, hard }
    }

    fn verdict(&self, kind: CandidateKind) -> &Outcome {
        &self.verdicts.iter().find(|(k, _)| *k == kind).expect("kind served by this execution").1
    }
}

/// The sequential baseline for a problem at the configured size.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Oracle output, shared by every candidate validation of the
    /// problem (some oracle outputs are megabytes; cloning one per
    /// execution was measurable).
    pub output: Arc<Output>,
    /// Best-of-reps baseline runtime in seconds.
    pub seconds: f64,
}

/// Monotone execution counters kept by [`SharedRunner`]. Stage times are
/// summed across workers, so under `--jobs N` they can exceed wall
/// clock — they answer "where did the compute go", not "how long did I
/// wait".
#[derive(Debug, Default)]
struct Counters {
    executions: AtomicU64,
    cache_hits: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    abandoned: AtomicU64,
    retries: AtomicU64,
    flaky: AtomicU64,
    baseline_ns: AtomicU64,
    run_ns: AtomicU64,
    validate_ns: AtomicU64,
}

/// One hostile candidate: it hard-failed (worker panic or wall-clock
/// timeout) on every attempt it was given. Recorded in the stats
/// sidecar so repeat offenders can be audited after a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The task the candidate was generated for.
    pub task: TaskId,
    /// Stable candidate-kind code (`CandidateKind::code`).
    pub kind: String,
    /// The resource count of the execution.
    pub n: u32,
    /// The final failure code (`"panic"` or `"timeout"`).
    pub error: String,
}

impl QuarantineEntry {
    /// The deterministic order of quarantine lists: task, then kind
    /// code, then resource count. Entries equal under it are one entry
    /// when lists are merged.
    pub(crate) fn cmp_key(&self, other: &QuarantineEntry) -> CmpOrdering {
        self.task
            .cmp(&other.task)
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.n.cmp(&other.n))
    }
}

/// Tracks worker threads that were abandoned (leaked) after ignoring
/// cooperative cancellation past the grace period. Spawning blocks
/// while the live-leak count is at the cap, so a flood of hostile
/// candidates cannot exhaust the process's thread budget.
#[derive(Default)]
struct LeakTracker {
    live: Mutex<usize>,
    cv: Condvar,
    /// Latched when the leak budget was ever exhausted (a spawner had
    /// to block). Surfaced as `leak_budget_exhausted` in the stats
    /// sidecar and loudly in report output — exhaustion silently
    /// degrading throughput is how leak storms used to go unnoticed.
    exhausted: AtomicBool,
}

impl LeakTracker {
    fn add(&self) {
        *self.live.lock() += 1;
    }

    /// An abandoned worker finally unwound; free its slot.
    fn remove(&self) {
        let mut n = self.live.lock();
        *n = n.saturating_sub(1);
        drop(n);
        self.cv.notify_all();
    }

    fn wait_below(&self, cap: usize) {
        let cap = cap.max(1);
        let mut n = self.live.lock();
        while *n >= cap {
            if !self.exhausted.swap(true, Ordering::AcqRel) {
                eprintln!(
                    "pcg-harness: abandoned-worker budget exhausted \
                     ({cap} leaked threads live); blocking new isolated \
                     workers until leaks unwind — raise max_abandoned or \
                     investigate hostile candidates"
                );
            }
            self.cv.wait(&mut n);
        }
    }

    /// Whether the budget was ever exhausted.
    fn was_exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Acquire)
    }

    fn live(&self) -> usize {
        *self.live.lock()
    }
}

/// Supervisor/worker handshake for one isolated execution, deciding —
/// race-free — which side accounts for the worker thread's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handshake {
    /// The worker is still inside the candidate body.
    Running,
    /// The worker completed (normally or by unwinding) in time.
    Done,
    /// The supervisor gave up on the worker; the worker must release
    /// its leak slot itself if it ever unwinds.
    Abandoned,
}

/// What the supervisor observed about one isolated execution.
enum WorkerFate<M> {
    /// The worker reported back within the time limit.
    Finished(M),
    /// The worker blew the time limit. It was cancelled and either
    /// unwound within the grace period (counted `cancelled`) or was
    /// abandoned (counted `abandoned`); the caller need not care which
    /// — the outcome is `timeout` either way, so records stay
    /// byte-identical whatever the race resolution.
    TimedOut,
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// One supervised execution, run on a pooled worker thread. Returns
/// whether the worker may be reused: `false` retires the thread (it was
/// abandoned mid-candidate, or its job unwound unexpectedly).
type SupJob = Box<dyn FnOnce() -> bool + Send>;

/// Persistent pool of supervisor worker threads, replacing
/// thread-spawn-per-execution on the warm path. Workers park on a
/// condvar between candidates; a submission wakes an idle worker or
/// spawns one when none is parked. The pool never caps concurrency —
/// isolation semantics (timeout, cancel, grace, abandonment) are
/// unchanged, only the spawn is amortized. An abandoned worker retires
/// itself after its candidate finally unwinds (consuming a leak slot
/// exactly as before), so a poisoned thread never serves another
/// candidate.
#[derive(Default)]
struct SupervisorPool {
    state: Mutex<SupPoolState>,
    cv: Condvar,
}

#[derive(Default)]
struct SupPoolState {
    queue: VecDeque<SupJob>,
    idle: usize,
    shutdown: bool,
}

impl SupervisorPool {
    /// Hand `job` to an idle worker, or spawn a fresh one when none is
    /// parked. Executions are long-running, so waking an *about to be
    /// busy* worker is the failure mode to avoid: when the race is
    /// ambiguous we over-spawn (the extra worker parks afterwards)
    /// rather than queue behind a busy thread.
    fn submit(self: &Arc<Self>, job: SupJob) {
        let spawn_new = {
            let mut st = self.state.lock();
            st.queue.push_back(job);
            st.idle < st.queue.len()
        };
        if spawn_new {
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name("pcg-supervised".into())
                .spawn(move || pool.worker_loop())
                .expect("spawn supervised worker");
        } else {
            self.cv.notify_one();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st.idle += 1;
                    self.cv.wait(&mut st);
                    st.idle -= 1;
                }
            };
            // Jobs capture their own panics; treat an unwind here as a
            // poisoned worker and retire it.
            let reusable = catch_unwind(AssertUnwindSafe(job)).unwrap_or(false);
            if !reusable {
                return;
            }
        }
    }

    /// Ask parked workers to exit. In-flight jobs finish normally; their
    /// workers observe the flag when they next look for work.
    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
    }
}

/// Warm-path counter snapshot taken at runner construction, so the
/// runner can report per-evaluation deltas of the process-global lease
/// and input-cache statistics.
struct WarmBase {
    lease: LeaseStats,
    input: InputCacheStats,
    sched: pcg_mpisim::SchedStats,
}

/// A compute-once cache slot: concurrent requesters for the same key
/// block on the first initializer instead of duplicating the work.
type OnceCell<T> = Arc<OnceLock<T>>;

/// Thread-safe caching candidate runner, shared by all scheduler
/// workers of one evaluation.
pub struct SharedRunner {
    cfg: EvalConfig,
    baselines: Mutex<HashMap<ProblemId, OnceCell<Baseline>>>,
    executions: Mutex<HashMap<(TaskId, CandidateKind, u32), OnceCell<Execution>>>,
    counters: Counters,
    /// Keyed like [`QuarantineEntry::cmp_key`], by the requested kind's
    /// code: the corruption modes served by one hard-failed execution
    /// share the code `"wrong"` and the failure, so they are one entry,
    /// as they are after [`EvalStats::merge`].
    quarantined: Mutex<HashMap<(TaskId, &'static str, u32), QuarantineEntry>>,
    leaks: Arc<LeakTracker>,
    supervisors: Arc<SupervisorPool>,
    warm_base: WarmBase,
}

impl SharedRunner {
    /// A fresh runner for one evaluation.
    pub fn new(cfg: EvalConfig) -> SharedRunner {
        SharedRunner {
            cfg,
            baselines: Mutex::new(HashMap::new()),
            executions: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            quarantined: Mutex::new(HashMap::new()),
            leaks: Arc::new(LeakTracker::default()),
            supervisors: Arc::new(SupervisorPool::default()),
            warm_base: WarmBase {
                lease: lease::stats(),
                input: input_cache::stats(),
                sched: pcg_mpisim::sched::stats(),
            },
        }
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    fn baseline_cell(&self, problem: ProblemId) -> OnceCell<Baseline> {
        self.baselines
            .lock()
            .entry(problem)
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    }

    /// Read the baseline for `problem` (measured on first use) without
    /// cloning its output.
    pub fn with_baseline<R>(&self, problem: ProblemId, f: impl FnOnce(&Baseline) -> R) -> R {
        let cell = self.baseline_cell(problem);
        let baseline = cell.get_or_init(|| {
            let t0 = Instant::now();
            let measured = self.measure_baseline(problem);
            add_ns(&self.counters.baseline_ns, t0);
            measured
        });
        f(baseline)
    }

    /// Best-of-reps baseline seconds for `problem`.
    pub fn baseline_seconds(&self, problem: ProblemId) -> f64 {
        self.with_baseline(problem, |b| b.seconds)
    }

    fn measure_baseline(&self, problem: ProblemId) -> Baseline {
        let p = registry::problem(problem);
        let size = self.cfg.size_for(p.default_size());
        let mut best = f64::INFINITY;
        let mut output = None;
        for _ in 0..self.cfg.reps.max(1) {
            let run = p.run_baseline(self.cfg.seed, size);
            best = best.min(run.seconds);
            output = Some(run.output);
        }
        Baseline { output: Arc::new(output.expect("at least one rep")), seconds: best }
    }

    /// Execute (or fetch the shared execution of) one candidate.
    ///
    /// The request resolves to the execution of its executed kind at the
    /// same `(task, n)`, which runs only if no one has run it yet.
    /// Executions that hard-fail (worker panic or wall-clock timeout —
    /// not candidates that merely *report* a failure) are retried once
    /// when `cfg.retry_flaky` is set; every requested kind whose
    /// execution hard-fails its final attempt is quarantined under its
    /// own kind code, once per code. Retry happens inside the cache initializer, so
    /// concurrent requesters still observe exactly one (possibly
    /// retried) execution sequence per key.
    pub fn outcome(&self, task: TaskId, kind: CandidateKind, n: u32) -> Outcome {
        let executed = corrupt::executed_kind(kind);
        let cell = {
            let mut map = self.executions.lock();
            map.entry((task, executed, n)).or_insert_with(|| Arc::new(OnceLock::new())).clone()
        };
        let mut fresh = false;
        let exec = cell.get_or_init(|| {
            fresh = true;
            let baseline_output = self.with_baseline(task.problem, |b| b.output.clone());
            let first = self.execute(task, executed, n, &baseline_output);
            if !first.hard || !self.cfg.retry_flaky {
                return first;
            }
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            let second = self.execute(task, executed, n, &baseline_output);
            if !second.hard {
                self.counters.flaky.fetch_add(1, Ordering::Relaxed);
            }
            second
        });
        if !fresh {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let out = exec.verdict(kind).clone();
        if exec.hard {
            self.quarantined.lock().entry((task, kind.code(), n)).or_insert_with(|| QuarantineEntry {
                task,
                kind: kind.code().to_string(),
                n,
                error: out.error.clone().unwrap_or_else(|| "unknown".into()),
            });
        }
        out
    }

    /// The `T*/T` performance ratio of one candidate (0 when incorrect).
    pub fn ratio(&self, task: TaskId, kind: CandidateKind, n: u32) -> f64 {
        let base = self.baseline_seconds(task.problem);
        let out = self.outcome(task, kind, n);
        if out.correct && out.seconds > 0.0 {
            base / out.seconds
        } else {
            0.0
        }
    }

    /// Run `work` on a dedicated worker thread with a cancel token
    /// installed, and supervise it against the configured time limit.
    ///
    /// On timeout the token is cancelled and the worker gets
    /// `cfg.grace` to unwind cooperatively (every substrate checks the
    /// token at its blocking points); a worker that ignores the token —
    /// e.g. a raw `sleep` — is abandoned, which consumes one leak slot
    /// until the thread eventually unwinds. Spawning blocks while
    /// `cfg.max_abandoned` leak slots are consumed, so hostile
    /// candidates degrade throughput instead of exhausting threads.
    fn supervise<M: Send + 'static>(
        &self,
        work: impl FnOnce() -> M + Send + 'static,
    ) -> WorkerFate<M> {
        self.leaks.wait_below(self.cfg.max_abandoned);
        let token = CancelToken::new();
        let worker_token = token.clone();
        let handshake = Arc::new(Mutex::new(Handshake::Running));
        let worker_hs = Arc::clone(&handshake);
        let tracker = Arc::clone(&self.leaks);
        let (tx, rx) = mpsc::channel();
        let job: SupJob = Box::new(move || {
            // Install the candidate's token as a guard: it is restored
            // on return, so a reused worker never carries a stale token
            // into the next candidate.
            let _cancel = cancel::install_token(Some(worker_token));
            let out = work();
            // Finalize the handshake before reporting back: if the
            // supervisor observes `Running`, the candidate body is
            // guaranteed not to have completed.
            let reusable = {
                let mut hs = worker_hs.lock();
                if *hs == Handshake::Abandoned {
                    tracker.remove();
                    // This thread blew past its grace period once;
                    // retire it rather than trust it with another
                    // candidate.
                    false
                } else {
                    *hs = Handshake::Done;
                    true
                }
            };
            let _ = tx.send(out);
            reusable
        });
        if warm::enabled() {
            self.supervisors.submit(job);
        } else {
            std::thread::spawn(move || {
                let _ = job();
            });
        }
        match rx.recv_timeout(self.cfg.timeout) {
            Ok(m) => WorkerFate::Finished(m),
            Err(_) => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                token.cancel();
                match rx.recv_timeout(self.cfg.grace) {
                    Ok(_) => {
                        // Unwound cooperatively; the late result is
                        // discarded — the outcome is already "timeout".
                        self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        let mut hs = handshake.lock();
                        if *hs == Handshake::Running {
                            *hs = Handshake::Abandoned;
                            self.leaks.add();
                            self.counters.abandoned.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // Finished in the race window between the
                            // grace timeout and taking the lock.
                            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                WorkerFate::TimedOut
            }
        }
    }

    /// Execute one candidate kind and score it and every kind derived
    /// from its output. `hard` is set when the execution hard-failed at
    /// the harness level (worker panic or wall-clock timeout) — the
    /// signal for retry/quarantine — as opposed to a candidate that
    /// merely *reported* a failure (e.g. the virtual
    /// `CandidateKind::Timeout`, which returns instantly).
    fn execute(
        &self,
        task: TaskId,
        kind: CandidateKind,
        n: u32,
        baseline_output: &Output,
    ) -> Execution {
        let problem = registry::problem(task.problem);
        let size = self.cfg.size_for(problem.default_size());
        let seed = self.cfg.seed;
        let reps = if matches!(kind, CandidateKind::Correct(_)) { self.cfg.reps.max(1) } else { 1 };
        self.counters.executions.fetch_add(1, Ordering::Relaxed);

        // Run on a worker thread so a runaway candidate can be cancelled
        // (and, failing that, abandoned) at the time limit — the paper's
        // 3-minute kill. Panics inside the candidate are captured on
        // that thread — distinguishable from a hang.
        let t_run = Instant::now();
        let fate = self.supervise(move || {
            let scope = UsageScope::begin();
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut best = f64::INFINITY;
                let mut last = None;
                for _ in 0..reps {
                    let run = problem.run_candidate(task.model, kind, n, seed, size);
                    match &run {
                        Ok(r) => best = best.min(r.seconds),
                        Err(_) => {
                            last = Some(run);
                            break;
                        }
                    }
                    last = Some(run);
                }
                (last.expect("at least one rep ran"), best)
            }))
            .map_err(|p| panic_message(&*p));
            let usage = scope.finish();
            (body, usage)
        });
        add_ns(&self.counters.run_ns, t_run);
        let failed = |error: &str| Outcome {
            built: true,
            correct: false,
            seconds: f64::INFINITY,
            error: Some(error.into()),
        };
        let (body, usage) = match fate {
            WorkerFate::Finished(v) => v,
            WorkerFate::TimedOut => return Execution::uniform(kind, failed("timeout"), true),
        };

        let (result, best) = match body {
            Ok(v) => v,
            Err(_panic_msg) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                return Execution::uniform(kind, failed("panic"), true);
            }
        };

        let run = match result {
            Err(PcgError::BuildFailure(_)) => {
                let nobuild = Outcome { built: false, ..failed("build") };
                return Execution::uniform(kind, nobuild, false);
            }
            Err(e) => return Execution::uniform(kind, failed(e.code()), false),
            Ok(run) => run,
        };

        let t_val = Instant::now();
        let used_api = usage.used_required_api(task.model);
        let validate = |output: &Output| {
            let error = if !output.approx_eq(baseline_output) {
                Some("wrong".into())
            } else if !used_api {
                Some("sequential".into())
            } else {
                None
            };
            Outcome { built: true, correct: error.is_none(), seconds: best, error }
        };
        let mut verdicts = vec![(kind, validate(&run.output))];
        for derived in corrupt::derived_kinds(kind) {
            let output = corrupt::derive(derived, run.output.clone(), self.cfg.seed);
            verdicts.push((derived, validate(&output)));
        }
        add_ns(&self.counters.validate_ns, t_val);
        Execution { verdicts, hard: false }
    }

    /// Run an arbitrary closure through the same isolation machinery a
    /// candidate gets: dedicated worker thread with a cancel token
    /// installed, panic capture, and timeout cancellation (grace
    /// period, then abandonment) at `config().timeout`. Used by the
    /// substrate conformance tests to prove that a hostile candidate
    /// (hang or panic on any substrate) cannot wedge an evaluation
    /// worker.
    pub fn run_isolated<R, F>(&self, f: F) -> Outcome
    where
        R: Send + 'static,
        F: FnOnce() -> Result<R, PcgError> + Send + 'static,
    {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        let t_run = Instant::now();
        let fate = self.supervise(move || {
            let t0 = Instant::now();
            let body = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p));
            (body, t0.elapsed().as_secs_f64())
        });
        add_ns(&self.counters.run_ns, t_run);
        match fate {
            WorkerFate::TimedOut => Outcome {
                built: true,
                correct: false,
                seconds: f64::INFINITY,
                error: Some("timeout".into()),
            },
            WorkerFate::Finished((Err(_panic), _)) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Outcome {
                    built: true,
                    correct: false,
                    seconds: f64::INFINITY,
                    error: Some("panic".into()),
                }
            }
            WorkerFate::Finished((Ok(Err(e)), _)) => Outcome {
                built: !matches!(e, PcgError::BuildFailure(_)),
                correct: false,
                seconds: f64::INFINITY,
                error: Some(e.code().to_string()),
            },
            WorkerFate::Finished((Ok(Ok(_)), secs)) => {
                Outcome { built: true, correct: true, seconds: secs, error: None }
            }
        }
    }

    /// Abandoned worker threads that have not yet unwound.
    pub fn leaked_workers(&self) -> usize {
        self.leaks.live()
    }

    /// Snapshot every [`EvalStats`] field this runner owns: the
    /// execution counters, the baseline/run/validate seconds (summed
    /// across workers, so under `--jobs N` they can exceed wall clock),
    /// the lease, input-cache and mpisim deltas since the runner was
    /// created, the leak-budget flag and the quarantine list (sorted
    /// deterministically — outcome caching makes insertion order
    /// scheduling-dependent). Counters are cumulative over the runner's
    /// life. Every other field is left at its default for the caller.
    pub fn stats(&self) -> EvalStats {
        let c = &self.counters;
        let count = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let secs = |a: &AtomicU64| count(a) as f64 / 1e9;
        let base = &self.warm_base;
        let lease = lease::stats();
        let input = input_cache::stats();
        let sched = pcg_mpisim::sched::stats();
        let mut quarantined: Vec<_> = self.quarantined.lock().values().cloned().collect();
        quarantined.sort_by(QuarantineEntry::cmp_key);
        EvalStats {
            executions: count(&c.executions),
            cache_hits: count(&c.cache_hits),
            panics: count(&c.panics),
            timeouts: count(&c.timeouts),
            cancelled: count(&c.cancelled),
            abandoned: count(&c.abandoned),
            retries: count(&c.retries),
            flaky: count(&c.flaky),
            quarantined,
            baseline_s: secs(&c.baseline_ns),
            run_s: secs(&c.run_ns),
            validate_s: secs(&c.validate_ns),
            lease_hits: lease.hits.saturating_sub(base.lease.hits),
            lease_misses: lease.misses.saturating_sub(base.lease.misses),
            pools_poisoned: lease.poisoned.saturating_sub(base.lease.poisoned),
            input_cache_hits: input.hits.saturating_sub(base.input.hits),
            pool_setup_s: (lease.setup_s - base.lease.setup_s).max(0.0),
            ranks_multiplexed: sched.ranks_multiplexed.saturating_sub(base.sched.ranks_multiplexed),
            bytes_zero_copied: sched.bytes_zero_copied.saturating_sub(base.sched.bytes_zero_copied),
            deadlocks_detected: sched
                .deadlocks_detected
                .saturating_sub(base.sched.deadlocks_detected),
            stack_overflows_caught: sched
                .stack_overflows_caught
                .saturating_sub(base.sched.stack_overflows_caught),
            guard_faults: sched.guard_faults.saturating_sub(base.sched.guard_faults),
            leak_budget_exhausted: self.leaks.was_exhausted(),
            ..EvalStats::default()
        }
    }
}

impl Drop for SharedRunner {
    fn drop(&mut self) {
        // Release parked supervisor workers; in-flight executions (and
        // abandoned ones) keep their own `Arc` to the pool and exit
        // after their current job.
        self.supervisors.shutdown();
    }
}

/// Caching candidate runner (serial facade over [`SharedRunner`]).
pub struct Runner {
    shared: SharedRunner,
}

impl Runner {
    /// A fresh runner for one evaluation.
    pub fn new(cfg: EvalConfig) -> Runner {
        Runner { shared: SharedRunner::new(cfg) }
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        self.shared.config()
    }

    /// The underlying shared runner.
    pub fn shared(&self) -> &SharedRunner {
        &self.shared
    }

    /// The baseline for `problem`, measured on first use.
    pub fn baseline(&mut self, problem: ProblemId) -> Baseline {
        self.shared.with_baseline(problem, Baseline::clone)
    }

    /// Execute (or fetch the cached execution of) one candidate.
    pub fn outcome(&mut self, task: TaskId, kind: CandidateKind, n: u32) -> Outcome {
        self.shared.outcome(task, kind, n)
    }

    /// The `T*/T` performance ratio of one candidate (0 when incorrect).
    pub fn ratio(&mut self, task: TaskId, kind: CandidateKind, n: u32) -> f64 {
        self.shared.ratio(task, kind, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemType, Quality};
    use std::time::Duration;

    fn mk_task(model: ExecutionModel) -> TaskId {
        pcg_core::ProblemId::new(ProblemType::Transform, 0).task(model)
    }

    fn runner() -> Runner {
        Runner::new(EvalConfig::smoke())
    }

    #[test]
    fn correct_candidate_validates() {
        let mut r = runner();
        let out = r.outcome(
            mk_task(ExecutionModel::OpenMp),
            CandidateKind::Correct(Quality::Efficient),
            4,
        );
        assert!(out.built && out.correct, "{out:?}");
        assert!(r.ratio(mk_task(ExecutionModel::OpenMp), CandidateKind::Correct(Quality::Efficient), 4) > 0.0);
    }

    #[test]
    fn failure_kinds_map_to_codes() {
        let mut r = runner();
        let t = mk_task(ExecutionModel::OpenMp);
        let build = r.outcome(t, CandidateKind::BuildFailure, 4);
        assert!(!build.built && !build.correct);
        assert_eq!(build.error.as_deref(), Some("build"));

        let crash = r.outcome(t, CandidateKind::RuntimeCrash, 4);
        assert!(crash.built && !crash.correct);
        assert_eq!(crash.error.as_deref(), Some("runtime"));

        let timeout = r.outcome(t, CandidateKind::Timeout, 4);
        assert!(!timeout.correct);
        assert_eq!(timeout.error.as_deref(), Some("timeout"));

        let wrong = r.outcome(
            t,
            CandidateKind::WrongOutput(pcg_core::Corruption::PerturbElement),
            4,
        );
        assert!(wrong.built && !wrong.correct);
        assert_eq!(wrong.error.as_deref(), Some("wrong"));
        assert_eq!(r.ratio(t, CandidateKind::WrongOutput(pcg_core::Corruption::PerturbElement), 4), 0.0);
    }

    #[test]
    fn sequential_fallback_flagged_only_for_parallel_tasks() {
        let mut r = runner();
        let par = r.outcome(mk_task(ExecutionModel::Kokkos), CandidateKind::SequentialFallback, 4);
        assert!(!par.correct);
        assert_eq!(par.error.as_deref(), Some("sequential"));

        let ser = r.outcome(mk_task(ExecutionModel::Serial), CandidateKind::SequentialFallback, 1);
        assert!(ser.correct, "serial prompts cannot fail the usage check");
    }

    #[test]
    fn outcomes_are_cached() {
        let mut r = runner();
        let t = mk_task(ExecutionModel::Cuda);
        let a = r.outcome(t, CandidateKind::Correct(Quality::Efficient), 0);
        let hits_before = r.shared().stats().cache_hits;
        let b = r.outcome(t, CandidateKind::Correct(Quality::Efficient), 0);
        assert_eq!(a.seconds, b.seconds, "second call must be the cached run");
        assert_eq!(r.shared().stats().cache_hits, hits_before + 1);
    }

    #[test]
    fn inefficient_candidate_is_slower() {
        let mut r = runner();
        let t = mk_task(ExecutionModel::OpenMp);
        let eff = r.ratio(t, CandidateKind::Correct(Quality::Efficient), 8);
        let ineff = r.ratio(t, CandidateKind::Correct(Quality::Inefficient), 8);
        assert!(eff > 0.0 && ineff > 0.0);
        // The lopsided candidate cannot beat the balanced one by much;
        // allow noise but expect a clear ordering at 8 threads.
        assert!(ineff < eff * 1.5, "eff={eff} ineff={ineff}");
    }

    #[test]
    fn isolated_panic_is_captured_not_propagated() {
        let r = SharedRunner::new(EvalConfig::smoke());
        let out = r.run_isolated::<(), _>(|| panic!("candidate exploded"));
        assert!(!out.correct);
        assert_eq!(out.error.as_deref(), Some("panic"));
        assert_eq!(r.stats().panics, 1);
        // The runner is still serviceable after a panic.
        let ok = r.run_isolated(|| Ok::<_, PcgError>(42));
        assert!(ok.correct, "{ok:?}");
    }

    #[test]
    fn isolated_hang_is_abandoned_at_the_limit() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(50);
        cfg.grace = Duration::from_millis(50);
        let r = SharedRunner::new(cfg);
        // A raw sleep never observes the cancel token, so after the
        // grace period the worker must be abandoned, not cancelled.
        let out = r.run_isolated(|| {
            std::thread::sleep(Duration::from_secs(30));
            Ok::<_, PcgError>(())
        });
        assert!(!out.correct);
        assert_eq!(out.error.as_deref(), Some("timeout"));
        let stats = r.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(r.leaked_workers(), 1, "the sleeper holds a leak slot");
    }

    #[test]
    fn cancelled_worker_unwinds_within_grace_without_abandonment() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(50);
        cfg.grace = Duration::from_secs(10);
        let r = SharedRunner::new(cfg);
        // A cooperative hang: spins on the cancel token the way every
        // substrate's blocking points do.
        let out = r.run_isolated::<(), _>(|| loop {
            pcg_core::cancel::check_current();
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(!out.correct);
        assert_eq!(out.error.as_deref(), Some("timeout"));
        let stats = r.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.abandoned, 0, "cooperative unwind must not leak");
        assert_eq!(r.leaked_workers(), 0);
    }

    #[test]
    fn abandonment_cap_blocks_until_a_leaked_worker_unwinds() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(20);
        cfg.grace = Duration::from_millis(20);
        cfg.max_abandoned = 1;
        let r = SharedRunner::new(cfg);
        // First hostile candidate: sleeps past timeout+grace, gets
        // abandoned, and occupies the single leak slot for ~150ms.
        let out = r.run_isolated(|| {
            std::thread::sleep(Duration::from_millis(150));
            Ok::<_, PcgError>(())
        });
        assert_eq!(out.error.as_deref(), Some("timeout"));
        assert_eq!(r.stats().abandoned, 1);
        assert!(
            !r.stats().leak_budget_exhausted,
            "abandonment alone must not trip the flag — only blocking does"
        );
        // Second execution must wait for the slot, then run normally.
        let t0 = std::time::Instant::now();
        let ok = r.run_isolated(|| Ok::<_, PcgError>(1));
        assert!(ok.correct, "{ok:?}");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "spawn should have blocked on the leak cap"
        );
        assert_eq!(r.leaked_workers(), 0, "the sleeper released its slot on unwind");
        assert!(
            r.stats().leak_budget_exhausted,
            "blocking on the exhausted budget must latch the sidecar flag"
        );
    }

    const MODES: [CandidateKind; 4] = [
        CandidateKind::WrongOutput(pcg_core::Corruption::PerturbElement),
        CandidateKind::WrongOutput(pcg_core::Corruption::OffByOneShift),
        CandidateKind::WrongOutput(pcg_core::Corruption::Truncate),
        CandidateKind::WrongOutput(pcg_core::Corruption::WrongScale),
    ];

    #[test]
    fn derived_wrong_output_verdicts_match_direct_execution() {
        let r = SharedRunner::new(EvalConfig::smoke());
        let cfg = r.config().clone();
        let mut points = 0;
        for ptype in ProblemType::ALL {
            for model in [ExecutionModel::Mpi, ExecutionModel::OpenMp] {
                let task = pcg_core::ProblemId::new(ptype, 0).task(model);
                let problem = registry::problem(task.problem);
                let size = cfg.size_for(problem.default_size());
                let baseline = r.with_baseline(task.problem, |b| b.output.clone());
                for n in [1, 3, 8] {
                    points += 1;
                    for kind in MODES {
                        let shared = r.outcome(task, kind, n);
                        // Reference: run the wrong-output candidate on
                        // its own and validate its output.
                        let scope = UsageScope::begin();
                        let run = problem.run_candidate(model, kind, n, cfg.seed, size);
                        let usage = scope.finish();
                        let direct = match run {
                            Err(e) => {
                                (!matches!(e, PcgError::BuildFailure(_)), false, Some(e.code()))
                            }
                            Ok(run) if !run.output.approx_eq(&baseline) => {
                                (true, false, Some("wrong"))
                            }
                            Ok(_) if !usage.used_required_api(model) => {
                                (true, false, Some("sequential"))
                            }
                            Ok(_) => (true, true, None),
                        };
                        assert_eq!(
                            (shared.built, shared.correct, shared.error.as_deref()),
                            direct,
                            "{task:?} {kind:?} n={n}"
                        );
                    }
                }
            }
        }
        assert_eq!(r.stats().executions, points, "one efficient execution per (task, n)");
    }

    #[test]
    fn one_execution_serves_efficient_and_every_corruption_mode() {
        let t = mk_task(ExecutionModel::Mpi);
        let eff = CandidateKind::Correct(Quality::Efficient);
        for efficient_first in [true, false] {
            let r = SharedRunner::new(EvalConfig::smoke());
            let mut kinds = MODES.to_vec();
            if efficient_first {
                kinds.insert(0, eff);
            } else {
                kinds.push(eff);
            }
            for kind in kinds {
                let out = r.outcome(t, kind, 4);
                assert_eq!(out.correct, kind == eff, "{kind:?}: {out:?}");
            }
            let stats = r.stats();
            assert_eq!(stats.executions, 1, "efficient_first={efficient_first}");
            assert_eq!(stats.cache_hits, 4);
        }
    }

    #[test]
    fn hard_failed_shared_execution_quarantines_every_requested_kind() {
        // A 64-rank graph world cannot finish within a microsecond, so
        // the shared efficient execution times out (and is cancelled
        // cooperatively within the generous grace period).
        let t = pcg_core::ProblemId::new(ProblemType::Graph, 0).task(ExecutionModel::Mpi);
        let n = 64;
        let entry = |kind: CandidateKind| QuarantineEntry {
            task: t,
            kind: kind.code().into(),
            n,
            error: "timeout".into(),
        };
        for retry_flaky in [false, true] {
            let mut cfg = EvalConfig::smoke();
            cfg.timeout = Duration::from_micros(1);
            cfg.grace = Duration::from_secs(30);
            cfg.retry_flaky = retry_flaky;

            // Efficient sample plus all four modes: one entry per
            // requested kind code, the four modes sharing "wrong" — the
            // list a merge of this snapshot keeps unchanged.
            let r = SharedRunner::new(cfg.clone());
            let eff = CandidateKind::Correct(Quality::Efficient);
            for kind in MODES.into_iter().chain([eff]) {
                let out = r.outcome(t, kind, n);
                assert_eq!((out.built, out.correct), (true, false));
                assert_eq!(out.error.as_deref(), Some("timeout"));
            }
            let expected = vec![entry(eff), entry(MODES[0])];
            let stats = r.stats();
            assert_eq!(stats.quarantined, expected, "retry_flaky={retry_flaky}");
            assert_eq!(stats.executions, 1 + u64::from(retry_flaky));
            assert_eq!(stats.retries, u64::from(retry_flaky));
            let mut merged = EvalStats::default();
            merged.merge(&stats);
            assert_eq!(merged.quarantined, expected, "a snapshot is already merged form");

            // Only the modes requested: the efficient execution runs on
            // their behalf but is not itself quarantined.
            let r = SharedRunner::new(cfg);
            for kind in MODES {
                r.outcome(t, kind, n);
            }
            assert_eq!(r.stats().quarantined, vec![entry(MODES[0])], "retry_flaky={retry_flaky}");
            assert_eq!(r.leaked_workers(), 0, "cancelled cooperatively");
        }
    }

    #[test]
    fn shared_runner_is_deterministic_across_worker_counts() {
        // Same key from many threads: exactly one execution, same value.
        let r = SharedRunner::new(EvalConfig::smoke());
        let t = mk_task(ExecutionModel::OpenMp);
        let kind = CandidateKind::Correct(Quality::Efficient);
        let outs: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| r.outcome(t, kind, 4))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = r.stats();
        assert_eq!(stats.executions, 1, "one execution, {} cache hits", stats.cache_hits);
        for o in &outs {
            assert!(o.correct);
            assert_eq!(o.seconds, outs[0].seconds);
        }
        assert!(stats.run_s > 0.0);
    }
}
