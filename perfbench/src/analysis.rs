//! Post-run analysis: percentiles, the per-(execution model, problem
//! type) rollup of cell walls, the output fingerprint and its pins, and
//! the verdict oracle.

use pcg_core::plan::fnv1a;
use pcg_core::{CandidateKind, ExecutionModel, ProblemType, TaskId, WorkPlan};
use pcg_harness::record::{self, EvalRecord};
use pcg_harness::EvalConfig;
use pcg_models::{CandidateSource, SampleSpec};
use std::collections::{BTreeMap, HashMap};

/// Nearest-rank percentile `q` (in `0..=1`) of ascending `sorted`
/// samples; 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest reportable tail percentile for `n` samples: the largest
/// of p99.9, p99, p90 and p50 that leaves at least ten samples beyond
/// it. `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// A timing distribution: median, the rule's tail percentile, max and
/// the sample count, for reporting.
pub fn describe(samples: &[f64]) -> String {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let tail = match tail_percentile(s.len()) {
        Some(q) => format!("p{} {:.6}s", q * 100.0, percentile(&s, q)),
        None => "no tail percentile (fewer than 10 samples beyond p50)".to_string(),
    };
    format!(
        "n={} p50 {:.6}s {tail} max {:.6}s",
        s.len(),
        percentile(&s, 0.5),
        s.last().copied().unwrap_or(0.0)
    )
}

/// Cell wall time summed over one (execution model, problem type) pair.
#[derive(Debug, Clone)]
pub struct RollupRow {
    pub model: String,
    pub ptype: String,
    pub cells: u64,
    pub wall_s: f64,
    pub max_cell_s: f64,
}

/// One measured cell, named for the top-cells list.
#[derive(Debug, Clone)]
pub struct TopCell {
    pub row: String,
    pub task: String,
    pub wall_s: f64,
}

/// The cell-wall rollup of a run: rows per (execution model, problem
/// type) in descending wall order, and the `top` longest cells.
#[derive(Debug, Clone)]
pub struct Rollup {
    pub rows: Vec<RollupRow>,
    pub top: Vec<TopCell>,
    pub total_s: f64,
}

impl Rollup {
    /// Summed wall of every cell whose task passes `pred`.
    pub fn wall_where(&self, pred: impl Fn(&RollupRow) -> bool) -> f64 {
        self.rows
            .iter()
            .filter(|r| pred(r))
            .fold(0.0, |acc, r| acc + r.wall_s)
    }

    /// Summed wall of one execution model's cells.
    pub fn model_wall(&self, m: ExecutionModel) -> f64 {
        self.wall_where(|r| r.model == m.label())
    }

    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let share = |w: f64| {
            if self.total_s > 0.0 {
                100.0 * w / self.total_s
            } else {
                0.0
            }
        };
        let _ = writeln!(
            s,
            "cell wall by execution model ({:.3}s summed):",
            self.total_s
        );
        for m in ExecutionModel::ALL {
            let w = self.model_wall(m);
            let _ = writeln!(s, "  {:<8} {:>10.3}s {:>5.1}%", m.label(), w, share(w));
        }
        let _ = writeln!(s, "cell wall by (execution model, problem type), top 12:");
        for r in self.rows.iter().take(12) {
            let _ = writeln!(
                s,
                "  {:<8} {:<10} {:>5} cells {:>10.3}s {:>5.1}%  max cell {:.3}s",
                r.model,
                r.ptype,
                r.cells,
                r.wall_s,
                share(r.wall_s),
                r.max_cell_s
            );
        }
        let _ = writeln!(s, "longest cells:");
        for c in &self.top {
            let _ = writeln!(s, "  {:>8.3}s  {}  {}", c.wall_s, c.row, c.task);
        }
        s
    }
}

/// Roll measured `(cell id, seconds)` walls up by (execution model,
/// problem type) using `plan` to name each cell. Walls of cells the
/// plan does not know are ignored.
pub fn rollup(plan: &WorkPlan, walls: &[(u64, f64)], top: usize) -> Rollup {
    let cells: HashMap<u64, (usize, TaskId)> =
        plan.cells().map(|c| (c.id.0, (c.model, c.task))).collect();
    let mut rows: BTreeMap<(ExecutionModel, ProblemType), RollupRow> = BTreeMap::new();
    let mut named: Vec<TopCell> = Vec::new();
    let mut total_s = 0.0;
    for &(id, secs) in walls {
        let Some(&(model, task)) = cells.get(&id) else {
            continue;
        };
        total_s += secs;
        let row = rows
            .entry((task.model, task.problem.ptype))
            .or_insert_with(|| RollupRow {
                model: task.model.label().to_string(),
                ptype: task.problem.ptype.label().to_string(),
                cells: 0,
                wall_s: 0.0,
                max_cell_s: 0.0,
            });
        row.cells += 1;
        row.wall_s += secs;
        row.max_cell_s = row.max_cell_s.max(secs);
        named.push(TopCell {
            row: plan.models()[model].clone(),
            task: task.to_string(),
            wall_s: secs,
        });
    }
    let mut rows: Vec<RollupRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    named.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    named.truncate(top);
    Rollup {
        rows,
        top: named,
        total_s,
    }
}

/// The output fingerprint: FNV-1a 64 of `record::projection`, which
/// pins every verdict and sweep key but none of the measured floats.
pub fn fingerprint(rec: &EvalRecord) -> String {
    format!("{:016x}", fnv1a(record::projection(rec).as_bytes()))
}

/// Pinned fingerprints: workload name -> seed -> fingerprint.
pub type Pins = BTreeMap<String, BTreeMap<String, String>>;

/// Outcome of comparing a run's fingerprint with the pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinCheck {
    /// The seed is pinned and the fingerprint matches.
    Match,
    /// The seed is pinned and the fingerprint differs.
    Mismatch { pinned: String },
    /// No pin exists for this workload and seed.
    Unpinned,
}

pub fn check_pin(pins: &Pins, workload: &str, seed: u64, fp: &str) -> PinCheck {
    match pins.get(workload).and_then(|w| w.get(&seed.to_string())) {
        Some(p) if p == fp => PinCheck::Match,
        Some(p) => PinCheck::Mismatch { pinned: p.clone() },
        None => PinCheck::Unpinned,
    }
}

/// The verdict a candidate kind must receive: `(built, correct)`.
/// Only fully correct candidates pass; a sequential fallback passes
/// only on serial tasks (it never touches a parallel API), and a flaky
/// candidate passes only when the harness retries hard failures.
pub fn expected_verdict(kind: CandidateKind, task: TaskId, cfg: &EvalConfig) -> (bool, bool) {
    let correct = match kind {
        CandidateKind::Correct(_) => true,
        CandidateKind::SequentialFallback => task.model == ExecutionModel::Serial,
        CandidateKind::Flaky => cfg.retry_flaky,
        _ => false,
    };
    (kind.builds(), correct)
}

/// What the verdict oracle found in a committed record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Plan cells absent from the record.
    pub missing: u64,
    /// Samples whose recorded (built, correct) differs from the kind's.
    pub mismatches: u64,
    /// The first few mismatches, for the log.
    pub examples: Vec<String>,
}

/// Re-sample every cell of `plan` from `source` (a pure function of
/// its arguments) and check each recorded verdict against the kind the
/// source produced.
pub fn oracle<S: CandidateSource + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    plan: &WorkPlan,
    rec: &EvalRecord,
) -> OracleReport {
    let spec = |temperature: f64, n: usize| SampleSpec {
        temperature,
        n,
        seed: cfg.seed,
        deadlock_rate: cfg.deadlock_rate,
        stack_hog_rate: cfg.stack_hog_rate,
    };
    let mut out = OracleReport::default();
    for cell in plan.cells() {
        let name = &plan.models()[cell.model];
        let found = rec
            .model(name)
            .and_then(|m| m.tasks.iter().find(|t| t.task == cell.task));
        let Some(t) = found else {
            out.missing += 1;
            continue;
        };
        let low = source.sample(cell.model, cell.task, &spec(cfg.temp_low, cfg.samples_low));
        check(
            &mut out,
            cfg,
            name,
            cell.task,
            &low,
            &t.low.built,
            &t.low.correct,
        );
        let high_expected = !cfg.skip_high_temp && source.weights_available(cell.model);
        match (&t.high, high_expected) {
            (Some(h), true) => {
                let kinds = source.sample(
                    cell.model,
                    cell.task,
                    &spec(cfg.temp_high, cfg.samples_high),
                );
                check(&mut out, cfg, name, cell.task, &kinds, &h.built, &h.correct);
            }
            (None, false) => {}
            _ => out.mismatches += 1,
        }
    }
    out
}

/// Compare one sample set's recorded verdicts with its kinds.
fn check(
    out: &mut OracleReport,
    cfg: &EvalConfig,
    row: &str,
    task: TaskId,
    kinds: &[CandidateKind],
    built: &[bool],
    correct: &[bool],
) {
    if kinds.len() != built.len() || kinds.len() != correct.len() {
        out.mismatches += kinds.len() as u64;
        return;
    }
    for (i, &k) in kinds.iter().enumerate() {
        if expected_verdict(k, task, cfg) != (built[i], correct[i]) {
            out.mismatches += 1;
            if out.examples.len() < 5 {
                out.examples.push(format!(
                    "{row} {task} sample {i}: kind {} recorded built={} correct={}",
                    k.code(),
                    built[i],
                    correct[i]
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::task::all_tasks;
    use pcg_core::Quality;
    use pcg_harness::{ModelRecord, TaskRecord};
    use pcg_metrics::TaskSamples;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        for n in 1..3000 {
            if let Some(q) = tail_percentile(n) {
                assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    fn plan() -> WorkPlan {
        let tasks: Vec<TaskId> = all_tasks().take(14).collect();
        WorkPlan::new(7, vec!["A".into(), "B".into()], tasks)
    }

    #[test]
    fn rollup_sums_by_model_and_problem_type_and_ranks_top_cells() {
        let plan = plan();
        let cells: Vec<_> = plan.cells().collect();
        let walls: Vec<(u64, f64)> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id.0, (i + 1) as f64))
            .collect();
        let r = rollup(&plan, &walls, 3);
        let total: f64 = walls.iter().map(|w| w.1).sum();
        assert!((r.total_s - total).abs() < 1e-9);
        assert!((r.rows.iter().map(|x| x.wall_s).sum::<f64>() - total).abs() < 1e-9);
        assert_eq!(
            r.rows.iter().map(|x| x.cells).sum::<u64>(),
            cells.len() as u64
        );
        for m in ExecutionModel::ALL {
            let expect: f64 = cells
                .iter()
                .zip(&walls)
                .filter(|(c, _)| c.task.model == m)
                .map(|(_, w)| w.1)
                .sum();
            assert!((r.model_wall(m) - expect).abs() < 1e-9);
        }
        assert_eq!(r.top.len(), 3);
        assert_eq!(r.top[0].wall_s, cells.len() as f64);
        assert_eq!(r.top[0].row, "B");
        assert!(r.rows.windows(2).all(|w| w[0].wall_s >= w[1].wall_s));
        // Unknown cells are ignored rather than misattributed.
        let r2 = rollup(&plan, &[(u64::MAX, 5.0)], 3);
        assert_eq!(r2.total_s, 0.0);
    }

    fn record() -> EvalRecord {
        let tasks = plan().tasks().to_vec();
        let rec_for = |t: TaskId| TaskRecord {
            task: t,
            low: TaskSamples {
                built: vec![true, true],
                correct: vec![true, false],
                ratio: vec![1.5, 0.0],
            },
            high: None,
            sweep: BTreeMap::new(),
        };
        EvalRecord {
            config: EvalConfig::smoke(),
            models: vec![ModelRecord {
                model: "A".into(),
                tasks: tasks.into_iter().map(rec_for).collect(),
            }],
        }
    }

    #[test]
    fn fingerprint_check_rejects_a_flipped_verdict() {
        let rec = record();
        let fp = fingerprint(&rec);
        let mut pins = Pins::new();
        pins.entry("w".into())
            .or_default()
            .insert("1".into(), fp.clone());
        assert_eq!(check_pin(&pins, "w", 1, &fp), PinCheck::Match);
        assert_eq!(check_pin(&pins, "w", 2, &fp), PinCheck::Unpinned);

        // Measured floats are not part of the fingerprint...
        let mut timing = rec.clone();
        timing.models[0].tasks[0].low.ratio[0] = 9.0;
        assert_eq!(
            check_pin(&pins, "w", 1, &fingerprint(&timing)),
            PinCheck::Match
        );

        // ...but one flipped verdict is.
        let mut flipped = rec.clone();
        flipped.models[0].tasks[3].low.correct[1] = true;
        assert_eq!(
            check_pin(&pins, "w", 1, &fingerprint(&flipped)),
            PinCheck::Mismatch { pinned: fp }
        );
    }

    #[test]
    fn expected_verdicts_follow_the_kind() {
        let cfg = EvalConfig::quick();
        let serial = all_tasks()
            .find(|t| t.model == ExecutionModel::Serial)
            .unwrap();
        let omp = all_tasks()
            .find(|t| t.model == ExecutionModel::OpenMp)
            .unwrap();
        let ok = CandidateKind::Correct(Quality::Efficient);
        assert_eq!(expected_verdict(ok, omp, &cfg), (true, true));
        assert_eq!(
            expected_verdict(CandidateKind::BuildFailure, omp, &cfg),
            (false, false)
        );
        assert_eq!(
            expected_verdict(CandidateKind::SequentialFallback, omp, &cfg),
            (true, false)
        );
        assert_eq!(
            expected_verdict(CandidateKind::SequentialFallback, serial, &cfg),
            (true, true)
        );
        assert_eq!(
            expected_verdict(CandidateKind::Flaky, omp, &cfg),
            (true, false)
        );
    }
}
