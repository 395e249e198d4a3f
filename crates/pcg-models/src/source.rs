//! Pluggable candidate provenance: the [`CandidateSource`] trait.
//!
//! The harness coordinator scores *cells* — (model row × task) — and
//! does not care where candidate pools come from. A `CandidateSource`
//! answers exactly the three questions evaluation asks:
//!
//! 1. what model rows exist ([`CandidateSource::model_names`] — these
//!    strings become the plan's model axis, cell ids, record labels,
//!    and priors keys),
//! 2. whether a row joins the high-temperature set
//!    ([`CandidateSource::weights_available`]),
//! 3. the candidate pool for one `(row, task)` under a
//!    [`SampleSpec`] ([`CandidateSource::sample`]).
//!
//! **Determinism contract:** `sample` must be a pure function of
//! `(row index, task, spec)` — never of wall-clock time, call order,
//! worker identity, or external state. Everything downstream (resume,
//! sharding, stealing, merge) assumes a cell can be re-evaluated
//! anywhere, any time, to the same bytes.
//!
//! **Hash contract:** [`CandidateSource::config_salt`] is folded into
//! the run's config hash. It must be empty exactly when the source is
//! the default synthetic path (so old journals and caches replay), and
//! must change whenever the pools a source would return change (so a
//! resumed run can never splice cells from different pools).
//!
//! Three families of implementation ship here:
//!
//! * slices/vectors of [`SyntheticModel`] — the legacy zoo path, bare
//!   card names, byte-identical to the pre-trait harness;
//! * [`SyntheticSource`] — the zoo crossed with a
//!   [`PromptVariant`] list, one calibrated row per (model, variant);
//! * [`crate::ReplaySource`] — dumped candidate pools re-scored from a
//!   directory (in `replay.rs`).

use crate::SyntheticModel;
use pcg_core::prompt::row_label;
use pcg_core::{CandidateKind, PromptVariant, TaskId};

/// Everything one sampling request depends on. Bundled so the trait
/// stays stable as knobs accrue; the chaos rates ride along because
/// defect injection perturbs the *pool*, which is source territory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSpec {
    /// Sampling temperature.
    pub temperature: f64,
    /// Number of samples requested.
    pub n: usize,
    /// The run's global seed.
    pub seed: u64,
    /// Chaos-injection weight for `Deadlock` defects (0 = exact no-op).
    pub deadlock_rate: f64,
    /// Chaos-injection weight for `StackHog` defects (0 = exact no-op).
    pub stack_hog_rate: f64,
}

impl SampleSpec {
    /// A spec with no chaos injection.
    pub fn new(temperature: f64, n: usize, seed: u64) -> SampleSpec {
        SampleSpec { temperature, n, seed, deadlock_rate: 0.0, stack_hog_rate: 0.0 }
    }
}

/// A deterministic provider of candidate pools; see the module docs
/// for the determinism and hash contracts.
pub trait CandidateSource {
    /// The model-row labels, in grid-enumeration order. These strings
    /// are load-bearing identity: they key cell ids, journal entries,
    /// record rows, priors lookups, and the figure renderers.
    fn model_names(&self) -> Vec<String>;

    /// Whether row `model` participates in the high-temperature
    /// (200-sample) set; the paper excludes closed-weight models.
    fn weights_available(&self, model: usize) -> bool;

    /// The candidate pool for `(row, task)` under `spec`. Must return
    /// exactly `spec.n` kinds and be a pure function of its arguments.
    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind>;

    /// Bytes folded into the run's config hash. Empty (the default)
    /// means "the default synthetic path" and leaves the hash — and
    /// therefore every cell id, journal, and cache — unchanged.
    fn config_salt(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl CandidateSource for [SyntheticModel] {
    fn model_names(&self) -> Vec<String> {
        self.iter().map(|m| m.card().name.to_string()).collect()
    }

    fn weights_available(&self, model: usize) -> bool {
        self[model].card().weights_available
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        self[model]
            .clone()
            .with_chaos(spec.deadlock_rate, spec.stack_hog_rate)
            .sample_n(task, spec.temperature, spec.n, spec.seed)
    }
}

impl<const N: usize> CandidateSource for [SyntheticModel; N] {
    fn model_names(&self) -> Vec<String> {
        self.as_slice().model_names()
    }

    fn weights_available(&self, model: usize) -> bool {
        self.as_slice().weights_available(model)
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        self.as_slice().sample(model, task, spec)
    }
}

impl CandidateSource for Vec<SyntheticModel> {
    fn model_names(&self) -> Vec<String> {
        self.as_slice().model_names()
    }

    fn weights_available(&self, model: usize) -> bool {
        self.as_slice().weights_available(model)
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        self.as_slice().sample(model, task, spec)
    }
}

/// One row of a [`SyntheticSource`]: a zoo model under one prompt tier.
#[derive(Debug, Clone)]
struct SyntheticRow {
    /// The model with its calibration already adjusted for the variant
    /// (identity for the default tier).
    model: SyntheticModel,
    /// The row label: bare card name for the default variant,
    /// `name@variant` otherwise. Also keys the RNG stream.
    label: String,
}

/// The synthetic zoo crossed with a prompt-variant list.
///
/// With `variants == [PromptVariant::DEFAULT]` this is row-for-row and
/// byte-for-byte the legacy zoo: bare labels, identity calibration,
/// the same RNG streams, an empty config salt. Additional variants add
/// rows labeled `name@variant` whose calibrations carry the tier's
/// correctness deltas and whose sample streams are keyed by the full
/// row label (independent draws per tier, like re-prompting a model).
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    rows: Vec<SyntheticRow>,
}

impl SyntheticSource {
    /// Cross `models` with `variants` (model-major: every variant of a
    /// model is adjacent). Panics on an empty or duplicated variant
    /// list — a silent dedup would change the grid the caller asked for.
    pub fn new(models: Vec<SyntheticModel>, variants: &[PromptVariant]) -> SyntheticSource {
        assert!(!variants.is_empty(), "at least one prompt variant required");
        let mut seen = variants.to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), variants.len(), "duplicate prompt variants: {variants:?}");
        let rows = models
            .into_iter()
            .flat_map(|m| {
                variants.iter().map(move |&v| {
                    let label = row_label(m.card().name, v);
                    let model = SyntheticModel::custom(
                        m.card().clone(),
                        m.calibration().clone().with_variant(v),
                        m.is_small(),
                    );
                    SyntheticRow { model, label }
                })
            })
            .collect();
        SyntheticSource { rows }
    }

    /// The full zoo under `variants`.
    pub fn zoo(variants: &[PromptVariant]) -> SyntheticSource {
        SyntheticSource::new(SyntheticModel::zoo(), variants)
    }
}

impl CandidateSource for SyntheticSource {
    fn model_names(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.label.clone()).collect()
    }

    fn weights_available(&self, model: usize) -> bool {
        self.rows[model].model.card().weights_available
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        let row = &self.rows[model];
        row.model
            .clone()
            .with_chaos(spec.deadlock_rate, spec.stack_hog_rate)
            .sample_n_as(&row.label, task, spec.temperature, spec.n, spec.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};

    fn task() -> TaskId {
        ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::OpenMp)
    }

    #[test]
    fn slice_impl_matches_direct_sampling_exactly() {
        let zoo = SyntheticModel::zoo();
        let spec = SampleSpec::new(0.2, 20, 42);
        for (i, m) in zoo.iter().enumerate() {
            let direct = m.sample_n(task(), spec.temperature, spec.n, spec.seed);
            assert_eq!(zoo.as_slice().sample(i, task(), &spec), direct);
            assert_eq!(zoo.sample(i, task(), &spec), direct, "Vec impl");
        }
        assert_eq!(
            zoo.as_slice().model_names(),
            zoo.iter().map(|m| m.card().name.to_string()).collect::<Vec<_>>()
        );
        assert!(zoo.as_slice().config_salt().is_empty());
    }

    #[test]
    fn default_variant_source_is_the_legacy_zoo() {
        let zoo = SyntheticModel::zoo();
        let src = SyntheticSource::zoo(&[PromptVariant::DEFAULT]);
        assert_eq!(src.model_names(), zoo.as_slice().model_names());
        assert!(src.config_salt().is_empty());
        let spec = SampleSpec::new(0.8, 10, 7);
        for i in 0..zoo.len() {
            assert_eq!(
                src.sample(i, task(), &spec),
                zoo.as_slice().sample(i, task(), &spec),
                "default-variant streams must be byte-identical to the zoo"
            );
            assert_eq!(src.weights_available(i), zoo.as_slice().weights_available(i));
        }
    }

    #[test]
    fn variant_rows_enumerate_model_major_with_qualified_labels() {
        let variants =
            [PromptVariant::Naive, PromptVariant::Expert, PromptVariant::RagAugmented];
        let src = SyntheticSource::new(
            vec![
                SyntheticModel::by_name("GPT-4").unwrap(),
                SyntheticModel::by_name("CodeLlama-7B").unwrap(),
            ],
            &variants,
        );
        assert_eq!(
            src.model_names(),
            vec![
                "GPT-4@naive",
                "GPT-4",
                "GPT-4@rag",
                "CodeLlama-7B@naive",
                "CodeLlama-7B",
                "CodeLlama-7B@rag",
            ]
        );
        // weights flags follow the underlying model, not the variant.
        assert!(!src.weights_available(0));
        assert!(src.weights_available(3));
    }

    #[test]
    fn variant_rows_sample_distinct_deterministic_streams() {
        let variants = [PromptVariant::Naive, PromptVariant::Expert];
        let src = SyntheticSource::new(
            vec![SyntheticModel::by_name("GPT-3.5").unwrap()],
            &variants,
        );
        let spec = SampleSpec::new(0.8, 40, 11);
        let naive = src.sample(0, task(), &spec);
        let expert = src.sample(1, task(), &spec);
        assert_eq!(naive, src.sample(0, task(), &spec), "deterministic");
        assert_ne!(naive, expert, "tiers are independent streams");
        // Across many seeds, the naive tier must be measurably worse.
        let correct = |row: usize| -> usize {
            (0..200u64)
                .flat_map(|s| src.sample(row, task(), &SampleSpec::new(0.8, 10, s)))
                .filter(|k| matches!(k, CandidateKind::Correct(_)))
                .count()
        };
        let n = correct(0);
        let e = correct(1);
        assert!(n < e, "naive {n} must trail expert {e}");
    }

    #[test]
    #[should_panic(expected = "duplicate prompt variants")]
    fn duplicate_variants_rejected() {
        SyntheticSource::zoo(&[PromptVariant::Expert, PromptVariant::Expert]);
    }
}
