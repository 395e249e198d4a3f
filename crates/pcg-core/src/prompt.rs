//! Prompt rendering (paper §4, Listing 1).
//!
//! Each PCGBench prompt is a doc comment describing the computation, two
//! example input/output pairs, an execution-model-specific instruction
//! ("Use Kokkos to compute in parallel. Assume Kokkos has already been
//! initialized."), the necessary include/use header, and the opening of a
//! standalone function the model must complete.
//!
//! The per-problem content (description, signature, examples) lives in
//! `pcg-problems`; this module owns the model-specific framing so all 420
//! rendered prompts stay structurally identical across execution models,
//! as the paper requires.

use crate::ExecutionModel;
use serde::{Deserialize, Serialize};

/// The prompt-engineering tier a candidate pool was sampled under.
///
/// The paper's prompts are a single carefully engineered style; related
/// work (Parallel-Computing-with-LLMs, "From Prompts to Performance")
/// shows prompt tier is a first-class experimental axis. Each variant
/// renders a structurally different prompt ([`render_variant`]) and
/// carries a distinct correctness-rate profile in `pcg-models`.
///
/// [`PromptVariant::Expert`] is the **default** variant: it renders
/// exactly the paper-faithful prompt every prior run used, and a
/// default-variant grid keeps bare model-row labels so cell ids, config
/// hashes, and record bytes are unchanged from single-variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PromptVariant {
    /// Bare ask: description and examples only — no programming-model
    /// instruction, no header. What a user pastes into a chat box.
    Naive,
    /// Adds the execution-model instruction sentence but omits the
    /// include/use header the paper found load-bearing.
    Student,
    /// The paper's engineered prompt: instruction plus header. This is
    /// the default and renders byte-identically to [`render`].
    Expert,
    /// Expert prompt augmented with a retrieved reference block
    /// (RAG-style), mirroring the four-tier related-work setup.
    RagAugmented,
}

impl PromptVariant {
    /// All variants, in fixed grid-enumeration order.
    pub const ALL: [PromptVariant; 4] = [
        PromptVariant::Naive,
        PromptVariant::Student,
        PromptVariant::Expert,
        PromptVariant::RagAugmented,
    ];

    /// The default variant (the paper's engineered prompt).
    pub const DEFAULT: PromptVariant = PromptVariant::Expert;

    /// Short stable label used in CLI lists, row labels, and pool
    /// manifests.
    pub fn label(self) -> &'static str {
        match self {
            PromptVariant::Naive => "naive",
            PromptVariant::Student => "student",
            PromptVariant::Expert => "expert",
            PromptVariant::RagAugmented => "rag",
        }
    }

    /// Parse a CLI/env label (accepts the long RAG spelling too).
    pub fn parse(s: &str) -> Option<PromptVariant> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(PromptVariant::Naive),
            "student" => Some(PromptVariant::Student),
            "expert" => Some(PromptVariant::Expert),
            "rag" | "rag-augmented" | "ragaugmented" => Some(PromptVariant::RagAugmented),
            _ => None,
        }
    }

    /// Relative evaluation-cost factor for the analytic priors profile.
    /// Richer prompts produce more code that actually runs (fewer cheap
    /// build-failure cells), so expected cell cost rises with tier; the
    /// default tier is exactly 1.0 so bare-label costs are unchanged.
    pub fn cost_factor(self) -> f64 {
        match self {
            PromptVariant::Naive => 0.85,
            PromptVariant::Student => 0.95,
            PromptVariant::Expert => 1.0,
            PromptVariant::RagAugmented => 1.15,
        }
    }
}

/// Compose a model-row label from a model name and variant: bare name
/// for the default variant, `name@variant` otherwise. Row labels key
/// cell ids, priors lookups, records, and figure renderers, so the default
/// variant **must** stay bare for byte-compatibility with prior runs.
pub fn row_label(model: &str, variant: PromptVariant) -> String {
    if variant == PromptVariant::DEFAULT {
        model.to_string()
    } else {
        format!("{model}@{}", variant.label())
    }
}

/// Split a model-row label back into `(model name, variant)`. Labels
/// without a recognized `@variant` suffix are whole model names under
/// the default variant (model names may legally contain `@`).
pub fn split_label(label: &str) -> (&str, PromptVariant) {
    if let Some((name, suffix)) = label.rsplit_once('@') {
        if let Some(v) = PromptVariant::parse(suffix) {
            return (name, v);
        }
    }
    (label, PromptVariant::DEFAULT)
}

/// Problem-specific prompt content supplied by the problem suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptSpec {
    /// Short function name, e.g. `partialMinimums`.
    pub fn_name: String,
    /// Natural-language description of the computation.
    pub description: String,
    /// Example input/output pairs, rendered verbatim.
    pub examples: Vec<(String, String)>,
    /// The function parameter list, in the substrate's idiom.
    pub signature: String,
}

/// The model-specific instruction sentence, mirroring the paper's prompts.
pub fn model_instruction(model: ExecutionModel) -> &'static str {
    match model {
        ExecutionModel::Serial => "Implement sequentially.",
        ExecutionModel::OpenMp => "Use the shmem work-sharing pool to compute in parallel.",
        ExecutionModel::Kokkos => {
            "Use parallel patterns to compute in parallel. Assume the execution space has already been initialized."
        }
        ExecutionModel::Mpi => {
            "Use message passing to compute in parallel. Assume the runtime has already been initialized and every rank calls this function. The result should be stored on rank 0."
        }
        ExecutionModel::MpiOpenMp => {
            "Use message passing and the shmem pool to compute in parallel. Assume the runtime has already been initialized and every rank calls this function. The result should be stored on rank 0."
        }
        ExecutionModel::Cuda => {
            "Use the CUDA-like kernel API to compute in parallel. The kernel is launched with at least as many threads as elements."
        }
        ExecutionModel::Hip => {
            "Use the HIP-like kernel API to compute in parallel. The kernel is launched with at least as many threads as elements."
        }
    }
}

/// The header line (include/use analog) prepended per execution model;
/// the paper found this improves use of the correct programming model.
pub fn model_header(model: ExecutionModel) -> &'static str {
    match model {
        ExecutionModel::Serial => "",
        ExecutionModel::OpenMp => "use pcg_shmem::prelude::*;",
        ExecutionModel::Kokkos => "use pcg_patterns::prelude::*;",
        ExecutionModel::Mpi => "use pcg_mpisim::prelude::*;",
        ExecutionModel::MpiOpenMp => "use pcg_mpisim::prelude::*;\nuse pcg_shmem::prelude::*;",
        ExecutionModel::Cuda => "use pcg_gpusim::cuda::*;",
        ExecutionModel::Hip => "use pcg_gpusim::hip::*;",
    }
}

/// Render the full prompt text for one task (the default
/// [`PromptVariant::Expert`] framing — byte-identical to every prompt
/// this harness rendered before the variant axis existed).
pub fn render(spec: &PromptSpec, model: ExecutionModel) -> String {
    render_variant(spec, model, PromptVariant::DEFAULT)
}

/// Render the prompt for one task under a specific prompt tier.
///
/// All variants share the description, examples, and function opening;
/// they differ only in the framing the related-work tiers differ in:
/// Naive drops both the programming-model instruction and the header,
/// Student keeps the instruction but drops the header, Expert is the
/// paper prompt, and RagAugmented appends a retrieved-reference block
/// before the function opening.
pub fn render_variant(spec: &PromptSpec, model: ExecutionModel, variant: PromptVariant) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("/* ");
    s.push_str(&spec.description);
    s.push('\n');
    if variant != PromptVariant::Naive {
        s.push_str("   ");
        s.push_str(model_instruction(model));
        s.push('\n');
    }
    s.push_str("   Examples:\n");
    for (input, output) in &spec.examples {
        s.push_str("   input: ");
        s.push_str(input);
        s.push_str("\n   output: ");
        s.push_str(output);
        s.push('\n');
    }
    if variant == PromptVariant::RagAugmented {
        s.push_str("   Reference (retrieved):\n   // idiomatic ");
        s.push_str(model.label());
        s.push_str(" exemplar for a related kernel\n");
        let header = model_header(model);
        if !header.is_empty() {
            for line in header.lines() {
                s.push_str("   // ");
                s.push_str(line);
                s.push('\n');
            }
        }
    }
    s.push_str("*/\n");
    let header = model_header(model);
    let wants_header =
        matches!(variant, PromptVariant::Expert | PromptVariant::RagAugmented);
    if wants_header && !header.is_empty() {
        s.push_str(header);
        s.push('\n');
    }
    s.push_str("fn ");
    s.push_str(&spec.fn_name);
    s.push('(');
    s.push_str(&spec.signature);
    s.push_str(") {\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PromptSpec {
        PromptSpec {
            fn_name: "partialMinimums".into(),
            description: "Replace the i-th element of the array x with the minimum value from indices 0 through i.".into(),
            examples: vec![(
                "[8, 6, -1, 7, 3, 4, 4]".into(),
                "[8, 6, -1, -1, -1, -1, -1]".into(),
            )],
            signature: "x: &mut [f32]".into(),
        }
    }

    #[test]
    fn renders_all_parts() {
        let p = render(&spec(), ExecutionModel::Kokkos);
        assert!(p.contains("partialMinimums"));
        assert!(p.contains("minimum value from indices"));
        assert!(p.contains("parallel patterns"));
        assert!(p.contains("pcg_patterns::prelude"));
        assert!(p.contains("input: [8, 6"));
        assert!(p.ends_with("{\n"));
    }

    #[test]
    fn serial_has_no_header() {
        let p = render(&spec(), ExecutionModel::Serial);
        assert!(!p.contains("use pcg_"));
        assert!(p.contains("Implement sequentially."));
    }

    #[test]
    fn prompts_differ_only_by_framing() {
        let a = render(&spec(), ExecutionModel::Cuda);
        let b = render(&spec(), ExecutionModel::Hip);
        assert_ne!(a, b);
        // Shared body text is identical across models.
        assert!(a.contains("minimum value from indices"));
        assert!(b.contains("minimum value from indices"));
    }

    #[test]
    fn expert_variant_is_the_legacy_prompt() {
        for m in ExecutionModel::ALL {
            assert_eq!(
                render(&spec(), m),
                render_variant(&spec(), m, PromptVariant::Expert),
                "default-variant rendering must stay byte-identical"
            );
        }
    }

    #[test]
    fn variants_render_distinctly_and_share_the_body() {
        let texts: Vec<String> = PromptVariant::ALL
            .iter()
            .map(|&v| render_variant(&spec(), ExecutionModel::Kokkos, v))
            .collect();
        let mut uniq = texts.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), PromptVariant::ALL.len());
        for t in &texts {
            assert!(t.contains("minimum value from indices"));
            assert!(t.ends_with("{\n"));
        }
        let naive = render_variant(&spec(), ExecutionModel::Kokkos, PromptVariant::Naive);
        assert!(!naive.contains("parallel patterns"), "naive drops the instruction");
        assert!(!naive.contains("use pcg_"), "naive drops the header");
        let student = render_variant(&spec(), ExecutionModel::Kokkos, PromptVariant::Student);
        assert!(student.contains("parallel patterns"));
        assert!(!student.contains("use pcg_"), "student drops the header");
        let rag =
            render_variant(&spec(), ExecutionModel::Kokkos, PromptVariant::RagAugmented);
        assert!(rag.contains("Reference (retrieved)"));
        assert!(rag.contains("use pcg_patterns::prelude::*;"));
    }

    #[test]
    fn labels_round_trip_and_default_stays_bare() {
        for v in PromptVariant::ALL {
            assert_eq!(PromptVariant::parse(v.label()), Some(v));
            let l = row_label("GPT-4", v);
            assert_eq!(split_label(&l), ("GPT-4", v));
        }
        assert_eq!(row_label("GPT-4", PromptVariant::Expert), "GPT-4");
        assert_eq!(row_label("GPT-4", PromptVariant::Naive), "GPT-4@naive");
        // Unrecognized suffixes stay part of the model name.
        assert_eq!(
            split_label("team@org-model"),
            ("team@org-model", PromptVariant::DEFAULT)
        );
        assert_eq!(PromptVariant::parse("RAG-Augmented"), Some(PromptVariant::RagAugmented));
        assert_eq!(PromptVariant::parse("bogus"), None);
    }

    #[test]
    fn default_cost_factor_is_identity() {
        assert_eq!(PromptVariant::DEFAULT.cost_factor(), 1.0);
        let mut factors: Vec<f64> =
            PromptVariant::ALL.iter().map(|v| v.cost_factor()).collect();
        factors.sort_by(f64::total_cmp);
        factors.dedup();
        assert_eq!(factors.len(), 4, "variants must carry distinct cost signal");
    }

    #[test]
    fn instructions_distinct_per_model() {
        let mut seen: Vec<&str> = ExecutionModel::ALL.iter().map(|m| model_instruction(*m)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ExecutionModel::ALL.len());
    }
}
