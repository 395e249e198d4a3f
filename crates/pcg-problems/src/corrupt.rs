//! Deterministic output corruption for wrong-answer candidates.
//!
//! Each mode mimics a real decomposition bug's *symptom* and is
//! guaranteed to produce an output that fails the tolerant comparison
//! against the original (so a "wrong" sample can never be accidentally
//! scored correct).
//!
//! A wrong-output candidate is the efficient parallel path with its
//! result corrupted. [`executed_kind`] and [`derive`] are the one
//! definition of that: the problem framework runs a wrong-output
//! candidate through them, and the harness uses them to score all four
//! corruption modes from a single efficient execution.

use pcg_core::rng::splitmix64;
use pcg_core::{CandidateKind, Corruption, Output, Quality};

/// The kind whose execution produces `kind`'s output: the efficient
/// parallel path for a wrong-output candidate, `kind` itself otherwise.
pub fn executed_kind(kind: CandidateKind) -> CandidateKind {
    match kind {
        CandidateKind::WrongOutput(_) => CandidateKind::Correct(Quality::Efficient),
        other => other,
    }
}

/// `kind`'s output, given the output of its [`executed_kind`].
pub fn derive(kind: CandidateKind, output: Output, seed: u64) -> Output {
    match kind {
        CandidateKind::WrongOutput(mode) => corrupt(output, mode, seed),
        _ => output,
    }
}

/// The kinds other than `executed` whose output is derived from an
/// execution of `executed` (empty unless it is the efficient path).
pub fn derived_kinds(executed: CandidateKind) -> impl Iterator<Item = CandidateKind> {
    CandidateKind::ALL.into_iter().filter(move |&k| k != executed && executed_kind(k) == executed)
}

/// Perturbation large enough to defeat the default relative tolerance.
fn bump_f64(x: f64) -> f64 {
    if x.is_finite() {
        x + 1.0f64.max(x.abs() * 1e-2)
    } else {
        0.0
    }
}

fn bump_i64(x: i64) -> i64 {
    x.wrapping_add(1 + (x.abs() / 8))
}

/// Corrupt `output` per `mode`, deterministically in `seed`.
pub fn corrupt(output: Output, mode: Corruption, seed: u64) -> Output {
    let pick = |len: usize| (splitmix64(seed) as usize) % len.max(1);
    match (mode, output) {
        // -------- vector outputs ------------------------------------
        (Corruption::PerturbElement, Output::F64s(mut v)) => {
            if v.is_empty() {
                return Output::F64s(vec![1.0]);
            }
            let i = pick(v.len());
            v[i] = bump_f64(v[i]);
            Output::F64s(v)
        }
        (Corruption::PerturbElement, Output::I64s(mut v)) => {
            if v.is_empty() {
                return Output::I64s(vec![1]);
            }
            let i = pick(v.len());
            v[i] = bump_i64(v[i]);
            Output::I64s(v)
        }
        (Corruption::OffByOneShift, Output::F64s(mut v)) => {
            if v.is_empty() {
                return Output::F64s(vec![1.0]);
            }
            v.rotate_right(1);
            // A rotation of constant data is a fixed point; perturb one
            // element so the corruption is unconditional.
            let i = pick(v.len());
            v[i] = bump_f64(v[i]);
            Output::F64s(v)
        }
        (Corruption::OffByOneShift, Output::I64s(mut v)) => {
            if v.is_empty() {
                return Output::I64s(vec![1]);
            }
            v.rotate_right(1);
            let i = pick(v.len());
            v[i] = bump_i64(v[i]);
            Output::I64s(v)
        }
        (Corruption::Truncate, Output::F64s(mut v)) => {
            if v.is_empty() {
                return Output::F64s(vec![1.0]);
            }
            v.pop();
            Output::F64s(v)
        }
        (Corruption::Truncate, Output::I64s(mut v)) => {
            if v.is_empty() {
                return Output::I64s(vec![1]);
            }
            v.pop();
            Output::I64s(v)
        }
        (Corruption::WrongScale, Output::F64s(v)) => {
            if v.is_empty() {
                return Output::F64s(vec![1.0]);
            }
            Output::F64s(v.into_iter().map(|x| bump_f64(x) * 2.0).collect())
        }
        (Corruption::WrongScale, Output::I64s(v)) => {
            if v.is_empty() {
                return Output::I64s(vec![1]);
            }
            Output::I64s(v.into_iter().map(|x| bump_i64(x).wrapping_mul(2)).collect())
        }
        // -------- scalar outputs ------------------------------------
        (Corruption::WrongScale, Output::F64(x)) => Output::F64(bump_f64(x) * 2.0),
        (Corruption::WrongScale, Output::I64(x)) => Output::I64(bump_i64(x).wrapping_mul(2)),
        (_, Output::F64(x)) => Output::F64(bump_f64(x)),
        (_, Output::I64(x)) => Output::I64(bump_i64(x)),
        (_, Output::Bool(b)) => Output::Bool(!b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::Corruption::*;

    fn assert_differs(o: Output) {
        for mode in pcg_core::Corruption::ALL {
            for seed in [0u64, 1, 99] {
                let c = corrupt(o.clone(), mode, seed);
                assert!(
                    !c.approx_eq(&o),
                    "corruption {mode:?} seed {seed} left {o:?} unchanged: {c:?}"
                );
            }
        }
    }

    #[test]
    fn all_modes_change_vectors() {
        assert_differs(Output::F64s(vec![1.0, 2.0, 3.0]));
        assert_differs(Output::I64s(vec![5, 5, 5]));
        // Constant vectors (shift fixed point without the perturb).
        assert_differs(Output::F64s(vec![7.0; 8]));
        // Large magnitudes (tolerance would forgive +1.0 alone at 1e9).
        assert_differs(Output::F64s(vec![1e9, -1e9]));
    }

    #[test]
    fn all_modes_change_scalars() {
        assert_differs(Output::F64(0.0));
        assert_differs(Output::F64(1e12));
        assert_differs(Output::I64(0));
        assert_differs(Output::Bool(true));
    }

    #[test]
    fn empty_vectors_become_nonempty() {
        assert_differs(Output::F64s(vec![]));
        assert_differs(Output::I64s(vec![]));
    }

    #[test]
    fn deterministic_in_seed() {
        let o = Output::F64s((0..16).map(|i| i as f64).collect());
        let a = corrupt(o.clone(), PerturbElement, 7);
        let b = corrupt(o.clone(), PerturbElement, 7);
        assert_eq!(a, b);
        let c = corrupt(o, PerturbElement, 8);
        // Different seeds usually hit different elements (not required,
        // but the chosen index must be in range either way).
        let _ = c;
    }

    #[test]
    fn wrong_output_modes_derive_from_the_efficient_path() {
        let eff = CandidateKind::Correct(Quality::Efficient);
        let derived: Vec<_> = derived_kinds(eff).collect();
        let modes: Vec<_> = pcg_core::Corruption::ALL.map(CandidateKind::WrongOutput).into();
        assert_eq!(derived, modes);
        for k in CandidateKind::ALL {
            assert_eq!(executed_kind(executed_kind(k)), executed_kind(k), "{k:?}");
            if k != eff {
                assert_eq!(derived_kinds(k).count(), 0, "{k:?}");
            }
        }
        let o = Output::I64s(vec![1, 2, 3]);
        assert_eq!(derive(eff, o.clone(), 5), o);
        let truncated = CandidateKind::WrongOutput(Truncate);
        assert_eq!(derive(truncated, o.clone(), 5), corrupt(o, Truncate, 5));
    }

    #[test]
    fn truncate_changes_length() {
        let o = Output::I64s(vec![1, 2, 3]);
        match corrupt(o, Truncate, 0) {
            Output::I64s(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
