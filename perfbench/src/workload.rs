//! The benchmark's workloads: which grid, at which size, on which
//! process topology.

use pcg_core::task::all_tasks;
use pcg_core::{ExecutionModel, PromptVariant, TaskId};
use pcg_harness::EvalConfig;

/// Input-size divisor of `mpi-variants`.
pub const MPI_SIZE_DIVISOR: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `EvalConfig::quick()` run of the whole 7 × 420 grid.
    QuickGrid,
    /// The 360 non-MPI tasks × 7 models at paper-scale inputs.
    ShmemPaper,
    /// Four prompt variants × 7 models × the 360 non-MPI tasks at quick
    /// size, on two shard workers plus a merge.
    ShardedVariants,
    /// Four prompt variants × 7 models × the 60 MPI tasks at small inputs.
    MpiVariants,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QuickGrid,
        Workload::ShmemPaper,
        Workload::ShardedVariants,
        Workload::MpiVariants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickGrid => "quick-grid",
            Workload::ShmemPaper => "shmem-paper",
            Workload::ShardedVariants => "sharded-variants",
            Workload::MpiVariants => "mpi-variants",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The evaluation config; `seed` becomes `EvalConfig::seed`.
    pub fn config(self, seed: u64) -> EvalConfig {
        let mut cfg = EvalConfig {
            seed,
            ..EvalConfig::quick()
        };
        match self {
            Workload::QuickGrid => {}
            Workload::ShmemPaper => cfg.size_divisor = 1,
            Workload::ShardedVariants => cfg.prompt_variants = PromptVariant::ALL.to_vec(),
            Workload::MpiVariants => {
                cfg.prompt_variants = PromptVariant::ALL.to_vec();
                cfg.size_divisor = MPI_SIZE_DIVISOR;
            }
        }
        cfg
    }

    /// The task subset (`None` is the full 420-task grid).
    pub fn tasks(self) -> Option<Vec<TaskId>> {
        match self {
            Workload::QuickGrid => None,
            Workload::ShmemPaper | Workload::ShardedVariants => Some(
                all_tasks()
                    .filter(|t| t.model != ExecutionModel::Mpi)
                    .collect(),
            ),
            Workload::MpiVariants => Some(
                all_tasks()
                    .filter(|t| t.model == ExecutionModel::Mpi)
                    .collect(),
            ),
        }
    }

    /// Scheduler workers per evaluating process, sized for two cores.
    pub fn jobs(self) -> usize {
        match self {
            Workload::QuickGrid | Workload::ShmemPaper | Workload::MpiVariants => 2,
            Workload::ShardedVariants => 1,
        }
    }

    /// Worker processes (1 means a single in-process evaluation).
    pub fn shards(self) -> u32 {
        match self {
            Workload::QuickGrid | Workload::ShmemPaper | Workload::MpiVariants => 1,
            Workload::ShardedVariants => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_grid_sizes() {
        let cells = |w: Workload| {
            let tasks = w.tasks().map_or(420, |t| t.len());
            tasks * 7 * w.config(1).prompt_variants.len()
        };
        assert_eq!(cells(Workload::QuickGrid), 2940);
        assert_eq!(cells(Workload::ShmemPaper), 2520);
        assert_eq!(cells(Workload::ShardedVariants), 10_080);
        assert_eq!(cells(Workload::MpiVariants), 1680);
        assert_eq!(Workload::ShmemPaper.config(1).size_divisor, 1);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.config(42).seed, 42);
        }
    }
}
