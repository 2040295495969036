//! Cycle model of a FOP PE: cell shifting plus the breakpoint pipeline (Sec. 3.2).
//!
//! One FOP PE evaluates insertion points: for each point it runs cell shifting (SACS or the
//! original algorithm, as `FlexConfig::sacs` selects) and then the breakpoint chain (sort →
//! merge → slopes → value). The model combines the SACS PE cycle model with the pipeline
//! models of `flex-fpga` and adds the cluster-level parallelism: with two FOP PEs, two
//! insertion points of the *same* localRegion are evaluated concurrently and merged with a
//! few synchronization cycles (Sec. 5.4) — this is the insertion-point-level parallelism that
//! avoids the heavy region-level synchronization of the CPU/GPU baselines.

use crate::config::{FlexConfig, PipelineMode};
use crate::sacs_arch::SacsPeModel;
use flex_fpga::clock::Cycles;
use flex_fpga::pipeline::{
    fine_grained_cycles, normal_pipeline_cycles, original_fop_operators, reorganized_fop_groups,
};
use flex_mgl::stats::RegionWork;

/// Cycle model of the FOP PE cluster.
#[derive(Debug, Clone)]
pub struct FopPeModel {
    /// Accelerator configuration.
    pub config: FlexConfig,
}

impl FopPeModel {
    /// Build the model from an accelerator configuration.
    pub fn new(config: FlexConfig) -> Self {
        Self { config }
    }

    /// Cycles one PE needs for the cell-shifting work of a region: the SACS PE's, or the
    /// original multi-pass algorithm's when `FlexConfig::sacs` is `None`.
    pub fn shift_cycles(&self, work: &RegionWork) -> Cycles {
        match self.config.sacs {
            Some(arch) => SacsPeModel::new(arch).region_cycles(work),
            None => SacsPeModel::original_shift_cycles(work),
        }
    }

    /// Cycles one PE needs for the breakpoint pipeline of a region (all its insertion points).
    pub fn breakpoint_cycles(&self, work: &RegionWork) -> Cycles {
        let items = work.breakpoints;
        match self.config.pipeline {
            PipelineMode::Normal => normal_pipeline_cycles(&original_fop_operators(), items),
            PipelineMode::MultiGranularity => {
                let (fwd, bwd) = reorganized_fop_groups();
                fine_grained_cycles(&fwd, items) + fine_grained_cycles(&bwd, items)
            }
        }
    }

    /// Cycles a single PE needs for the whole FOP of one region.
    pub fn single_pe_region_cycles(&self, work: &RegionWork) -> Cycles {
        let shift = self.shift_cycles(work);
        let bp = self.breakpoint_cycles(work);
        match self.config.pipeline {
            // normal pipeline: shifting finishes, parks its results, then the breakpoint chain
            // starts
            PipelineMode::Normal => shift + bp + Cycles(2 * work.breakpoints),
            // multi-granularity: shifting streams positions straight into `sort bp`, so the
            // forward part overlaps with it; only the backward traversal is serialized
            PipelineMode::MultiGranularity => {
                let (fwd, bwd) = reorganized_fop_groups();
                let fwd_c = fine_grained_cycles(&fwd, work.breakpoints);
                let bwd_c = fine_grained_cycles(&bwd, work.breakpoints);
                shift.max(fwd_c) + bwd_c
            }
        }
    }

    /// Cycles the PE *cluster* needs for one region, exploiting insertion-point-level
    /// parallelism across `num_fop_pes` PEs.
    pub fn cluster_region_cycles(&self, work: &RegionWork) -> Cycles {
        let single = self.single_pe_region_cycles(work);
        let pes = self.config.num_fop_pes.max(1);
        if pes == 1 {
            return single;
        }
        let points = work.feasible_points.max(1);
        let usable = pes.min(points);
        let spread = Cycles((single.count() as f64 / usable as f64).ceil() as u64);
        // each merge of concurrent point results costs a few synchronization cycles
        let syncs = Cycles(self.config.pe_sync_cycles * points.div_ceil(usable));
        spread + syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::cell::CellId;

    fn work() -> RegionWork {
        RegionWork {
            target: CellId(0),
            insertion_points: 40,
            feasible_points: 32,
            breakpoints: 480,
            subcell_visits: 700,
            shift_passes: 64,
            sorted_cells: 600,
            bound_queries: 780,
            local_cells: 25,
            ..RegionWork::default()
        }
    }

    #[test]
    fn multi_granularity_beats_normal_pipeline() {
        let normal = FopPeModel::new(FlexConfig::with_sacs_only());
        let mg = FopPeModel::new(FlexConfig::with_multi_granularity());
        let w = work();
        let a = normal.single_pe_region_cycles(&w);
        let b = mg.single_pe_region_cycles(&w);
        assert!(b < a, "multi-granularity {b:?} should beat normal {a:?}");
        let speedup = a.count() as f64 / b.count() as f64;
        assert!(speedup > 1.2 && speedup < 5.0, "speedup {speedup:.2}");
    }

    #[test]
    fn sacs_plus_architecture_beats_original_shifting() {
        let baseline = FopPeModel::new(FlexConfig::normal_pipeline_baseline());
        let sacs = FopPeModel::new(FlexConfig::with_sacs_only());
        let w = work();
        let a = baseline.single_pe_region_cycles(&w);
        let b = sacs.single_pe_region_cycles(&w);
        // The cycle model yields ≈1.4× on this synthetic region mix (the breakpoint pipeline,
        // identical in both configurations, dilutes the shifting speedup); the full Fig. 8
        // stack is what reaches the paper's multi-x numbers (see full_flex_stack_is_fastest).
        let speedup = a.count() as f64 / b.count() as f64;
        assert!(speedup > 1.25, "SACS step speedup {speedup:.2} too small");
    }

    #[test]
    fn two_pes_scale_nearly_linearly() {
        let one = FopPeModel::new(FlexConfig::flex().with_pes(1));
        let two = FopPeModel::new(FlexConfig::flex().with_pes(2));
        let w = work();
        let a = one.cluster_region_cycles(&w);
        let b = two.cluster_region_cycles(&w);
        let speedup = a.count() as f64 / b.count() as f64;
        assert!(
            (1.5..=2.0).contains(&speedup),
            "2-PE speedup {speedup:.2} should be near-linear but below 2×"
        );
    }

    #[test]
    fn extra_pes_are_useless_without_enough_points() {
        let mut w = work();
        w.feasible_points = 1;
        let one = FopPeModel::new(FlexConfig::flex().with_pes(1));
        let four = FopPeModel::new(FlexConfig::flex().with_pes(4));
        assert!(four.cluster_region_cycles(&w) >= one.cluster_region_cycles(&w));
    }

    #[test]
    fn full_flex_stack_is_fastest() {
        let w = work();
        let base = FopPeModel::new(FlexConfig::normal_pipeline_baseline());
        let full = FopPeModel::new(FlexConfig::flex());
        let a = base.cluster_region_cycles(&w);
        let b = full.cluster_region_cycles(&w);
        let speedup = a.count() as f64 / b.count() as f64;
        assert!(
            speedup > 3.0,
            "end-to-end FPGA-side speedup {speedup:.2} (paper: ~5-9x in Fig. 8)"
        );
    }
}
