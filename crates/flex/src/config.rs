//! FLEX accelerator configuration and ablation presets.

use flex_fpga::clock::ClockDomain;
use flex_fpga::link::LinkModel;
use flex_mgl::config::{MglConfig, OrderingStrategy};
use flex_mgl::parallel::ParallelMglLegalizer;

/// Which legalization steps run on the FPGA (Sec. 3.1.1 / Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskAssignment {
    /// The FLEX assignment: steps (a), (b), (c), (e) on the CPU, step (d) — FOP — on the FPGA.
    FopOnFpga,
    /// The Fig. 10 alternative: steps (d) *and* (e) on the FPGA, which forces every updated cell
    /// position to travel back over the link.
    FopAndUpdateOnFpga,
    /// Everything on the CPU (the software baseline; no FPGA involved).
    AllCpu,
}

/// How the FOP operators are pipelined on the FPGA (Sec. 3.2 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Normal pipeline: each operator finishes all items and parks results in RAM before the
    /// next operator starts.
    Normal,
    /// The multi-granularity pipeline: stream I/O inside the forward/backward traversals,
    /// coarse chaining between them.
    MultiGranularity,
}

/// The SACS architecture options of Sec. 4.3 (the Fig. 9 ablation steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SacsArchConfig {
    /// `SACS-Ar`: the customized dataflow/architecture (pipelined PE, II ≈ 1 per cell) instead
    /// of a sequential evaluation of the dataflow stages.
    pub pipelined: bool,
    /// `SACS-ImpBW`: odd-even banking of LSC/CST, ping-pong initialization, the 2× memory clock
    /// domain and LCT duplication — the bandwidth package for multi-row-height cell access.
    pub improved_bandwidth: bool,
    /// `SACS-Paral`: run the left-move and right-move phases in parallel.
    pub parallel_phases: bool,
}

impl SacsArchConfig {
    /// Plain SACS algorithm mapped on the FPGA without the architecture optimizations.
    pub fn algorithm_only() -> Self {
        Self {
            pipelined: false,
            improved_bandwidth: false,
            parallel_phases: false,
        }
    }

    /// The full SACS architecture (all optimizations on).
    pub fn full() -> Self {
        Self {
            pipelined: true,
            improved_bandwidth: true,
            parallel_phases: true,
        }
    }
}

/// Configuration of the FLEX accelerator.
#[derive(Debug, Clone)]
pub struct FlexConfig {
    /// Number of parallel FOP PEs (the paper evaluates 1 and 2; Table 2 shows both).
    pub num_fop_pes: u64,
    /// PE clock domain (285 MHz on the Alveo U50).
    pub pe_clock: ClockDomain,
    /// Cell shifting on the FPGA: SACS with these architecture options (Sec. 4.3), or `None`
    /// for the original multi-pass algorithm (the Fig. 8 baseline). Like `pipeline` it drives
    /// the cycle model only: every software run records the work of both algorithms.
    pub sacs: Option<SacsArchConfig>,
    /// FOP breakpoint pipeline organization on the FPGA. It drives the cycle model only: the
    /// software kernel runs one breakpoint chain whatever the mode.
    pub pipeline: PipelineMode,
    /// Task split between CPU and FPGA.
    pub assignment: TaskAssignment,
    /// Target-cell processing order used by the host part of the flow.
    pub ordering: OrderingStrategy,
    /// Whether the ping-pong preload of the next region is enabled (Sec. 3.1.2).
    pub pingpong_preload: bool,
    /// Host link model.
    pub link: LinkModel,
    /// Cycles charged for the cross-PE synchronization that merges two insertion-point results
    /// ("a simple synchronization operation … taking several clock cycles", Sec. 5.4).
    pub pe_sync_cycles: u64,
    /// Worker threads for the host-side steps (a)–(c): with more than one, the functional
    /// legalization runs on `flex_mgl::parallel::ParallelMglLegalizer`, which speculates region
    /// extraction and FOP for batches of the serial order while producing the exact serial
    /// placement.
    pub host_threads: usize,
}

impl Default for FlexConfig {
    fn default() -> Self {
        Self {
            num_fop_pes: 2,
            pe_clock: ClockDomain::FLEX_PE,
            sacs: Some(SacsArchConfig::full()),
            pipeline: PipelineMode::MultiGranularity,
            assignment: TaskAssignment::FopOnFpga,
            ordering: OrderingStrategy::SlidingWindowDensity,
            pingpong_preload: true,
            link: LinkModel::default(),
            pe_sync_cycles: 6,
            host_threads: 1,
        }
    }
}

impl FlexConfig {
    /// The full FLEX configuration evaluated in Table 1 (2 FOP PEs, everything enabled).
    pub fn flex() -> Self {
        Self::default()
    }

    /// The Fig. 8 baseline: original shifting, normal pipeline, one PE.
    pub fn normal_pipeline_baseline() -> Self {
        Self {
            num_fop_pes: 1,
            sacs: None,
            pipeline: PipelineMode::Normal,
            ..Self::default()
        }
    }

    /// Fig. 8 step 2: add SACS (still a normal pipeline, one PE).
    pub fn with_sacs_only() -> Self {
        Self {
            num_fop_pes: 1,
            sacs: Some(SacsArchConfig::full()),
            pipeline: PipelineMode::Normal,
            ..Self::default()
        }
    }

    /// Fig. 8 step 3: SACS + multi-granularity pipeline, one PE.
    pub fn with_multi_granularity() -> Self {
        Self {
            num_fop_pes: 1,
            ..Self::default()
        }
    }

    /// Number of FOP PEs (builder style).
    pub fn with_pes(mut self, pes: u64) -> Self {
        self.num_fop_pes = pes.max(1);
        self
    }

    /// Set the task assignment (builder style).
    pub fn with_assignment(mut self, assignment: TaskAssignment) -> Self {
        self.assignment = assignment;
        self
    }

    /// Set the host-side worker-thread count (builder style). Values above one run the
    /// CPU-side steps (a)–(c) on the parallel engine.
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// The parallel host engine this configuration describes: `host_threads` workers. It is
    /// `EngineKind::MglParallel`, and FLEX runs its host steps on it when `host_threads > 1`.
    pub fn parallel_host_engine(&self) -> ParallelMglLegalizer {
        ParallelMglLegalizer::new(self.host_threads.max(1), self.mgl_config())
    }

    /// Derive the `flex-mgl` configuration that matches this accelerator configuration (used to
    /// run the functional legalization on the host and collect the work trace).
    pub fn mgl_config(&self) -> MglConfig {
        MglConfig {
            ordering: self.ordering,
            collect_trace: true,
            ..MglConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_flex() {
        let c = FlexConfig::default();
        assert_eq!(c.num_fop_pes, 2);
        assert_eq!(c.assignment, TaskAssignment::FopOnFpga);
        assert_eq!(c.pipeline, PipelineMode::MultiGranularity);
        assert_eq!(c.sacs, Some(SacsArchConfig::full()));
    }

    #[test]
    fn ablation_presets_are_ordered() {
        let base = FlexConfig::normal_pipeline_baseline();
        assert_eq!(base.pipeline, PipelineMode::Normal);
        assert_eq!(base.sacs, None);
        let sacs = FlexConfig::with_sacs_only();
        assert_eq!(sacs.sacs, Some(SacsArchConfig::full()));
        assert_eq!(sacs.pipeline, PipelineMode::Normal);
        let mg = FlexConfig::with_multi_granularity();
        assert_eq!(mg.pipeline, PipelineMode::MultiGranularity);
        assert_eq!(mg.num_fop_pes, 1);
        assert_eq!(FlexConfig::flex().num_fop_pes, 2);
    }

    #[test]
    fn mgl_config_reflects_accelerator_choices() {
        let cfg = FlexConfig::default().mgl_config();
        assert!(cfg.collect_trace);
        assert_eq!(cfg.ordering, OrderingStrategy::SlidingWindowDensity);
        // the Fig. 8 baseline costs other hardware for the same software run
        let cfg2 = FlexConfig::normal_pipeline_baseline().mgl_config();
        assert!(cfg2.collect_trace);
        assert_eq!(cfg2.ordering, OrderingStrategy::SlidingWindowDensity);
    }

    #[test]
    fn builders() {
        let c = FlexConfig::default()
            .with_pes(3)
            .with_assignment(TaskAssignment::FopAndUpdateOnFpga);
        assert_eq!(c.num_fop_pes, 3);
        assert_eq!(c.assignment, TaskAssignment::FopAndUpdateOnFpga);
        assert_eq!(FlexConfig::default().with_pes(0).num_fop_pes, 1);
    }
}
