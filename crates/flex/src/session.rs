//! Engine selection and comparison sessions over the unified [`Legalizer`] API.
//!
//! [`EngineKind`] names every legalization engine in the workspace and
//! [`EngineKind::build`] is the one factory that turns a [`FlexConfig`] into a
//! `Box<dyn Legalizer>`, so an engine sweep is a one-liner:
//!
//! ```
//! use flex_core::session::EngineKind;
//! use flex_core::config::FlexConfig;
//! # use flex_placement::benchmark::{generate, BenchmarkSpec};
//! let cfg = FlexConfig::flex();
//! for kind in EngineKind::all() {
//!     let engine = kind.build(&cfg);
//!     let mut design = generate(&BenchmarkSpec::tiny("sweep", 1));
//!     let report = engine.legalize(&mut design);
//!     println!("{:<18} {:8.3} {:10.4}s", kind.name(), report.displacement.average, report.seconds());
//! }
//! ```
//!
//! [`FlexSession`] is the builder on top: design in, pick engine(s), run, and get one
//! [`LegalizeReport`] per engine, each computed on its own copy of the input placement.

use crate::accelerator::FlexAccelerator;
use crate::config::FlexConfig;
use flex_baselines::analytical::AnalyticalLegalizer;
use flex_baselines::cpu::CpuLegalizer;
use flex_baselines::cpu_gpu::CpuGpuLegalizer;
use flex_mgl::api::{LegalizeReport, Legalizer};
use flex_mgl::legalize::MglLegalizer;
use flex_placement::layout::Design;

/// Every legalization engine the workspace implements, as a closed enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The serial MGL legalizer (`flex_mgl::MglLegalizer`).
    MglSerial,
    /// The deterministic region-sharded parallel MGL engine
    /// (`flex_mgl::parallel::ParallelMglLegalizer`).
    MglParallel,
    /// The TCAD'22 multi-threaded CPU baseline (`flex_baselines::cpu::CpuLegalizer`).
    CpuMgl,
    /// The DATE'22 CPU-GPU baseline (`flex_baselines::cpu_gpu::CpuGpuLegalizer`).
    CpuGpu,
    /// The ISPD'25 LEGALM-style analytical baseline
    /// (`flex_baselines::analytical::AnalyticalLegalizer`).
    Analytical,
    /// The FLEX accelerator (`crate::accelerator::FlexAccelerator`).
    Flex,
}

impl EngineKind {
    /// All six engines, in the order the paper's comparison tables list them.
    pub const fn all() -> [EngineKind; 6] {
        [
            EngineKind::MglSerial,
            EngineKind::MglParallel,
            EngineKind::CpuMgl,
            EngineKind::CpuGpu,
            EngineKind::Analytical,
            EngineKind::Flex,
        ]
    }

    /// Stable machine-readable name; matches [`Legalizer::name`] of the built engine.
    pub const fn name(self) -> &'static str {
        match self {
            EngineKind::MglSerial => "mgl-serial",
            EngineKind::MglParallel => "mgl-parallel",
            EngineKind::CpuMgl => "tcad22-cpu",
            EngineKind::CpuGpu => "date22-cpu-gpu",
            EngineKind::Analytical => "ispd25-analytical",
            EngineKind::Flex => "flex",
        }
    }

    /// Build the engine for `config`.
    ///
    /// The MGL family and FLEX derive their algorithm settings from `config`
    /// ([`FlexConfig::mgl_config`], `host_threads`); the three baselines keep the
    /// configurations of the papers they reproduce (the TCAD'22 engine only takes its worker
    /// count from `config.host_threads`), so a sweep compares the *published* systems, not
    /// six reconfigurations of one algorithm.
    pub fn build(self, config: &FlexConfig) -> Box<dyn Legalizer> {
        match self {
            EngineKind::MglSerial => Box::new(MglLegalizer::new(config.mgl_config())),
            EngineKind::MglParallel => Box::new(config.parallel_host_engine()),
            EngineKind::CpuMgl => Box::new(CpuLegalizer::new(config.host_threads.max(1))),
            EngineKind::CpuGpu => Box::new(CpuGpuLegalizer::default()),
            EngineKind::Analytical => Box::new(AnalyticalLegalizer::default()),
            EngineKind::Flex => Box::new(FlexAccelerator::new(config.clone())),
        }
    }
}

/// One engine's run within a [`FlexSession`]: which engine, its uniform report, and the
/// legalized copy of the session's design (so placements can be compared cell for cell).
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The engine that ran.
    pub kind: EngineKind,
    /// Its uniform report.
    pub report: LegalizeReport,
    /// The legalized copy of the session design this engine produced.
    pub design: Design,
}

/// Builder-style comparison session: one input design, any number of engines, uniform reports.
///
/// Each selected engine legalizes its own clone of the input design, so runs are independent
/// and their final placements remain inspectable side by side.
///
/// ```
/// use flex_core::config::FlexConfig;
/// use flex_core::session::{EngineKind, FlexSession};
/// # use flex_placement::benchmark::{generate, BenchmarkSpec};
/// let design = generate(&BenchmarkSpec::tiny("session", 2));
/// let runs = FlexSession::new(design)
///     .with_config(FlexConfig::flex())
///     .engine(EngineKind::CpuGpu)
///     .engine(EngineKind::Flex)
///     .run();
/// assert_eq!(runs.len(), 2);
/// assert!(runs.iter().all(|r| r.report.legal));
/// ```
#[derive(Debug, Clone)]
pub struct FlexSession {
    design: Design,
    config: FlexConfig,
    engines: Vec<(EngineKind, Option<FlexConfig>)>,
}

impl FlexSession {
    /// Start a session on `design` with the full FLEX configuration and no engines selected
    /// (running an empty selection defaults to [`EngineKind::Flex`]).
    pub fn new(design: Design) -> Self {
        Self {
            design,
            config: FlexConfig::flex(),
            engines: Vec::new(),
        }
    }

    /// Replace the session-wide configuration (builder style).
    pub fn with_config(mut self, config: FlexConfig) -> Self {
        self.config = config;
        self
    }

    /// Add an engine using the session configuration (builder style).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engines.push((kind, None));
        self
    }

    /// Add an engine with its own configuration override (builder style) — e.g. the TCAD'22
    /// baseline at 8 worker threads while FLEX keeps a serial host.
    ///
    /// Note that [`EngineKind::build`] reads `config` only for the engines that are derived
    /// from it (the MGL family, the TCAD'22 worker count, FLEX); an override passed for
    /// [`EngineKind::CpuGpu`] or [`EngineKind::Analytical`] has no effect, since those
    /// baselines keep the fixed configurations of the papers they reproduce.
    pub fn engine_with(mut self, kind: EngineKind, config: FlexConfig) -> Self {
        self.engines.push((kind, Some(config)));
        self
    }

    /// Add several engines using the session configuration (builder style).
    pub fn engines(mut self, kinds: impl IntoIterator<Item = EngineKind>) -> Self {
        self.engines.extend(kinds.into_iter().map(|k| (k, None)));
        self
    }

    /// Add all six engines (builder style).
    pub fn all_engines(self) -> Self {
        self.engines(EngineKind::all())
    }

    /// The input design the session clones for every engine.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The session-wide configuration.
    pub fn config(&self) -> &FlexConfig {
        &self.config
    }

    /// Run every selected engine on a fresh copy of the input design, in selection order.
    pub fn run(&self) -> Vec<EngineRun> {
        let selection: Vec<(EngineKind, Option<&FlexConfig>)> = if self.engines.is_empty() {
            vec![(EngineKind::Flex, None)]
        } else {
            self.engines.iter().map(|(k, c)| (*k, c.as_ref())).collect()
        };
        selection
            .into_iter()
            .map(|(kind, config)| self.run_one(kind, config.unwrap_or(&self.config)))
            .collect()
    }

    /// Run a single engine on a fresh copy of the input design.
    pub fn run_engine(&self, kind: EngineKind) -> EngineRun {
        self.run_one(kind, &self.config)
    }

    fn run_one(&self, kind: EngineKind, config: &FlexConfig) -> EngineRun {
        let _span = flex_obs::span!("session.run_engine");
        let engine = kind.build(config);
        let mut design = self.design.clone();
        let report = engine.legalize(&mut design);
        EngineRun {
            kind,
            report,
            design,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::benchmark::{generate, BenchmarkSpec};
    use flex_placement::legality::check_legality_with;

    #[test]
    fn factory_names_match_the_built_engines() {
        let cfg = FlexConfig::flex();
        for kind in EngineKind::all() {
            assert_eq!(kind.build(&cfg).name(), kind.name());
        }
    }

    #[test]
    fn every_engine_runs_through_the_factory() {
        let cfg = FlexConfig::flex().with_host_threads(2);
        for kind in EngineKind::all() {
            let mut d = generate(&BenchmarkSpec::tiny("factory", 61));
            let report = kind.build(&cfg).legalize(&mut d);
            assert!(
                report.legal,
                "{} produced an illegal placement",
                kind.name()
            );
            assert!(check_legality_with(&d, true).is_legal());
            assert_eq!(report.engine, kind.name());
        }
    }

    #[test]
    fn session_defaults_to_flex_and_keeps_the_input_design_pristine() {
        let design = generate(&BenchmarkSpec::tiny("session-default", 62));
        let premove_free = design.clone();
        let session = FlexSession::new(design);
        let runs = session.run();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].kind, EngineKind::Flex);
        assert!(runs[0].report.legal);
        assert_eq!(runs[0].report.engine, EngineKind::Flex.name());
        // the session design was cloned, not legalized in place
        let before: Vec<(i64, i64)> = premove_free.cells.iter().map(|c| (c.x, c.y)).collect();
        let after: Vec<(i64, i64)> = session.design().cells.iter().map(|c| (c.x, c.y)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn per_engine_config_overrides_apply() {
        let design = generate(&BenchmarkSpec::tiny("session-override", 63));
        let mut direct = design.clone();
        let runs = FlexSession::new(design)
            .engine_with(EngineKind::CpuMgl, FlexConfig::flex().with_host_threads(4))
            .engine(EngineKind::MglSerial)
            .run();
        assert_eq!(runs.len(), 2);
        // the override reached the engine: the session's run is the 4-thread TCAD'22 run
        let cpu = flex_baselines::cpu::CpuLegalizer::new(4).legalize(&mut direct);
        assert!(cpu.batches > 0);
        let xy = |d: &Design| d.cells.iter().map(|c| (c.x, c.y)).collect::<Vec<_>>();
        assert_eq!(xy(&runs[0].design), xy(&direct));
        assert_eq!(runs[1].report.engine, "mgl-serial");
    }
}
