//! The unified legalizer API: one trait, one report, across every engine.
//!
//! The workspace implements six legalization engines — the serial and parallel MGL engines in
//! this crate, the TCAD'22 CPU, DATE'22 CPU-GPU and ISPD'25 analytical baselines in
//! `flex-baselines`, and the FLEX accelerator in `flex-core` — and each grew its own result
//! struct. The [`Legalizer`] trait is the seam they all plug into: an object-safe
//! `legalize(&mut Design) -> LegalizeReport`, so engine sweeps, the Table 1 harness and new
//! backends can treat every engine as a `Box<dyn Legalizer>`.
//!
//! [`LegalizeReport`] carries the cross-engine facts every caller needs — legality, the
//! displacement summary, placement counts, the wall-clock/estimated runtime split, and the
//! optional [`WorkTrace`]. A caller that needs an engine's own result (FPGA resources, GPU
//! sync time, shard stats, …) holds the concrete engine and calls its inherent `legalize`,
//! which returns that result type directly:
//!
//! ```
//! use flex_mgl::api::Legalizer;
//! use flex_mgl::{MglConfig, MglLegalizer};
//! use flex_placement::benchmark::{generate, BenchmarkSpec};
//!
//! let spec = BenchmarkSpec::tiny("api", 1);
//! let engine: Box<dyn Legalizer> = Box::new(MglLegalizer::new(MglConfig::default()));
//! let report = engine.legalize(&mut generate(&spec));
//! assert!(report.legal);
//!
//! let full = MglLegalizer::new(MglConfig::default()).legalize(&mut generate(&spec));
//! assert_eq!(full.placed_in_region, report.placed_in_region);
//! ```

use crate::legalize::{LegalizeResult, MglLegalizer};
use crate::parallel::{ParallelLegalizeResult, ParallelMglLegalizer};
use crate::stats::WorkTrace;
use flex_placement::cell::CellId;
use flex_placement::layout::Design;
use flex_placement::metrics::{displacement_stats, DisplacementStats};
use std::time::Duration;

/// A legalization engine behind the unified API.
///
/// Object-safe by design: `Box<dyn Legalizer>` is how the `flex-core` engine factory, the
/// benchmark harness and the cross-engine contract tests hold engines. Every engine keeps its
/// richer inherent `legalize` entry point; the trait impl wraps it and condenses the result
/// into a [`LegalizeReport`].
pub trait Legalizer {
    /// Stable machine-readable engine name (e.g. `"mgl-serial"`, `"flex"`).
    fn name(&self) -> &'static str;

    /// Legalize every movable cell of `design` in place and report uniformly.
    fn legalize(&self, design: &mut Design) -> LegalizeReport;
}

/// Displacement summary of a legalized placement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DisplacementSummary {
    /// Average displacement `S_am` (Eq. (2) of the paper: mean of per-height-group means).
    pub average: f64,
    /// Maximum single-cell displacement.
    pub max: f64,
    /// Total displacement summed over all movable cells.
    pub total: f64,
}

impl DisplacementSummary {
    /// Condense full placement metrics into the report summary.
    pub fn from_stats(stats: &DisplacementStats) -> Self {
        Self {
            average: stats.average,
            max: stats.max,
            total: stats.total,
        }
    }

    /// Measure a design directly.
    pub fn of(design: &Design) -> Self {
        Self::from_stats(&displacement_stats(design))
    }
}

/// The runtime split every engine reports: what was measured on this host, and what the
/// engine's hardware model estimates for its target platform (FPGA, GPU), if it has one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeBreakdown {
    /// Measured wall-clock time of the functional run on this host.
    pub wall: Duration,
    /// Modeled runtime on the engine's target hardware (`None` for pure-CPU engines).
    pub estimated: Option<Duration>,
}

impl RuntimeBreakdown {
    /// A purely measured runtime (CPU engines).
    pub fn measured(wall: Duration) -> Self {
        Self {
            wall,
            estimated: None,
        }
    }

    /// A measured runtime plus a hardware-model estimate (GPU/FPGA engines).
    pub fn modeled(wall: Duration, estimated: Duration) -> Self {
        Self {
            wall,
            estimated: Some(estimated),
        }
    }

    /// The runtime this engine is *compared on*: the hardware estimate when one exists
    /// (Table 1 reports the DATE'22/ISPD'25/FLEX columns on their modeled platforms),
    /// otherwise the measured wall clock.
    pub fn reported(&self) -> Duration {
        self.estimated.unwrap_or(self.wall)
    }
}

/// Uniform outcome of a legalization run, produced by every [`Legalizer`].
#[derive(Clone)]
pub struct LegalizeReport {
    /// Name of the engine that produced the report (matches [`Legalizer::name`]).
    pub engine: &'static str,
    /// Whether the final placement passes the full legality check.
    pub legal: bool,
    /// Number of movable cells the run processed.
    pub cells: usize,
    /// Displacement statistics of the final placement.
    pub displacement: DisplacementSummary,
    /// Wall-clock / estimated runtime split.
    pub runtime: RuntimeBreakdown,
    /// Cells placed through the engine's primary mechanism (FOP in a localRegion for the MGL
    /// family; row relaxation for the analytical engine). Engines that do not distinguish an
    /// internal fallback report every placed cell here.
    pub placed_in_region: usize,
    /// Cells placed by a whole-die fallback scan.
    pub fallback_placed: usize,
    /// Cells that could not be placed at all.
    pub failed: Vec<CellId>,
    /// Per-region work trace, when the engine collected one.
    pub trace: Option<WorkTrace>,
}

impl std::fmt::Debug for LegalizeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LegalizeReport")
            .field("engine", &self.engine)
            .field("legal", &self.legal)
            .field("cells", &self.cells)
            .field("displacement", &self.displacement)
            .field("runtime", &self.runtime)
            .field("placed_in_region", &self.placed_in_region)
            .field("fallback_placed", &self.fallback_placed)
            .field("failed", &self.failed)
            .field("trace_len", &self.trace.as_ref().map(WorkTrace::len))
            .finish()
    }
}

impl LegalizeReport {
    /// Start a report from the facts every engine has.
    pub fn new(engine: &'static str, legal: bool, cells: usize, design: &Design) -> Self {
        Self {
            engine,
            legal,
            cells,
            displacement: DisplacementSummary::of(design),
            runtime: RuntimeBreakdown::default(),
            placed_in_region: 0,
            fallback_placed: 0,
            failed: Vec::new(),
            trace: None,
        }
    }

    /// Set the runtime split (builder style).
    pub fn with_runtime(mut self, runtime: RuntimeBreakdown) -> Self {
        self.runtime = runtime;
        self
    }

    /// Set the placement counters (builder style). `placed_in_region` is clamped so that
    /// `placed_in_region + fallback_placed + failed.len() == cells` always holds, which is the
    /// accounting invariant the contract tests assert across engines.
    pub fn with_counts(
        mut self,
        placed_in_region: usize,
        fallback_placed: usize,
        failed: Vec<CellId>,
    ) -> Self {
        if placed_in_region + fallback_placed + failed.len() == self.cells {
            // engines with exact counters keep them
            self.placed_in_region = placed_in_region;
            self.fallback_placed = fallback_placed;
        } else {
            // the clamp only rewrites counts that could not sum to `cells` (e.g. a
            // double-counted fallback in a retry loop, or an engine without the split).
            // Under-accounting — fewer placements claimed than cells processed — is never a
            // benign double count, it means an engine lost cells; surface it in debug/test
            // builds instead of silently inflating `placed_in_region`.
            debug_assert!(
                placed_in_region + fallback_placed + failed.len() >= self.cells,
                "{}: counters under-account ({placed_in_region} + {fallback_placed} + {} < {})",
                self.engine,
                failed.len(),
                self.cells,
            );
            self.fallback_placed = fallback_placed.min(self.cells.saturating_sub(failed.len()));
            self.placed_in_region = self
                .cells
                .saturating_sub(self.fallback_placed + failed.len());
        }
        self.failed = failed;
        self
    }

    /// Attach the work trace (builder style).
    pub fn with_trace(mut self, trace: Option<WorkTrace>) -> Self {
        self.trace = trace;
        self
    }

    /// Runtime the engine is compared on, in seconds (see [`RuntimeBreakdown::reported`]).
    pub fn seconds(&self) -> f64 {
        self.runtime.reported().as_secs_f64()
    }

    /// Cells successfully placed (primary mechanism + fallback).
    pub fn placed_total(&self) -> usize {
        self.placed_in_region + self.fallback_placed
    }
}

/// Build the report shared by the two MGL engines (serial and parallel) from their
/// [`LegalizeResult`], re-measuring the displacement summary off the legalized design.
fn report_from_mgl_result(
    engine: &'static str,
    design: &Design,
    result: LegalizeResult,
) -> LegalizeReport {
    LegalizeReport::new(engine, result.legal, design.num_movable(), design)
        .with_runtime(RuntimeBreakdown::measured(result.runtime))
        .with_counts(
            result.placed_in_region,
            result.fallback_placed,
            result.failed,
        )
        .with_trace(result.trace)
}

impl Legalizer for MglLegalizer {
    fn name(&self) -> &'static str {
        "mgl-serial"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let result = MglLegalizer::legalize(self, design);
        report_from_mgl_result(self.name(), design, result)
    }
}

impl Legalizer for ParallelMglLegalizer {
    fn name(&self) -> &'static str {
        "mgl-parallel"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let out: ParallelLegalizeResult = ParallelMglLegalizer::legalize(self, design);
        report_from_mgl_result(self.name(), design, out.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MglConfig, OrderingStrategy};
    use flex_placement::benchmark::{generate, BenchmarkSpec};

    fn static_cfg() -> MglConfig {
        MglConfig {
            ordering: OrderingStrategy::SizeDescending,
            ..MglConfig::default()
        }
    }

    #[test]
    fn trait_report_matches_the_inherent_result() {
        let spec = BenchmarkSpec::tiny("api-eq", 3);
        let mut d_trait = generate(&spec);
        let mut d_inherent = generate(&spec);
        let engine = MglLegalizer::new(static_cfg());
        let report = Legalizer::legalize(&engine, &mut d_trait);
        let result = engine.legalize(&mut d_inherent);
        assert_eq!(report.engine, "mgl-serial");
        assert_eq!(report.legal, result.legal);
        assert_eq!(report.placed_in_region, result.placed_in_region);
        assert_eq!(report.fallback_placed, result.fallback_placed);
        assert_eq!(report.failed, result.failed);
        assert!((report.displacement.average - result.average_displacement).abs() < 1e-12);
        assert!((report.displacement.max - result.max_displacement).abs() < 1e-12);
        assert!(report.displacement.total >= report.displacement.max);
    }

    #[test]
    fn boxed_engines_dispatch_dynamically() {
        let engines: Vec<Box<dyn Legalizer>> = vec![
            Box::new(MglLegalizer::new(static_cfg())),
            Box::new(ParallelMglLegalizer::new(2, static_cfg())),
        ];
        let spec = BenchmarkSpec::tiny("api-dyn", 4);
        let mut reports = Vec::new();
        for engine in &engines {
            let mut d = generate(&spec);
            reports.push(engine.legalize(&mut d));
        }
        assert_eq!(reports[0].engine, "mgl-serial");
        assert_eq!(reports[1].engine, "mgl-parallel");
        // the parallel engine is placement-identical to the serial one
        assert_eq!(
            reports[0].displacement.average,
            reports[1].displacement.average
        );
        assert_eq!(reports[0].placed_in_region, reports[1].placed_in_region);
    }

    #[test]
    fn count_clamp_preserves_the_accounting_invariant() {
        let d = generate(&BenchmarkSpec::tiny("api-clamp", 5));
        let n = d.num_movable();
        // a double-counted fallback (n + 3 placements claimed) is clamped back to n
        let r = LegalizeReport::new("test", true, n, &d).with_counts(n, 3, Vec::new());
        assert_eq!(r.placed_in_region + r.fallback_placed + r.failed.len(), n);
        // exact counters pass through untouched
        let r = LegalizeReport::new("test", true, n, &d).with_counts(n - 2, 2, Vec::new());
        assert_eq!(r.placed_in_region, n - 2);
        assert_eq!(r.fallback_placed, 2);
    }

    #[test]
    fn reported_runtime_prefers_the_hardware_estimate() {
        let wall = Duration::from_millis(100);
        let est = Duration::from_millis(3);
        assert_eq!(RuntimeBreakdown::measured(wall).reported(), wall);
        assert_eq!(RuntimeBreakdown::modeled(wall, est).reported(), est);
    }
}
