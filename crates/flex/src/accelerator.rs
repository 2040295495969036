//! The user-facing FLEX accelerator.
//!
//! [`FlexAccelerator::legalize`] runs the complete flow: the host executes the MGL legalization
//! (with FLEX's sliding-window ordering and SACS shifting) to produce a *legal placement and
//! genuine quality numbers*, records the per-region work trace, and then estimates what the
//! Alveo U50 implementation of the offloaded FOP would cost, yielding the accelerated runtime
//! the paper's Table 1 reports.

pub use crate::config::FlexConfig;

use crate::timing::{self, FlexTiming, SoftwareBreakdown};
use flex_fpga::resources::{flex_resources, Resources};
use flex_mgl::api::{LegalizeReport, Legalizer, RuntimeBreakdown};
use flex_mgl::legalize::{LegalizeResult, MglLegalizer};
use flex_mgl::parallel::ShardStats;
use flex_placement::layout::Design;

/// The FLEX accelerator.
#[derive(Debug, Clone)]
pub struct FlexAccelerator {
    config: FlexConfig,
}

/// Everything a FLEX run produces.
#[derive(Debug, Clone)]
pub struct FlexOutcome {
    /// The functional legalization result (legality, displacement, software timings, trace).
    pub result: LegalizeResult,
    /// The software-run breakdown the acceleration estimate is based on.
    pub software: SoftwareBreakdown,
    /// The estimated accelerated timing.
    pub timing: FlexTiming,
    /// FPGA resources the configured design would consume (Table 2).
    pub resources: Resources,
    /// How the host-side parallel engine executed (`None` when `host_threads` is 1 and the
    /// serial legalizer ran).
    pub shards: Option<ShardStats>,
}

impl FlexOutcome {
    /// Estimated accelerated runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.timing.total.as_secs_f64()
    }

    /// Average displacement (`S_am`) of the legalized placement.
    pub fn average_displacement(&self) -> f64 {
        self.result.average_displacement
    }
}

impl FlexAccelerator {
    /// Create an accelerator with the given configuration.
    pub fn new(config: FlexConfig) -> Self {
        Self { config }
    }

    /// Legalize the design in place and estimate the accelerated runtime.
    ///
    /// With `host_threads > 1` the CPU-side steps (a)–(c) run on the parallel engine; the placement (and therefore the quality numbers and the work trace) is
    /// identical to the serial run, only the measured host runtime changes.
    pub fn legalize(&self, design: &mut Design) -> FlexOutcome {
        let host_span = flex_obs::span!("flex.host_legalize");
        let (result, shards) = if self.config.host_threads > 1 {
            let out = self.config.parallel_host_engine().legalize(design);
            (out.result, Some(out.shards))
        } else {
            (
                MglLegalizer::new(self.config.mgl_config()).legalize(design),
                None,
            )
        };
        drop(host_span);
        let software =
            SoftwareBreakdown::from_result_with_threads(&result, self.config.host_threads);
        let trace = result.trace.clone().unwrap_or_default();
        let timing_span = flex_obs::span!("flex.timing_estimate");
        let timing = timing::estimate(&self.config, &trace, &software);
        drop(timing_span);
        FlexOutcome {
            result,
            software,
            timing,
            resources: flex_resources(self.config.num_fop_pes),
            shards,
        }
    }
}

impl Default for FlexAccelerator {
    fn default() -> Self {
        Self::new(FlexConfig::default())
    }
}

impl Legalizer for FlexAccelerator {
    fn name(&self) -> &'static str {
        "flex"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let outcome = FlexAccelerator::legalize(self, design);
        // wall = the measured host (software) run; estimated = the accelerated FLEX runtime,
        // which is what Table 1 compares the FLEX column on
        LegalizeReport::new(
            self.name(),
            outcome.result.legal,
            design.num_movable(),
            design,
        )
        .with_runtime(RuntimeBreakdown::modeled(
            outcome.software.total,
            outcome.timing.total,
        ))
        .with_counts(
            outcome.result.placed_in_region,
            outcome.result.fallback_placed,
            outcome.result.failed,
        )
        .with_trace(outcome.result.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskAssignment;
    use flex_placement::benchmark::{generate, BenchmarkSpec};
    use flex_placement::legality::check_legality_with;

    fn design(seed: u64) -> Design {
        generate(&BenchmarkSpec::tiny("accel", seed))
    }

    #[test]
    fn flex_produces_a_legal_placement_and_a_speedup() {
        let mut d = design(11);
        let out = FlexAccelerator::default().legalize(&mut d);
        assert!(out.result.legal);
        assert!(check_legality_with(&d, true).is_legal());
        assert!(out.timing.fpga_cycles > 0);
        assert!(
            out.timing.speedup_vs_software > 1.0,
            "estimated FLEX runtime should beat the software run (got {:.2}x)",
            out.timing.speedup_vs_software
        );
        assert!(out.resources.fits_in(&flex_fpga::resources::ALVEO_U50));
        assert!(out.average_displacement() > 0.0);
    }

    #[test]
    fn quality_matches_the_pure_software_legalizer() {
        // FLEX runs the same functional algorithm; acceleration must not change quality
        let mut d1 = design(12);
        let mut d2 = design(12);
        let out = FlexAccelerator::default().legalize(&mut d1);
        let sw = MglLegalizer::new(FlexConfig::default().mgl_config()).legalize(&mut d2);
        assert!((out.average_displacement() - sw.average_displacement).abs() < 1e-12);
    }

    #[test]
    fn ablation_ordering_holds_end_to_end() {
        // Fig. 8: each optimization step may only make the estimated runtime faster
        let configs = [
            FlexConfig::normal_pipeline_baseline(),
            FlexConfig::with_sacs_only(),
            FlexConfig::with_multi_granularity(),
            FlexConfig::flex(),
        ];
        let mut times = Vec::new();
        for cfg in configs {
            let mut d = design(13);
            let out = FlexAccelerator::new(cfg).legalize(&mut d);
            assert!(out.result.legal);
            times.push(out.timing.fpga_time.as_secs_f64());
        }
        for w in times.windows(2) {
            assert!(
                w[1] <= w[0] * 1.05,
                "each Fig. 8 step should not slow the FPGA side down: {times:?}"
            );
        }
        let total_speedup = times[0] / times.last().unwrap();
        assert!(
            total_speedup > 2.0,
            "cumulative Fig. 8 speedup {total_speedup:.2}"
        );
    }

    #[test]
    fn host_threads_change_nothing_but_the_host_runtime() {
        // the parallel host engine is placement-identical to the serial one, so quality,
        // trace-derived FPGA cycles and resources must all agree — including on the FLEX
        // default configuration's dynamic sliding-window ordering, which now runs the real
        // speculative host path instead of degrading to serial
        let cfg = FlexConfig::flex();
        let mut d1 = design(15);
        let mut d2 = design(15);
        let serial = FlexAccelerator::new(cfg.clone()).legalize(&mut d1);
        let parallel = FlexAccelerator::new(cfg.with_host_threads(4)).legalize(&mut d2);
        assert!(serial.result.legal && parallel.result.legal);
        assert!(serial.shards.is_none());
        let shards = parallel.shards.as_ref().expect("parallel host engine ran");
        assert!(shards.batches > 0);
        assert!(
            shards.speculated > 0,
            "the dynamic FLEX ordering must speculate on the parallel host path"
        );
        assert_eq!(
            serial.average_displacement(),
            parallel.average_displacement(),
            "host parallelism must not change quality"
        );
        assert_eq!(serial.timing.fpga_cycles, parallel.timing.fpga_cycles);
        let p1: Vec<(i64, i64)> = d1
            .cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| (c.x, c.y))
            .collect();
        let p2: Vec<(i64, i64)> = d2
            .cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| (c.x, c.y))
            .collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn modeled_fpga_cycles_are_pinned() {
        // The cycle model costs the recorded work trace. These literals pin its output for
        // the Fig. 8 steps and the Fig. 10 alternative on one seeded design, so a change to
        // what the trace records cannot move a modeled figure unnoticed.
        let spec = BenchmarkSpec::tiny("cycle-pin", 3).with_density(0.7);
        let update_on_fpga = FlexConfig::flex().with_assignment(TaskAssignment::FopAndUpdateOnFpga);
        let cases = [
            (
                "normal pipeline baseline",
                FlexConfig::normal_pipeline_baseline(),
                63_954_138,
            ),
            ("SACS only", FlexConfig::with_sacs_only(), 39_830_962),
            (
                "multi-granularity",
                FlexConfig::with_multi_granularity(),
                38_406_278,
            ),
            ("flex", FlexConfig::flex(), 19_236_822),
            ("flex, (d)+(e) on FPGA", update_on_fpga, 57_539_584),
        ];
        for (label, cfg, cycles) in cases {
            let out = FlexAccelerator::new(cfg).legalize(&mut generate(&spec));
            assert_eq!(out.timing.fpga_cycles, cycles, "{label}");
        }
    }

    #[test]
    fn task_assignment_ablation_prefers_keeping_update_on_cpu() {
        // Estimate both assignments from the same recorded trace in the FPGA-bound regime
        // Fig. 10 measures (see timing::tests::offloading_insert_update_is_slower_than_flex);
        // comparing two separately *measured* tiny runs is wall-clock-noise dominated.
        let mut d1 = design(14);
        let flex = FlexAccelerator::new(FlexConfig::flex()).legalize(&mut d1);
        let trace = flex
            .result
            .trace
            .clone()
            .expect("flex config collects the trace");
        let software = crate::timing::SoftwareBreakdown::pinned_to_fpga_time(flex.timing.fpga_time);
        let base = crate::timing::estimate(&FlexConfig::flex(), &trace, &software);
        let alt = crate::timing::estimate(
            &FlexConfig::flex().with_assignment(TaskAssignment::FopAndUpdateOnFpga),
            &trace,
            &software,
        );
        assert!(alt.total > base.total, "Fig. 10 direction");
    }
}
