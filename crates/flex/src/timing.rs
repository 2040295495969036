//! End-to-end runtime estimation for the FLEX accelerator.
//!
//! The functional legalization runs on the host and produces (1) the real quality numbers,
//! (2) a software runtime breakdown (how long FOP took in software vs. everything else), and
//! (3) a per-region work trace. This module replays the trace through the FOP PE cluster model
//! and combines it with the CPU-side work and the link model:
//!
//! * under the FLEX assignment the CPU prepares regions / commits results while the FPGA
//!   computes FOP, so the two overlap and the total is governed by the slower of the two plus
//!   the transfers that could not be hidden;
//! * offloading step (e) as well (the Fig. 10 alternative) serializes the position write-back
//!   with the CPU bookkeeping and prevents that overlap.

use crate::config::{FlexConfig, TaskAssignment};
use crate::fop_pipeline::FopPeModel;
use crate::task_assign;
use flex_mgl::legalize::LegalizeResult;
use flex_mgl::stats::WorkTrace;
use std::time::Duration;

/// Breakdown of the software (host-only) legalization run.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareBreakdown {
    /// Total wall-clock runtime of the software legalizer.
    pub total: Duration,
    /// Time spent inside FOP (the part FLEX offloads).
    pub fop: Duration,
    /// Everything else: pre-move, ordering, region extraction, insert & update.
    pub other: Duration,
    /// Host worker threads the run that produced this breakdown used. [`estimate`] models the
    /// CPU side at `FlexConfig::host_threads` relative to this, so a breakdown measured on a
    /// parallel host is not scaled a second time.
    pub measured_threads: usize,
}

impl SoftwareBreakdown {
    /// Extract the breakdown from a (serial) legalization result.
    pub fn from_result(result: &LegalizeResult) -> Self {
        Self::from_result_with_threads(result, 1)
    }

    /// Extract the breakdown from a run that used `threads` host workers.
    pub fn from_result_with_threads(result: &LegalizeResult, threads: usize) -> Self {
        let fop = Duration::from_nanos(result.op_stats.total_ns());
        let total = result.runtime;
        let other = total.saturating_sub(fop);
        Self {
            total,
            fop,
            other,
            measured_threads: threads.max(1),
        }
    }

    /// A synthetic breakdown pinned to FLEX's operating point — FOP dominates the software
    /// run (10×) and the CPU bookkeeping is comparable to the FPGA-side FOP time. This is the
    /// regime Fig. 10 measures; the task-assignment comparisons are deterministic under it,
    /// whereas wall-clock-measured breakdowns of tiny test cases are CPU-bound and noisy.
    pub fn pinned_to_fpga_time(fpga_time: Duration) -> Self {
        let fpga = fpga_time.max(Duration::from_micros(1));
        Self {
            total: fpga * 11,
            fop: fpga * 10,
            other: fpga,
            measured_threads: 1,
        }
    }
}

/// Estimated timing of a FLEX run.
#[derive(Debug, Clone, Copy)]
pub struct FlexTiming {
    /// CPU time (steps a, b, c and — under the FLEX assignment — e).
    pub cpu_time: Duration,
    /// FPGA time (FOP, plus insert & update when offloaded).
    pub fpga_time: Duration,
    /// Transfer time that could not be hidden behind computation.
    pub visible_transfer: Duration,
    /// Estimated end-to-end runtime of the accelerated legalization.
    pub total: Duration,
    /// Total FPGA cycles consumed by the FOP PE cluster.
    pub fpga_cycles: u64,
    /// Speedup over the software run the trace was recorded from.
    pub speedup_vs_software: f64,
}

use crate::task_assign::INSERT_UPDATE_SHARE;

/// Estimate the FLEX runtime for a recorded work trace.
pub fn estimate(
    config: &FlexConfig,
    trace: &WorkTrace,
    software: &SoftwareBreakdown,
) -> FlexTiming {
    if config.assignment == TaskAssignment::AllCpu {
        return FlexTiming {
            cpu_time: software.total,
            fpga_time: Duration::ZERO,
            visible_transfer: Duration::ZERO,
            total: software.total,
            fpga_cycles: 0,
            speedup_vs_software: 1.0,
        };
    }

    let pe = FopPeModel::new(config.clone());
    let mut fpga_cycles = 0u64;
    let mut visible_transfer = Duration::ZERO;
    for (idx, work) in trace.regions.iter().enumerate() {
        let mut cycles = pe.cluster_region_cycles(work);
        if config.assignment == TaskAssignment::FopAndUpdateOnFpga {
            // the committing shift of step (e) reruns the winning point's shifting on the FPGA
            cycles += pe.shift_cycles(work);
        }
        fpga_cycles += cycles.count();
        visible_transfer += task_assign::visible_transfer(
            config.assignment,
            &config.link,
            work,
            config.pingpong_preload,
            idx == 0,
        );
    }
    let fpga_time = config
        .pe_clock
        .to_duration(flex_fpga::clock::Cycles(fpga_cycles));

    // steps (a)–(c) overlap across region shards on the host: rescale the measured CPU-side
    // time from the thread count it was measured at to the configured one (Amdahl model in
    // task_assign; a breakdown already measured at `host_threads` is left untouched)
    let host_scale = task_assign::host_overlap_factor(config.host_threads)
        / task_assign::host_overlap_factor(software.measured_threads);
    let host_other = software.other.mul_f64(host_scale);

    let (cpu_time, total) = match config.assignment {
        TaskAssignment::FopOnFpga => {
            // CPU keeps steps a, b, c, e and overlaps with the FPGA
            let cpu = host_other;
            let busy = if cpu > fpga_time { cpu } else { fpga_time };
            (cpu, busy + visible_transfer)
        }
        TaskAssignment::FopAndUpdateOnFpga => {
            // the CPU loses step (e) but now has to wait for every region's write-back before it
            // can define the next region, so its remaining work serializes with the FPGA
            let cpu = host_other.mul_f64(1.0 - INSERT_UPDATE_SHARE);
            (cpu, cpu + fpga_time + visible_transfer)
        }
        TaskAssignment::AllCpu => unreachable!("handled above"),
    };

    let total_s = total.as_secs_f64().max(1e-12);
    FlexTiming {
        cpu_time,
        fpga_time,
        visible_transfer,
        total,
        fpga_cycles,
        speedup_vs_software: software.total.as_secs_f64() / total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_mgl::stats::RegionWork;
    use flex_placement::cell::CellId;

    fn trace(n: usize) -> WorkTrace {
        WorkTrace {
            regions: (0..n)
                .map(|i| RegionWork {
                    target: CellId(i as u32),
                    insertion_points: 30,
                    feasible_points: 24,
                    breakpoints: 300,
                    subcell_visits: 500,
                    shift_passes: 48,
                    sorted_cells: 400,
                    bound_queries: 520,
                    local_cells: 20,
                    segments: 9,
                    next_region_overlaps: i % 4 == 0,
                    ..RegionWork::default()
                })
                .collect(),
        }
    }

    fn sw() -> SoftwareBreakdown {
        SoftwareBreakdown {
            total: Duration::from_millis(1000),
            fop: Duration::from_millis(800),
            other: Duration::from_millis(200),
            measured_threads: 1,
        }
    }

    #[test]
    fn flex_assignment_overlaps_cpu_and_fpga() {
        let t = estimate(&FlexConfig::flex(), &trace(200), &sw());
        assert!(t.fpga_cycles > 0);
        assert!(t.total < sw().total, "FLEX should beat the software run");
        assert!(t.speedup_vs_software > 1.0);
        assert!(t.total >= t.fpga_time.min(t.cpu_time));
    }

    #[test]
    fn offloading_insert_update_is_slower_than_flex() {
        // Fig. 10's direction holds in FLEX's operating regime, where the CPU bookkeeping is
        // comparable to the FPGA-side FOP time (FOP dominates the software run). With a
        // CPU-bound breakdown the model would let any extra offload trivially "win", which is
        // not the scenario the figure measures, so pin `other` to the modeled FPGA time.
        let probe = estimate(&FlexConfig::flex(), &trace(200), &sw());
        let software = SoftwareBreakdown::pinned_to_fpga_time(probe.fpga_time);
        let flex = estimate(&FlexConfig::flex(), &trace(200), &software);
        let alt = estimate(
            &FlexConfig::flex().with_assignment(TaskAssignment::FopAndUpdateOnFpga),
            &trace(200),
            &software,
        );
        assert!(
            alt.total > flex.total,
            "keeping step (e) on the CPU must win (Fig. 10): flex {:?} vs alt {:?}",
            flex.total,
            alt.total
        );
        let ratio = alt.total.as_secs_f64() / flex.total.as_secs_f64();
        assert!(ratio > 1.05 && ratio < 2.5, "Fig. 10 ratio {ratio:.2}");
    }

    #[test]
    fn host_threads_shrink_the_modeled_cpu_side() {
        let one = estimate(&FlexConfig::flex(), &trace(200), &sw());
        let eight = estimate(&FlexConfig::flex().with_host_threads(8), &trace(200), &sw());
        assert!(
            eight.cpu_time < one.cpu_time,
            "8 host threads must shrink steps (a)-(c)"
        );
        assert!(eight.total <= one.total);
        // a breakdown already measured at 8 threads is not scaled again
        let measured8 = SoftwareBreakdown {
            measured_threads: 8,
            ..sw()
        };
        let same = estimate(
            &FlexConfig::flex().with_host_threads(8),
            &trace(200),
            &measured8,
        );
        assert_eq!(same.cpu_time, one.cpu_time);
    }

    #[test]
    fn all_cpu_reproduces_the_software_time() {
        let t = estimate(
            &FlexConfig::flex().with_assignment(TaskAssignment::AllCpu),
            &trace(50),
            &sw(),
        );
        assert_eq!(t.total, sw().total);
        assert_eq!(t.fpga_cycles, 0);
        assert!((t.speedup_vs_software - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabling_the_preload_increases_visible_transfer() {
        let mut cfg = FlexConfig::flex();
        let with = estimate(&cfg, &trace(300), &sw());
        cfg.pingpong_preload = false;
        let without = estimate(&cfg, &trace(300), &sw());
        assert!(without.visible_transfer > with.visible_transfer);
        assert!(without.total >= with.total);
    }

    #[test]
    fn more_pes_reduce_fpga_time() {
        let one = estimate(&FlexConfig::flex().with_pes(1), &trace(100), &sw());
        let two = estimate(&FlexConfig::flex().with_pes(2), &trace(100), &sw());
        assert!(two.fpga_time < one.fpga_time);
        let speedup = one.fpga_cycles as f64 / two.fpga_cycles as f64;
        assert!((1.5..=2.0).contains(&speedup), "PE scaling {speedup:.2}");
    }
}
