//! Cycle model of the SACS PE architecture (Sec. 4.3).
//!
//! The SACS hardware keeps its spatial data in five BRAM tables — the localCells Table (LCT),
//! the localCells position Table (LCPT), the pre-sorted cell list (Cs), the per-segment cell
//! lists (LSC) and the CurSeg Table (CST) holding the CSP/CSE cursors — and streams one cell per
//! initiation interval through the dataflow of Fig. 7(b). Multi-row cells need one cursor access
//! per row they span, which is where BRAM bandwidth becomes the bottleneck and where the
//! odd-even banking / ping-pong initialization / double-rate memory clock of Sec. 4.3.2 pay off.
//!
//! The model below turns the SACS work counters recorded by the functional run (cells sorted,
//! cursor queries, queries issued by cells taller than three rows) into PE cycles for each of
//! the Fig. 9 ablation points: plain `SACS`, `SACS-Ar`, `SACS-ImpBW`, and `SACS-Paral`. The
//! same run records the original multi-pass algorithm's counters, which
//! [`SacsPeModel::original_shift_cycles`] costs for the Fig. 8 baseline.

use crate::config::SacsArchConfig;
use flex_fpga::clock::Cycles;
use flex_fpga::sorter::SorterModel;
use flex_mgl::stats::RegionWork;

/// Dataflow stages of one SACS iteration (Fig. 7(b): Cs→LCT, LCT→PE, PE→CST, CST→LSC, LSC→LCT,
/// LCT→PE, compute, write-back).
pub const DATAFLOW_STAGES: u64 = 8;

/// Cycle model of one SACS PE.
#[derive(Debug, Clone)]
pub struct SacsPeModel {
    /// Architecture options (the Fig. 9 ablation).
    pub config: SacsArchConfig,
    /// The Ahead Sorter in front of the PE.
    pub sorter: SorterModel,
}

impl SacsPeModel {
    /// Create a model for the given architecture options.
    pub fn new(config: SacsArchConfig) -> Self {
        Self {
            config,
            sorter: SorterModel::default(),
        }
    }

    /// Cycles spent pre-sorting the localCells of a region (the Ahead Sorter).
    pub fn sort_cycles(&self, work: &RegionWork) -> Cycles {
        // the sorter runs once per evaluated insertion point on the region's cell list; the
        // recorded `sorted_cells` already aggregates cells × points
        self.sorter.sort_cycles(work.sorted_cells)
    }

    /// Cycles spent in the shifting dataflow itself for one region's worth of work.
    pub fn shift_cycles(&self, work: &RegionWork) -> Cycles {
        let cells = work.sorted_cells.max(1);
        let queries = work.bound_queries;
        // extra cursor accesses beyond the one-per-cell the pipeline absorbs at II = 1
        let extra_queries = queries.saturating_sub(cells);

        let base = if self.config.pipelined {
            // SACS-Ar: fully pipelined dataflow, one cell per cycle plus fill latency
            Cycles(cells + DATAFLOW_STAGES)
        } else {
            // plain SACS mapped naively: every cell walks the whole dataflow sequentially
            Cycles(cells * DATAFLOW_STAGES)
        };

        // bandwidth stalls: a dual-port CST/LSC serves two row queries per cycle; the improved-
        // bandwidth package (odd-even banks + 2× memory clock + LCT duplication) serves eight
        let stall_divisor = if self.config.improved_bandwidth { 8 } else { 2 };
        let stalls = Cycles(extra_queries.div_ceil(stall_divisor));

        let mut total = base + stalls;
        if self.config.parallel_phases {
            // left-move and right-move run concurrently; the paper reports near-halving with a
            // small imbalance penalty
            total = Cycles((total.count() as f64 * 0.55).ceil() as u64);
        }
        total
    }

    /// Total SACS PE cycles for a region (sorting + shifting).
    pub fn region_cycles(&self, work: &RegionWork) -> Cycles {
        self.sort_cycles(work) + self.shift_cycles(work)
    }

    /// Cycles the *original* multi-pass shifting algorithm would need on the FPGA for the same
    /// work: every subcell visit pays the full dataflow plus an intermediate-result round trip,
    /// and the pass structure prevents any streaming overlap. Reads the original algorithm's
    /// own counters only (`subcell_visits`, `shift_passes`).
    pub fn original_shift_cycles(work: &RegionWork) -> Cycles {
        Cycles(work.subcell_visits * (DATAFLOW_STAGES + 2) + work.shift_passes * DATAFLOW_STAGES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::cell::CellId;

    fn work(sorted: u64, queries: u64, tall: u64) -> RegionWork {
        RegionWork {
            target: CellId(0),
            sorted_cells: sorted,
            bound_queries: queries,
            tall_bound_queries: tall,
            subcell_visits: queries,
            shift_passes: 3,
            ..RegionWork::default()
        }
    }

    #[test]
    fn pipelining_gives_a_large_speedup() {
        let w = work(200, 260, 0);
        let plain = SacsPeModel::new(SacsArchConfig::algorithm_only());
        let ar = SacsPeModel::new(SacsArchConfig {
            pipelined: true,
            improved_bandwidth: false,
            parallel_phases: false,
        });
        let ratio = plain.shift_cycles(&w).count() as f64 / ar.shift_cycles(&w).count() as f64;
        assert!(ratio > 3.0, "pipelining speedup {ratio:.2} too small");
    }

    #[test]
    fn bandwidth_package_only_helps_with_multi_row_queries() {
        let ar = SacsPeModel::new(SacsArchConfig {
            pipelined: true,
            improved_bandwidth: false,
            parallel_phases: false,
        });
        let bw = SacsPeModel::new(SacsArchConfig {
            pipelined: true,
            improved_bandwidth: true,
            parallel_phases: false,
        });
        // single-row-only region: queries == cells, no extra accesses, no benefit
        let flat = work(100, 100, 0);
        assert_eq!(ar.shift_cycles(&flat), bw.shift_cycles(&flat));
        // tall-cell-heavy region: many extra accesses, clear benefit
        let tall = work(100, 480, 300);
        assert!(bw.shift_cycles(&tall) < ar.shift_cycles(&tall));
    }

    #[test]
    fn parallel_phases_roughly_halve_the_cycles() {
        let seq = SacsPeModel::new(SacsArchConfig {
            pipelined: true,
            improved_bandwidth: true,
            parallel_phases: false,
        });
        let par = SacsPeModel::new(SacsArchConfig::full());
        let w = work(300, 420, 60);
        let ratio = seq.shift_cycles(&w).count() as f64 / par.shift_cycles(&w).count() as f64;
        assert!(
            (1.6..=2.0).contains(&ratio),
            "parallel-phase speedup {ratio:.2}"
        );
    }

    #[test]
    fn sacs_beats_the_original_shifting_by_2_to_3x() {
        // the paper attributes 2–3× to the SACS algorithm + architecture over the original
        // multi-pass shifting (Fig. 8, first step)
        let w = work(180, 240, 20);
        let sacs = SacsPeModel::new(SacsArchConfig::full());
        let orig = SacsPeModel::original_shift_cycles(&w);
        let full = sacs.region_cycles(&w);
        let ratio = orig.count() as f64 / full.count() as f64;
        assert!(ratio > 1.8, "SACS speedup {ratio:.2} too small");
        assert!(ratio < 8.0, "SACS speedup {ratio:.2} implausibly large");
    }

    #[test]
    fn original_shifting_costs_only_its_own_counters() {
        // one run records both algorithms' work; SACS's bound queries, however many, must not
        // leak into the original algorithm's cycles
        let w = work(200, 260, 0);
        let more_queries = RegionWork {
            bound_queries: 5_000,
            ..w.clone()
        };
        assert!(more_queries.bound_queries > more_queries.subcell_visits);
        assert_eq!(
            SacsPeModel::original_shift_cycles(&more_queries),
            SacsPeModel::original_shift_cycles(&w)
        );
        assert_eq!(
            SacsPeModel::original_shift_cycles(&w),
            Cycles(260 * (DATAFLOW_STAGES + 2) + 3 * DATAFLOW_STAGES)
        );
    }
}
