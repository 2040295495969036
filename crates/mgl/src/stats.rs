//! Operator-level statistics and the work trace consumed by the FPGA performance model.
//!
//! Two kinds of bookkeeping live here:
//!
//! * [`FopOpStats`] — wall-clock time spent in each FOP operator (cell shifting, the SACS
//!   pre-sort, breakpoint sorting, and the breakpoint chain's forward traversal and value
//!   scan), plus insertion-point enumeration and curve building, which the paper's figures
//!   count in FOP's remainder. This is what Fig. 2(g) ("cell shifting dominates over 60% of
//!   FOP runtime") and Fig. 6(g) ("pre-sorting is ≈10% of FOP runtime") report.
//! * [`RegionWork`] / [`WorkTrace`] — hardware-independent work counts per legalized target
//!   (insertion points evaluated, breakpoints produced, and the work of both cell-shifting
//!   schedules: the original algorithm's passes and subcell visits, SACS's sorted cells and
//!   multi-row bound queries). The FLEX accelerator model in `flex-core` replays this trace
//!   through its pipeline and BRAM models to predict FPGA cycles, which is how the Fig. 8/9/10
//!   ablations are produced.

use flex_placement::cell::CellId;
use std::time::Duration;

/// Wall-clock time spent in each FOP operator, accumulated over an entire legalization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FopOpStats {
    /// Cell shifting (both phases).
    pub cell_shift_ns: u64,
    /// SACS pre-sorting of localCells (the 10% overhead quoted in Fig. 6(g)).
    pub presort_ns: u64,
    /// Gathering and sorting breakpoints by x.
    pub sort_bp_ns: u64,
    /// fwdtraverse: merging breakpoints with identical x and accumulating slopesR.
    pub fwd_traverse_ns: u64,
    /// bwdtraverse: the value scan that picks the minimum.
    pub bwd_traverse_ns: u64,
    /// Insertion-point enumeration.
    pub enumerate_ns: u64,
    /// Building the displacement curves of the target and the shifted cells.
    pub curves_ns: u64,
    /// Everything else inside FOP (the per-region setup, bookkeeping).
    pub other_ns: u64,
}

impl FopOpStats {
    /// Total time spent inside FOP.
    pub fn total_ns(&self) -> u64 {
        self.cell_shift_ns
            + self.presort_ns
            + self.sort_bp_ns
            + self.fwd_traverse_ns
            + self.bwd_traverse_ns
            + self.enumerate_ns
            + self.curves_ns
            + self.other_ns
    }

    /// Fraction of FOP time spent in cell shifting (the Fig. 2(g) statistic).
    pub fn cell_shift_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.cell_shift_ns as f64 / total as f64
        }
    }

    /// Fraction of FOP time spent pre-sorting localCells (the Fig. 6(g) statistic).
    pub fn presort_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.presort_ns as f64 / total as f64
        }
    }

    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &FopOpStats) {
        self.cell_shift_ns += other.cell_shift_ns;
        self.presort_ns += other.presort_ns;
        self.sort_bp_ns += other.sort_bp_ns;
        self.fwd_traverse_ns += other.fwd_traverse_ns;
        self.bwd_traverse_ns += other.bwd_traverse_ns;
        self.enumerate_ns += other.enumerate_ns;
        self.curves_ns += other.curves_ns;
        self.other_ns += other.other_ns;
    }

    /// Mirror every per-operator total into `registry` as `mgl_fop_<op>_ns` counters (plus
    /// `mgl_fop_total_ns`). The struct's own shape is unchanged — this is the bridge onto
    /// the shared observability registry.
    pub fn publish_to(&self, registry: &flex_obs::Registry) {
        for (name, v) in [
            ("mgl_fop_cell_shift_ns", self.cell_shift_ns),
            ("mgl_fop_presort_ns", self.presort_ns),
            ("mgl_fop_sort_bp_ns", self.sort_bp_ns),
            ("mgl_fop_fwd_traverse_ns", self.fwd_traverse_ns),
            ("mgl_fop_bwd_traverse_ns", self.bwd_traverse_ns),
            ("mgl_fop_enumerate_ns", self.enumerate_ns),
            ("mgl_fop_curves_ns", self.curves_ns),
            ("mgl_fop_other_ns", self.other_ns),
            ("mgl_fop_total_ns", self.total_ns()),
        ] {
            registry.set_counter(name, v);
        }
    }

    /// Record a duration into a field selected by the operator name used in the paper's figures.
    pub fn add(&mut self, op: FopOperator, d: Duration) {
        let ns = d.as_nanos() as u64;
        match op {
            FopOperator::CellShift => self.cell_shift_ns += ns,
            FopOperator::Presort => self.presort_ns += ns,
            FopOperator::SortBp => self.sort_bp_ns += ns,
            FopOperator::FwdTraverse => self.fwd_traverse_ns += ns,
            FopOperator::BwdTraverse => self.bwd_traverse_ns += ns,
            FopOperator::Enumerate => self.enumerate_ns += ns,
            FopOperator::Curves => self.curves_ns += ns,
            FopOperator::Other => self.other_ns += ns,
        }
    }
}

/// The FOP operators the software kernel times, named after Fig. 3(e) / Fig. 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FopOperator {
    /// Cell shifting (left-move + right-move).
    CellShift,
    /// SACS pre-sorting of localCells.
    Presort,
    /// sort bp.
    SortBp,
    /// fwdtraverse (merge bp + sum slopesR).
    FwdTraverse,
    /// bwdtraverse (the value scan).
    BwdTraverse,
    /// Insertion-point enumeration.
    Enumerate,
    /// Displacement-curve construction.
    Curves,
    /// Anything else (the per-region setup, bookkeeping).
    Other,
}

/// Hardware-independent work performed while legalizing one target cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionWork {
    /// The target cell.
    pub target: CellId,
    /// Width of the target in sites.
    pub target_width: i64,
    /// Height of the target in rows.
    pub target_height: i64,
    /// Number of localCells in the final region.
    pub local_cells: u64,
    /// Number of localSegments (rows) in the region.
    pub segments: u64,
    /// Insertion points enumerated.
    pub insertion_points: u64,
    /// Insertion points that survived feasibility checks and were fully evaluated.
    pub feasible_points: u64,
    /// Breakpoints generated across all evaluated points.
    pub breakpoints: u64,
    /// Subcell visits the original multi-pass shifting performs (Algorithm 3: every pass
    /// visits every traversal list whole). SACS's own count is `bound_queries`.
    pub subcell_visits: u64,
    /// Full passes the original multi-pass shifting performs, summed over both phases of every
    /// evaluated point (SACS streams each phase in one pass).
    pub shift_passes: u64,
    /// Cells fed through the SACS pre-sorter.
    pub sorted_cells: u64,
    /// Per-row bound (CSP/CSE) queries issued by SACS.
    pub bound_queries: u64,
    /// Whether the target was eventually committed inside a region (false = fallback placement).
    pub placed_in_region: bool,
    /// Whether the region of the *next* target overlapped this one (determines whether the FLEX
    /// ping-pong preload can hide the data transfer, Sec. 3.1.2).
    pub next_region_overlaps: bool,
}

/// The full work trace of a legalization run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkTrace {
    /// Per-target work, in processing order.
    pub regions: Vec<RegionWork>,
}

impl WorkTrace {
    /// Number of regions processed.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total insertion points evaluated.
    pub fn total_points(&self) -> u64 {
        self.regions.iter().map(|r| r.insertion_points).sum()
    }

    /// Total breakpoints generated.
    pub fn total_breakpoints(&self) -> u64 {
        self.regions.iter().map(|r| r.breakpoints).sum()
    }

    /// Total subcell visits of the original multi-pass shifting.
    pub fn total_subcell_visits(&self) -> u64 {
        self.regions.iter().map(|r| r.subcell_visits).sum()
    }

    /// Mirror the trace's aggregates into `registry`: totals as `mgl_trace_*` counters and
    /// the per-region work distributions (insertion points, breakpoints, subcell visits)
    /// as histograms. The per-region `regions` Vec itself stays the FPGA model's input.
    pub fn publish_to(&self, registry: &flex_obs::Registry) {
        registry.set_counter("mgl_trace_regions", self.len() as u64);
        registry.set_counter("mgl_trace_insertion_points", self.total_points());
        registry.set_counter("mgl_trace_breakpoints", self.total_breakpoints());
        registry.set_counter("mgl_trace_subcell_visits", self.total_subcell_visits());
        let mut points = flex_obs::Histogram::new();
        let mut breakpoints = flex_obs::Histogram::new();
        let mut visits = flex_obs::Histogram::new();
        for r in &self.regions {
            points.record(r.insertion_points);
            breakpoints.record(r.breakpoints);
            visits.record(r.subcell_visits);
        }
        registry
            .histogram("mgl_region_insertion_points")
            .merge_from(&points);
        registry
            .histogram("mgl_region_breakpoints")
            .merge_from(&breakpoints);
        registry
            .histogram("mgl_region_subcell_visits")
            .merge_from(&visits);
    }

    /// Fraction of regions whose successor region did not overlap (preloadable).
    pub fn preloadable_fraction(&self) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        self.regions
            .iter()
            .filter(|r| !r.next_region_overlaps)
            .count() as f64
            / self.regions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let mut s = FopOpStats::default();
        s.add(FopOperator::CellShift, Duration::from_nanos(600));
        s.add(FopOperator::SortBp, Duration::from_nanos(100));
        s.add(FopOperator::FwdTraverse, Duration::from_nanos(150));
        s.add(FopOperator::BwdTraverse, Duration::from_nanos(50));
        s.add(FopOperator::Other, Duration::from_nanos(100));
        assert_eq!(s.total_ns(), 1000);
        assert!((s.cell_shift_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(s.presort_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = FopOpStats::default();
        a.add(FopOperator::Presort, Duration::from_nanos(10));
        a.add(FopOperator::FwdTraverse, Duration::from_nanos(20));
        a.add(FopOperator::Enumerate, Duration::from_nanos(100));
        let mut b = FopOpStats::default();
        b.add(FopOperator::Presort, Duration::from_nanos(5));
        b.add(FopOperator::BwdTraverse, Duration::from_nanos(7));
        b.add(FopOperator::Other, Duration::from_nanos(3));
        b.add(FopOperator::Enumerate, Duration::from_nanos(200));
        b.add(FopOperator::Curves, Duration::from_nanos(400));
        a.merge(&b);
        assert_eq!(a.presort_ns, 15);
        assert_eq!(a.fwd_traverse_ns, 20);
        assert_eq!(a.bwd_traverse_ns, 7);
        assert_eq!(a.enumerate_ns, 300);
        assert_eq!(a.curves_ns, 400);
        assert_eq!(a.other_ns, 3);
        assert_eq!(a.total_ns(), 745);
    }

    #[test]
    fn publish_mirrors_every_operator_and_the_total() {
        let mut s = FopOpStats::default();
        s.add(FopOperator::Enumerate, Duration::from_nanos(11));
        s.add(FopOperator::Curves, Duration::from_nanos(13));
        s.add(FopOperator::Other, Duration::from_nanos(17));
        let registry = flex_obs::Registry::new();
        s.publish_to(&registry);
        let counters = registry.snapshot().counters;
        assert_eq!(counters["mgl_fop_enumerate_ns"], 11);
        assert_eq!(counters["mgl_fop_curves_ns"], 13);
        assert_eq!(counters["mgl_fop_other_ns"], 17);
        assert_eq!(counters["mgl_fop_total_ns"], 41);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = FopOpStats::default();
        assert_eq!(s.cell_shift_fraction(), 0.0);
        assert_eq!(s.total_ns(), 0);
    }

    #[test]
    fn op_stats_merge_is_associative_and_commutative() {
        fn stats(seed: u64) -> FopOpStats {
            let mut s = FopOpStats::default();
            s.add(FopOperator::CellShift, Duration::from_nanos(seed * 3 + 1));
            s.add(FopOperator::Presort, Duration::from_nanos(seed * 5 + 2));
            s.add(FopOperator::SortBp, Duration::from_nanos(seed * 7 + 3));
            s.add(
                FopOperator::FwdTraverse,
                Duration::from_nanos(seed * 11 + 4),
            );
            s.add(FopOperator::Other, Duration::from_nanos(seed * 13 + 5));
            s
        }
        let (a, b, c) = (stats(1), stats(20), stats(300));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // a ⊕ b == b ⊕ a
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn trace_aggregates() {
        let mut t = WorkTrace::default();
        assert!(t.is_empty());
        t.regions.push(RegionWork {
            target: CellId(0),
            insertion_points: 10,
            breakpoints: 50,
            subcell_visits: 100,
            next_region_overlaps: false,
            ..RegionWork::default()
        });
        t.regions.push(RegionWork {
            target: CellId(1),
            insertion_points: 5,
            breakpoints: 20,
            subcell_visits: 30,
            next_region_overlaps: true,
            ..RegionWork::default()
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_points(), 15);
        assert_eq!(t.total_breakpoints(), 70);
        assert_eq!(t.total_subcell_visits(), 130);
        assert!((t.preloadable_fraction() - 0.5).abs() < 1e-12);
    }
}
