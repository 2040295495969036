//! Configuration of the MGL legalizer.

/// Processing-order strategy for unlegalized target cells (Sec. 3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Sort by cell area, largest first — the widely adopted baseline the paper attributes
    /// to the CPU-GPU legalizer \[30\].
    SizeDescending,
    /// FLEX's sliding-window ordering: size-descending initial order, then within a sliding
    /// window the remaining cells are reordered by localRegion density (densest first) while
    /// the current and next cells stay fixed.
    SlidingWindowDensity,
    /// Process cells in their original index order (used by tests and as a worst-case control).
    Natural,
}

/// Configuration of the MGL legalizer.
#[derive(Debug, Clone)]
pub struct MglConfig {
    /// Half-width of the legalization window in sites.
    pub window_half_sites: i64,
    /// Half-height of the legalization window in rows.
    pub window_half_rows: i64,
    /// How many times the window may be enlarged (doubling each time) when no feasible
    /// insertion point is found.
    pub max_window_expansions: u32,
    /// Processing order of target cells.
    pub ordering: OrderingStrategy,
    /// Size of the sliding window used by [`OrderingStrategy::SlidingWindowDensity`].
    pub sliding_window: usize,
    /// Upper bound on the number of localCells a region may contain before the legalizer stops
    /// expanding the window and falls back to the whole-die scan. Window expansions on large
    /// designs can otherwise grow regions to thousands of cells, making a single FOP call
    /// (insertion points × cell shifting) quadratically expensive; the fallback scan is exact
    /// and far cheaper at that size. Small designs never reach this bound.
    pub max_region_cells: usize,
    /// Collect the per-region work trace consumed by the FPGA performance model.
    pub collect_trace: bool,
    /// Density-map bin width in sites (used for region density / ordering).
    pub density_bin_sites: i64,
    /// Density-map bin height in rows.
    pub density_bin_rows: i64,
}

impl Default for MglConfig {
    fn default() -> Self {
        Self {
            window_half_sites: 32,
            window_half_rows: 4,
            max_window_expansions: 6,
            ordering: OrderingStrategy::SlidingWindowDensity,
            sliding_window: 16,
            max_region_cells: 768,
            collect_trace: false,
            density_bin_sites: 32,
            density_bin_rows: 8,
        }
    }
}

impl MglConfig {
    /// The algorithm configuration of the original multi-threaded CPU legalizer \[18\]:
    /// size-descending ordering. Cell shifting (Fig. 6) and the breakpoint chain (Fig. 5) are
    /// the same in every configuration: the paper's original and FLEX's schedules of each
    /// compute the same result and differ only on an FPGA, which the cycle model in
    /// `flex-core` covers.
    ///
    /// `MglLegalizer` with it is not the TCAD'22 flow: after a rejected commit it tries the
    /// next window, where TCAD'22 (`flex_baselines::cpu::CpuLegalizer`) takes the fallback
    /// scan, so their placements differ (on all 16 Table 1 cases at scale 0.02).
    pub fn original() -> Self {
        Self {
            ordering: OrderingStrategy::SizeDescending,
            ..Self::default()
        }
    }

    /// The configuration FLEX runs on the FPGA: sliding-window density ordering.
    pub fn flex() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_flex_configuration() {
        let c = MglConfig::default();
        assert_eq!(c.ordering, OrderingStrategy::SlidingWindowDensity);
    }

    #[test]
    fn original_matches_the_cpu_baseline() {
        let c = MglConfig::original();
        assert_eq!(c.ordering, OrderingStrategy::SizeDescending);
    }
}
