//! Task assignment between CPU and FPGA (Sec. 3.1.1) and its communication model.
//!
//! FLEX keeps the serial, scheduling-heavy steps — input & pre-move (a), process ordering (b),
//! defining the localRegion (c) and insert & update (e) — on the CPU and offloads only the
//! FOP (d) to the FPGA. The alternative of also offloading (e) forces every updated cell
//! position back across the link and stops the CPU from preparing the next region while the
//! FPGA computes, which is what the Fig. 10 ablation quantifies.

use crate::config::TaskAssignment;
use flex_fpga::link::{LinkModel, BYTES_PER_CELL, BYTES_PER_RESULT, BYTES_PER_SEGMENT};
use flex_mgl::stats::RegionWork;
use std::time::Duration;

/// Fraction of the CPU-side non-FOP time that step (e) — insert & update — accounts for.
/// Step (e) performs a shifting pass similar to FOP's, so it dominates the non-FOP time.
pub const INSERT_UPDATE_SHARE: f64 = 0.35;

/// Amdahl-style model of how the CPU-side work scales when steps (a)–(c) are spread across
/// `threads` workers: region preparation parallelizes, the in-order commit
/// of step (e) does not. Returns the multiplier on the serial non-FOP time (1.0 for one
/// thread, approaching [`INSERT_UPDATE_SHARE`] as threads grow).
pub fn host_overlap_factor(threads: usize) -> f64 {
    let threads = threads.max(1) as f64;
    INSERT_UPDATE_SHARE + (1.0 - INSERT_UPDATE_SHARE) / threads
}

/// Per-region traffic (bytes) between the CPU and the FPGA under a given assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Bytes shipped to the card before its FOP can start.
    pub download: u64,
    /// Bytes returned to the host after the region is done.
    pub upload: u64,
}

/// Traffic needed for one region's work under `assignment`.
pub fn region_traffic(assignment: TaskAssignment, work: &RegionWork) -> RegionTraffic {
    match assignment {
        TaskAssignment::AllCpu => RegionTraffic::default(),
        TaskAssignment::FopOnFpga => RegionTraffic {
            download: work.local_cells * BYTES_PER_CELL + work.segments * BYTES_PER_SEGMENT,
            // only the chosen insertion point and optimal position come back; the CPU redoes the
            // (cheap) committing shift as part of step (e)
            upload: 2 * BYTES_PER_RESULT,
        },
        TaskAssignment::FopAndUpdateOnFpga => RegionTraffic {
            download: work.local_cells * BYTES_PER_CELL + work.segments * BYTES_PER_SEGMENT,
            // every localCell position may have changed and must be written back to the host
            upload: (work.local_cells + 1) * BYTES_PER_RESULT,
        },
    }
}

/// Visible (non-overlappable) transfer time of one region.
///
/// With the ping-pong preload of Sec. 3.1.2 the download of a region whose window does not
/// overlap the currently processed one is hidden behind computation; overlapping successors and
/// every upload stay on the critical path. Offloading step (e) additionally serializes the
/// upload with the CPU's bookkeeping, so nothing can be hidden there.
pub fn visible_transfer(
    assignment: TaskAssignment,
    link: &LinkModel,
    work: &RegionWork,
    preload_enabled: bool,
    is_first_region: bool,
) -> Duration {
    let traffic = region_traffic(assignment, work);
    if traffic.download == 0 && traffic.upload == 0 {
        return Duration::ZERO;
    }
    let download_hidden = match assignment {
        TaskAssignment::FopOnFpga => {
            preload_enabled && !work.next_region_overlaps && !is_first_region
        }
        TaskAssignment::FopAndUpdateOnFpga => false,
        TaskAssignment::AllCpu => true,
    };
    let mut t = Duration::ZERO;
    if !download_hidden {
        t += link.transfer(traffic.download);
    }
    t += link.transfer(traffic.upload);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::cell::CellId;

    fn work(cells: u64, overlaps: bool) -> RegionWork {
        RegionWork {
            target: CellId(0),
            local_cells: cells,
            segments: 9,
            next_region_overlaps: overlaps,
            ..RegionWork::default()
        }
    }

    #[test]
    fn offloading_step_e_multiplies_upload_traffic() {
        let w = work(60, false);
        let flex = region_traffic(TaskAssignment::FopOnFpga, &w);
        let alt = region_traffic(TaskAssignment::FopAndUpdateOnFpga, &w);
        assert_eq!(flex.download, alt.download);
        assert!(alt.upload > 10 * flex.upload);
        assert_eq!(
            region_traffic(TaskAssignment::AllCpu, &w),
            RegionTraffic::default()
        );
    }

    #[test]
    fn preload_hides_downloads_of_non_overlapping_regions() {
        let link = LinkModel::default();
        let hidden = visible_transfer(
            TaskAssignment::FopOnFpga,
            &link,
            &work(60, false),
            true,
            false,
        );
        let shown = visible_transfer(
            TaskAssignment::FopOnFpga,
            &link,
            &work(60, true),
            true,
            false,
        );
        let first = visible_transfer(
            TaskAssignment::FopOnFpga,
            &link,
            &work(60, false),
            true,
            true,
        );
        assert!(hidden < shown);
        assert!(first > hidden);
        // with preload disabled every download is visible
        let no_preload = visible_transfer(
            TaskAssignment::FopOnFpga,
            &link,
            &work(60, false),
            false,
            false,
        );
        assert_eq!(no_preload, shown);
    }

    #[test]
    fn host_overlap_factor_is_amdahl_shaped() {
        assert!((host_overlap_factor(1) - 1.0).abs() < 1e-12);
        assert!(host_overlap_factor(2) < host_overlap_factor(1));
        assert!(host_overlap_factor(8) < host_overlap_factor(4));
        // the serial commit share bounds the speedup
        assert!(host_overlap_factor(1_000_000) > INSERT_UPDATE_SHARE - 1e-9);
        assert!(host_overlap_factor(0) == host_overlap_factor(1));
    }

    #[test]
    fn all_cpu_has_no_visible_transfers() {
        let link = LinkModel::default();
        assert_eq!(
            visible_transfer(TaskAssignment::AllCpu, &link, &work(60, true), true, true),
            Duration::ZERO
        );
    }
}
