//! CPU ↔ FPGA link model.
//!
//! The Alveo U50 is a PCIe-attached card; every localRegion the CPU prepares must be shipped to
//! the FPGA before its FOP can run, and the chosen placement must come back. FLEX's task
//! assignment (Sec. 3.1.1) is designed to minimize this traffic — keeping step (e) on the CPU
//! avoids shipping every updated cell position back — and the ping-pong preload hides the
//! remaining transfers behind computation (Sec. 5.3). This model provides the wire sizes and
//! the transfer-time arithmetic; `flex-core`'s `task_assign::region_traffic` counts the bytes
//! each region moves.

use std::time::Duration;

/// A simple bandwidth + latency model of the host link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Sustained bandwidth in gigabytes per second.
    pub bandwidth_gbps: f64,
    /// Per-transfer latency (driver + DMA setup) in microseconds.
    pub latency_us: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // PCIe Gen3 x16 effective bandwidth with a conservative DMA setup cost
        Self {
            bandwidth_gbps: 12.0,
            latency_us: 5.0,
        }
    }
}

/// Bytes needed to describe one localCell on the wire (position, size, segment membership, id).
pub const BYTES_PER_CELL: u64 = 24;
/// Bytes needed to describe one localSegment.
pub const BYTES_PER_SEGMENT: u64 = 12;
/// Bytes returned per placed cell (id + new position).
pub const BYTES_PER_RESULT: u64 = 8;

impl LinkModel {
    /// Time to transfer `bytes` in one DMA.
    pub fn transfer(&self, bytes: u64) -> Duration {
        let seconds = self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_gbps * 1e9);
        Duration::from_secs_f64(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_transfers() {
        let link = LinkModel::default();
        let tiny = link.transfer(64);
        assert!(tiny.as_secs_f64() >= 5e-6);
        assert!(tiny.as_secs_f64() < 6e-6);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let link = LinkModel::default();
        let big = link.transfer(1_200_000_000); // 1.2 GB at 12 GB/s ≈ 0.1 s
        assert!((big.as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn byte_accounting_matches_the_wire_format() {
        // one localCell on the wire: position (2×4 B), size (2×4 B), segment row + id (8 B)
        assert_eq!(BYTES_PER_CELL, 24);
        // one localSegment: row (4 B) + span lo/hi (8 B)
        assert_eq!(BYTES_PER_SEGMENT, 12);
        // one result record: id (4 B) + position (4 B)
        assert_eq!(BYTES_PER_RESULT, 8);
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes() {
        let link = LinkModel::default();
        let mut last = link.transfer(0);
        for bytes in [1u64, 24, 1024, 1 << 20, 1 << 30] {
            let t = link.transfer(bytes);
            assert!(t >= last, "transfer time must not decrease with size");
            last = t;
        }
    }
}
