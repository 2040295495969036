//! A simple GPU execution model shared by the GPU-based baseline legalizers.
//!
//! The paper's Fig. 2(b)/(c) motivation is that GPU legalizers are limited not by raw FLOPs but
//! by (1) the number of *parallelizable regions*, which falls far short of the available CUDA
//! cores, and (2) the per-batch device synchronization needed to write the updated cell
//! positions back before the next batch can be formed. This model captures exactly those two
//! effects and nothing more.

use std::time::Duration;

/// A CUDA-core style throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Number of CUDA cores (GTX 1660 Ti: 1536; A800: 6912).
    pub cuda_cores: u64,
    /// Sustained per-core work items per second.
    pub items_per_core_per_s: f64,
    /// Kernel launch overhead per batch.
    pub kernel_launch: Duration,
    /// Device synchronization + host write-back overhead per batch.
    pub sync_overhead: Duration,
}

impl GpuModel {
    /// The NVIDIA GTX 1660 Ti used by the DATE'22 CPU-GPU legalizer.
    pub fn gtx_1660_ti() -> Self {
        Self {
            cuda_cores: 1536,
            items_per_core_per_s: 10.0e6,
            kernel_launch: Duration::from_micros(8),
            sync_overhead: Duration::from_micros(60),
        }
    }

    /// The NVIDIA A800 used by the ISPD'25 analytical legalizer.
    pub fn a800() -> Self {
        Self {
            cuda_cores: 6912,
            items_per_core_per_s: 60.0e6,
            kernel_launch: Duration::from_micros(8),
            sync_overhead: Duration::from_micros(120),
        }
    }

    /// Time to process one batch of `parallel_tasks`, each consisting of `items_per_task` work
    /// items, followed by a device synchronization.
    ///
    /// Only `min(parallel_tasks, cuda_cores)` tasks make progress at once — the effect Fig. 2(c)
    /// shows: adding cores beyond the number of parallelizable regions does not help.
    pub fn batch_time(&self, parallel_tasks: u64, items_per_task: u64) -> Duration {
        if parallel_tasks == 0 {
            return Duration::ZERO;
        }
        let waves = parallel_tasks.div_ceil(self.cuda_cores.max(1));
        let compute_s = waves as f64 * items_per_task as f64 / self.items_per_core_per_s;
        self.kernel_launch + Duration::from_secs_f64(compute_s) + self.sync_overhead
    }

    /// Fraction of a batch spent in synchronization rather than compute.
    pub fn sync_fraction(&self, parallel_tasks: u64, items_per_task: u64) -> f64 {
        let total = self.batch_time(parallel_tasks, items_per_task);
        if total.is_zero() {
            return 0.0;
        }
        self.sync_overhead.as_secs_f64() / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_cores_do_not_help_small_batches() {
        let small = GpuModel::gtx_1660_ti();
        let big = GpuModel {
            cuda_cores: 10_000,
            ..small
        };
        // 200 parallelizable regions: both GPUs do it in one wave
        assert_eq!(small.batch_time(200, 1000), big.batch_time(200, 1000));
        // 5000 regions: the bigger GPU wins
        assert!(big.batch_time(5000, 1000) < small.batch_time(5000, 1000));
    }

    #[test]
    fn sync_overhead_dominates_small_batches() {
        let gpu = GpuModel::gtx_1660_ti();
        let frac_small = gpu.sync_fraction(64, 200);
        let frac_large = gpu.sync_fraction(1536, 100_000);
        assert!(
            frac_small > 0.3,
            "sync share {frac_small:.2} of a small batch"
        );
        assert!(frac_large < frac_small);
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(GpuModel::a800().batch_time(0, 100), Duration::ZERO);
        assert_eq!(GpuModel::a800().sync_fraction(0, 100), 0.0);
    }
}
