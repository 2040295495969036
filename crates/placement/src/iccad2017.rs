//! ICCAD 2017 contest case catalogue.
//!
//! Table 1 of the paper evaluates on 16 cases of the ICCAD 2017 multi-deck standard-cell
//! legalization contest. The contest files themselves are not redistributable, so this module
//! records each case's published statistics (cell count and design density, straight from
//! Table 1) together with a mixed-height profile consistent with the case family (`md1`, `md2`,
//! `md3` variants carry progressively more multi-row cells; only `md2`/`md3` families contain
//! cells taller than three rows, matching the Fig. 9 discussion). [`spec`] turns a case into a
//! [`BenchmarkSpec`] for the synthetic generator.

use crate::benchmark::{BenchmarkSpec, HeightMix};

/// Reference values for one ICCAD 2017 case, as printed in Table 1 of the paper.
#[derive(Debug, Clone)]
pub struct Iccad2017Case {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of cells to be legalized (`Cell #`).
    pub num_cells: usize,
    /// Design density in percent (`Den.(%)`).
    pub density_pct: f64,
    /// AveDis reported for the multi-threaded CPU legalizer (TCAD'22 MGL \[18\]).
    pub avedis_tcad22: f64,
    /// Runtime (s) reported for the multi-threaded CPU legalizer.
    pub time_tcad22: f64,
    /// AveDis reported for the CPU-GPU legalizer (DATE'22 \[30\]).
    pub avedis_date22: f64,
    /// Runtime (s) reported for the CPU-GPU legalizer.
    pub time_date22: f64,
    /// AveDis reported for the analytical GPU legalizer (ISPD'25 \[25\]).
    pub avedis_ispd25: f64,
    /// Runtime (s) reported for the analytical GPU legalizer.
    pub time_ispd25: f64,
    /// AveDis reported for FLEX.
    pub avedis_flex: f64,
    /// Runtime (s) reported for FLEX.
    pub time_flex: f64,
}

impl Iccad2017Case {
    /// Paper speedup of FLEX over the multi-threaded CPU legalizer (`Acc(T)`).
    pub fn acc_t(&self) -> f64 {
        self.time_tcad22 / self.time_flex
    }

    /// Paper speedup of FLEX over the CPU-GPU legalizer (`Acc(D)`).
    pub fn acc_d(&self) -> f64 {
        self.time_date22 / self.time_flex
    }

    /// Paper speedup of FLEX over the analytical GPU legalizer (`Acc(I)`).
    pub fn acc_i(&self) -> f64 {
        self.time_ispd25 / self.time_flex
    }
}

/// The 16 Table 1 cases with the paper's reference numbers.
pub const CASES: &[Iccad2017Case] = &[
    Iccad2017Case {
        name: "des_perf_1",
        num_cells: 112_644,
        density_pct: 90.6,
        avedis_tcad22: 0.967,
        time_tcad22: 4.74,
        avedis_date22: 1.05,
        time_date22: 3.47,
        avedis_ispd25: 0.66,
        time_ispd25: 7.51,
        avedis_flex: 0.665,
        time_flex: 1.322,
    },
    Iccad2017Case {
        name: "des_perf_a_md1",
        num_cells: 108_288,
        density_pct: 55.1,
        avedis_tcad22: 0.919,
        time_tcad22: 1.81,
        avedis_date22: 0.92,
        time_date22: 2.00,
        avedis_ispd25: 1.20,
        time_ispd25: 8.38,
        avedis_flex: 0.904,
        time_flex: 0.727,
    },
    Iccad2017Case {
        name: "des_perf_a_md2",
        num_cells: 108_288,
        density_pct: 55.9,
        avedis_tcad22: 1.148,
        time_tcad22: 1.67,
        avedis_date22: 1.32,
        time_date22: 2.00,
        avedis_ispd25: 1.12,
        time_ispd25: 16.64,
        avedis_flex: 1.144,
        time_flex: 0.663,
    },
    Iccad2017Case {
        name: "des_perf_b_md1",
        num_cells: 112_644,
        density_pct: 55.0,
        avedis_tcad22: 0.675,
        time_tcad22: 1.28,
        avedis_date22: 0.70,
        time_date22: 6.85,
        avedis_ispd25: 0.65,
        time_ispd25: 20.34,
        avedis_flex: 0.635,
        time_flex: 0.375,
    },
    Iccad2017Case {
        name: "des_perf_b_md2",
        num_cells: 112_644,
        density_pct: 64.7,
        avedis_tcad22: 0.618,
        time_tcad22: 1.31,
        avedis_date22: 0.72,
        time_date22: 1.75,
        avedis_ispd25: 0.70,
        time_ispd25: 1.11,
        avedis_flex: 0.653,
        time_flex: 0.501,
    },
    Iccad2017Case {
        name: "edit_dist_1_md1",
        num_cells: 130_661,
        density_pct: 67.4,
        avedis_tcad22: 0.664,
        time_tcad22: 0.98,
        avedis_date22: 0.67,
        time_date22: 1.67,
        avedis_ispd25: 0.63,
        time_ispd25: 2.68,
        avedis_flex: 0.646,
        time_flex: 0.347,
    },
    Iccad2017Case {
        name: "edit_dist_a_md2",
        num_cells: 127_413,
        density_pct: 59.4,
        avedis_tcad22: 0.614,
        time_tcad22: 1.30,
        avedis_date22: 0.73,
        time_date22: 1.80,
        avedis_ispd25: 0.67,
        time_ispd25: 2.22,
        avedis_flex: 0.650,
        time_flex: 0.547,
    },
    Iccad2017Case {
        name: "edit_dist_a_md3",
        num_cells: 127_413,
        density_pct: 57.2,
        avedis_tcad22: 0.783,
        time_tcad22: 1.78,
        avedis_date22: 0.91,
        time_date22: 3.92,
        avedis_ispd25: 0.79,
        time_ispd25: 19.21,
        avedis_flex: 0.771,
        time_flex: 0.897,
    },
    Iccad2017Case {
        name: "fft_2_md2",
        num_cells: 32_281,
        density_pct: 82.7,
        avedis_tcad22: 0.721,
        time_tcad22: 0.29,
        avedis_date22: 0.68,
        time_date22: 0.45,
        avedis_ispd25: 0.68,
        time_ispd25: 1.74,
        avedis_flex: 0.694,
        time_flex: 0.112,
    },
    Iccad2017Case {
        name: "fft_a_md2",
        num_cells: 30_625,
        density_pct: 32.3,
        avedis_tcad22: 0.563,
        time_tcad22: 0.22,
        avedis_date22: 0.65,
        time_date22: 0.32,
        avedis_ispd25: 0.75,
        time_ispd25: 0.51,
        avedis_flex: 0.604,
        time_flex: 0.041,
    },
    Iccad2017Case {
        name: "fft_a_md3",
        num_cells: 30_625,
        density_pct: 31.2,
        avedis_tcad22: 0.531,
        time_tcad22: 0.15,
        avedis_date22: 0.56,
        time_date22: 0.34,
        avedis_ispd25: 0.59,
        time_ispd25: 0.39,
        avedis_flex: 0.567,
        time_flex: 0.036,
    },
    Iccad2017Case {
        name: "pci_b_a_md1",
        num_cells: 29_517,
        density_pct: 49.5,
        avedis_tcad22: 0.652,
        time_tcad22: 0.33,
        avedis_date22: 0.63,
        time_date22: 0.58,
        avedis_ispd25: 0.92,
        time_ispd25: 0.70,
        avedis_flex: 0.699,
        time_flex: 0.106,
    },
    Iccad2017Case {
        name: "pci_b_a_md2",
        num_cells: 29_517,
        density_pct: 57.7,
        avedis_tcad22: 0.839,
        time_tcad22: 0.47,
        avedis_date22: 0.91,
        time_date22: 0.62,
        avedis_ispd25: 0.85,
        time_ispd25: 2.12,
        avedis_flex: 0.838,
        time_flex: 0.130,
    },
    Iccad2017Case {
        name: "pci_b_b_md1",
        num_cells: 28_914,
        density_pct: 26.6,
        avedis_tcad22: 0.781,
        time_tcad22: 0.31,
        avedis_date22: 0.48,
        time_date22: 0.62,
        avedis_ispd25: 1.14,
        time_ispd25: 0.88,
        avedis_flex: 0.821,
        time_flex: 0.085,
    },
    Iccad2017Case {
        name: "pci_b_b_md2",
        num_cells: 28_914,
        density_pct: 18.3,
        avedis_tcad22: 0.704,
        time_tcad22: 0.32,
        avedis_date22: 0.63,
        time_date22: 0.45,
        avedis_ispd25: 1.01,
        time_ispd25: 1.69,
        avedis_flex: 0.746,
        time_flex: 0.072,
    },
    Iccad2017Case {
        name: "pci_b_b_md3",
        num_cells: 28_914,
        density_pct: 22.2,
        avedis_tcad22: 0.925,
        time_tcad22: 0.34,
        avedis_date22: 0.87,
        time_date22: 0.45,
        avedis_ispd25: 1.09,
        time_ispd25: 1.92,
        avedis_flex: 0.945,
        time_flex: 0.082,
    },
];

/// Look up a case by name.
pub fn case(name: &str) -> Option<&'static Iccad2017Case> {
    CASES.iter().find(|c| c.name == name)
}

/// Mixed-height profile for a case family, consistent with the Fig. 9 statement that the `_1`
/// and `md1` families contain no cells taller than three rows.
pub fn height_mix_for(name: &str) -> HeightMix {
    if name.ends_with("md3") {
        vec![(1, 0.74), (2, 0.13), (3, 0.08), (4, 0.04), (5, 0.01)]
    } else if name == "pci_b_a_md2" {
        // the paper singles this case out for its high fraction of cells taller than 3 rows
        vec![(1, 0.70), (2, 0.13), (3, 0.08), (4, 0.07), (5, 0.02)]
    } else if name.ends_with("md2") {
        vec![(1, 0.78), (2, 0.13), (3, 0.06), (4, 0.03)]
    } else if name.ends_with("md1") {
        vec![(1, 0.88), (2, 0.09), (3, 0.03)]
    } else {
        // plain contest cases ("_1"): mostly single-row with a few double/triple-row cells
        vec![(1, 0.90), (2, 0.08), (3, 0.02)]
    }
}

/// Build the synthetic-generator spec for a case, scaling the cell count by `scale`.
///
/// `scale = 1.0` reproduces the full contest size (≈30k–130k cells); the experiment harness
/// defaults to a smaller scale so the whole Table 1 suite runs in seconds on a laptop while
/// preserving the density and height-mix characteristics that drive the paper's comparisons.
pub fn spec(case: &Iccad2017Case, scale: f64, seed: u64) -> BenchmarkSpec {
    BenchmarkSpec {
        name: case.name.to_string(),
        num_cells: ((case.num_cells as f64 * scale).round() as usize).max(100),
        density: (case.density_pct / 100.0).clamp(0.05, 0.95),
        height_mix: height_mix_for(case.name),
        min_width: 2,
        max_width: 9,
        num_macros: if case.density_pct > 80.0 { 1 } else { 3 },
        macro_area_fraction: if case.density_pct > 80.0 { 0.01 } else { 0.05 },
        seed,
        aspect: 6.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::generate;
    use crate::metrics::tall_cell_fraction;

    #[test]
    fn catalogue_has_sixteen_cases_with_paper_averages() {
        assert_eq!(CASES.len(), 16);
        let avg_flex_time: f64 = CASES.iter().map(|c| c.time_flex).sum::<f64>() / 16.0;
        assert!(
            (avg_flex_time - 0.378).abs() < 0.01,
            "avg FLEX time {avg_flex_time}"
        );
        let avg_tcad_dis: f64 = CASES.iter().map(|c| c.avedis_tcad22).sum::<f64>() / 16.0;
        assert!((avg_tcad_dis - 0.757).abs() < 0.01);
    }

    #[test]
    fn paper_speedups_match_reported_extremes() {
        // the paper reports up to 18.3x over DATE'22 and up to 5.4x over TCAD'22
        let max_acc_d = CASES.iter().map(|c| c.acc_d()).fold(0.0f64, f64::max);
        let max_acc_t = CASES.iter().map(|c| c.acc_t()).fold(0.0f64, f64::max);
        assert!((max_acc_d - 18.3).abs() < 0.3, "max Acc(D) {max_acc_d}");
        assert!((max_acc_t - 5.4).abs() < 0.2, "max Acc(T) {max_acc_t}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(case("des_perf_1").is_some());
        assert!(case("not_a_case").is_none());
        assert_eq!(case("fft_a_md2").unwrap().num_cells, 30_625);
    }

    #[test]
    fn md1_family_has_no_tall_cells_md2_does() {
        let md1 = spec(case("des_perf_a_md1").unwrap(), 0.02, 1);
        let d1 = generate(&md1);
        assert_eq!(tall_cell_fraction(&d1, 3), 0.0);

        let md2 = spec(case("pci_b_a_md2").unwrap(), 0.05, 1);
        let d2 = generate(&md2);
        assert!(tall_cell_fraction(&d2, 3) > 0.03);
    }

    #[test]
    fn all_specs_cover_every_case_and_respect_scale() {
        for (i, c) in CASES.iter().enumerate() {
            let s = spec(c, 0.01, i as u64);
            assert_eq!(s.name, c.name);
            assert!(s.num_cells >= 100);
            assert!(s.num_cells <= c.num_cells);
            assert!((s.density - c.density_pct / 100.0).abs() < 1e-9 || s.density == 0.95);
        }
    }
}
