//! Seeded synthetic benchmark generator.
//!
//! The paper evaluates on the ICCAD 2017 multi-deck legalization contest benchmarks. Those
//! LEF/DEF files are not redistributable, so this module generates *statistically equivalent*
//! designs from a [`BenchmarkSpec`]: the published cell count, design density, mixed-height
//! distribution and macro/blockage structure are reproduced, and a global placement is simulated
//! on top (see [`crate::global_place`]). Every generated design is fully determined by its spec
//! and seed, so experiments are reproducible run to run.

use crate::cell::{Cell, CellId};
use crate::geom::Rect;
use crate::global_place::{self, GlobalPlaceConfig};
use crate::layout::Design;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Distribution of cell heights: `(height_in_rows, fraction_of_cells)`.
pub type HeightMix = Vec<(i64, f64)>;

/// Specification of a synthetic benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Benchmark name (used for reporting; matches the ICCAD 2017 case names for Table 1).
    pub name: String,
    /// Number of movable cells to generate.
    pub num_cells: usize,
    /// Target design density (movable area / free area), as a fraction in `(0, 1]`.
    pub density: f64,
    /// Mixed-cell-height distribution; fractions are normalized internally.
    pub height_mix: HeightMix,
    /// Minimum cell width in sites.
    pub min_width: i64,
    /// Maximum cell width in sites.
    pub max_width: i64,
    /// Number of fixed macros to sprinkle over the die.
    pub num_macros: usize,
    /// Fraction of die area covered by fixed macros.
    pub macro_area_fraction: f64,
    /// RNG seed; the same spec + seed always generates the identical design.
    pub seed: u64,
    /// Die aspect ratio expressed as sites-per-row-count (width in sites ≈ aspect × rows).
    pub aspect: f64,
}

impl BenchmarkSpec {
    /// A small spec suitable for unit tests and the quickstart example (a few hundred cells).
    pub fn tiny(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            num_cells: 300,
            density: 0.55,
            height_mix: vec![(1, 0.86), (2, 0.10), (3, 0.03), (4, 0.01)],
            min_width: 2,
            max_width: 8,
            num_macros: 2,
            macro_area_fraction: 0.04,
            seed,
            aspect: 6.0,
        }
    }

    /// A medium spec (a few thousand cells) for integration tests and examples.
    pub fn medium(name: &str, seed: u64) -> Self {
        Self {
            num_cells: 4000,
            ..Self::tiny(name, seed)
        }
    }

    /// Scale the number of cells by `factor` (used to run the Table 1 suite at reduced size).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.num_cells = ((self.num_cells as f64 * factor).round() as usize).max(50);
        self
    }

    /// Override the density.
    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    /// Override the height mix.
    pub fn with_height_mix(mut self, mix: HeightMix) -> Self {
        self.height_mix = mix;
        self
    }
}

/// Sample a height from the (normalized) height mix.
fn sample_height(mix: &HeightMix, rng: &mut StdRng) -> i64 {
    let total: f64 = mix.iter().map(|(_, f)| f.max(0.0)).sum();
    if total <= 0.0 {
        return 1;
    }
    let mut r = rng.random::<f64>() * total;
    for (h, f) in mix {
        let f = f.max(0.0);
        if r < f {
            return (*h).max(1);
        }
        r -= f;
    }
    mix.last().map(|(h, _)| (*h).max(1)).unwrap_or(1)
}

/// Generate a design from a spec.
///
/// The die is sized so that `movable_area / free_area` matches the requested density; macros are
/// placed away from the die boundary so that every row keeps usable segments, and the global
/// placement is simulated with clustering + spreading.
pub fn generate(spec: &BenchmarkSpec) -> Design {
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // 1. sample cell dimensions
    let mut dims: Vec<(i64, i64)> = Vec::with_capacity(spec.num_cells);
    let mut movable_area = 0i64;
    for _ in 0..spec.num_cells {
        let h = sample_height(&spec.height_mix, &mut rng);
        let w = rng.random_range(spec.min_width..=spec.max_width.max(spec.min_width));
        movable_area += w * h;
        dims.push((w, h));
    }

    // 2. size the die: free_area = movable_area / density, plus macro area
    let density = spec.density.clamp(0.05, 0.98);
    let free_area = (movable_area as f64 / density).ceil();
    let die_area = free_area / (1.0 - spec.macro_area_fraction.clamp(0.0, 0.5));
    let num_rows = ((die_area / spec.aspect).sqrt().ceil() as i64).max(8);
    // round rows to even so parity-constrained cells always have candidate rows
    let num_rows = num_rows + (num_rows % 2);
    let num_sites_x = ((die_area / num_rows as f64).ceil() as i64).max(spec.max_width * 4);
    let mut design = Design::new(spec.name.clone(), num_sites_x, num_rows);

    // 3. macros (fixed cells) in the interior of the die
    let macro_area_target = (die_area * spec.macro_area_fraction.clamp(0.0, 0.5)) as i64;
    if spec.num_macros > 0 && macro_area_target > 0 {
        let per_macro = (macro_area_target / spec.num_macros as i64).max(1);
        for _ in 0..spec.num_macros {
            let mh = ((per_macro as f64).sqrt() / spec.aspect.sqrt()).ceil() as i64;
            let mh = mh.clamp(2, (num_rows / 3).max(2));
            let mw = (per_macro / mh).clamp(4, (num_sites_x / 3).max(4));
            let x = rng.random_range(
                num_sites_x / 8..=(num_sites_x - mw - num_sites_x / 8).max(num_sites_x / 8),
            );
            let y =
                rng.random_range(num_rows / 8..=(num_rows - mh - num_rows / 8).max(num_rows / 8));
            design.add_cell(Cell::fixed(CellId(0), mw, mh, x, y));
        }
    }

    // 4. movable cells (positions assigned by the global-placement simulator)
    for (w, h) in dims {
        design.add_cell(Cell::movable(CellId(0), w, h, 0.0, 0.0));
    }

    // 5. simulated global placement
    let gp = GlobalPlaceConfig {
        num_clusters: (spec.num_cells / 400).clamp(4, 64),
        ..GlobalPlaceConfig::default()
    };
    global_place::run(
        &mut design,
        &gp,
        spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );

    design
}

/// Generate a design and immediately apply the pre-move step (Fig. 3(e) step (a)).
pub fn generate_premoved(spec: &BenchmarkSpec) -> Design {
    let mut d = generate(spec);
    d.pre_move();
    d
}

/// A stress-test spec with an unusually high fraction of tall (4+ row) cells, used by the Fig. 9
/// bandwidth-optimization experiment.
pub fn tall_cell_spec(name: &str, tall_fraction: f64, seed: u64) -> BenchmarkSpec {
    let tall = tall_fraction.clamp(0.0, 0.6);
    let rest = 1.0 - tall;
    BenchmarkSpec {
        name: name.to_string(),
        num_cells: 2000,
        density: 0.55,
        height_mix: vec![
            (1, rest * 0.78),
            (2, rest * 0.14),
            (3, rest * 0.08),
            (4, tall * 0.7),
            (5, tall * 0.3),
        ],
        min_width: 2,
        max_width: 8,
        num_macros: 2,
        macro_area_fraction: 0.03,
        seed,
        aspect: 6.0,
    }
}

/// A blockage-heavy spec used by failure-injection tests (rows may be fully blocked).
pub fn blockage_heavy_spec(name: &str, seed: u64) -> BenchmarkSpec {
    BenchmarkSpec {
        num_macros: 8,
        macro_area_fraction: 0.25,
        density: 0.7,
        ..BenchmarkSpec::tiny(name, seed)
    }
}

/// Add a full-width blockage row to an existing design (failure injection helper).
pub fn block_row(design: &mut Design, row: i64) {
    design.add_blockage(Rect::new(0, row, design.num_sites_x, row + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{height_histogram, tall_cell_fraction};

    #[test]
    fn generate_matches_cell_count_and_rough_density() {
        let spec = BenchmarkSpec::tiny("t", 1);
        let d = generate(&spec);
        assert_eq!(d.num_movable(), spec.num_cells);
        let density = d.density();
        assert!(
            (density - spec.density).abs() < 0.12,
            "density {density} should approximate target {}",
            spec.density
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = BenchmarkSpec::tiny("t", 5);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn height_mix_is_respected() {
        let spec = BenchmarkSpec {
            num_cells: 3000,
            height_mix: vec![(1, 0.5), (2, 0.3), (3, 0.2)],
            ..BenchmarkSpec::tiny("mix", 9)
        };
        let d = generate(&spec);
        let h = height_histogram(&d);
        let n = d.num_movable() as f64;
        assert!((h[&1] as f64 / n - 0.5).abs() < 0.05);
        assert!((h[&2] as f64 / n - 0.3).abs() < 0.05);
        assert!((h[&3] as f64 / n - 0.2).abs() < 0.05);
        assert_eq!(h.get(&4), None);
    }

    #[test]
    fn tall_cell_spec_controls_tall_fraction() {
        let spec = tall_cell_spec("tall", 0.10, 3);
        let d = generate(&spec);
        let f = tall_cell_fraction(&d, 3);
        assert!(
            (f - 0.10).abs() < 0.03,
            "tall fraction {f} should be near 0.10"
        );
    }

    #[test]
    fn scaled_spec_changes_cell_count() {
        let spec = BenchmarkSpec::medium("m", 0).scaled(0.25);
        assert_eq!(spec.num_cells, 1000);
        let floor = BenchmarkSpec::tiny("m", 0).scaled(0.0001);
        assert_eq!(floor.num_cells, 50);
    }

    #[test]
    fn premoved_design_has_cells_on_rows() {
        let d = generate_premoved(&BenchmarkSpec::tiny("pm", 13));
        for c in d.cells.iter().filter(|c| !c.fixed) {
            assert!(c.y >= 0 && c.y + c.height <= d.num_rows);
            assert!(c.x >= 0 && c.x + c.width <= d.num_sites_x);
            assert!(c.parity_ok(c.y), "pre-move must respect parity");
        }
    }

    #[test]
    fn block_row_adds_full_width_blockage() {
        let mut d = generate(&BenchmarkSpec::tiny("blk", 2));
        let before = d.blockages.len();
        block_row(&mut d, 3);
        assert_eq!(d.blockages.len(), before + 1);
        assert!(d.free_intervals_in_rows(3, 4)[0].is_empty());
    }
}
