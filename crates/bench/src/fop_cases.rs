//! Synthetic localRegions for the FOP kernel micro-benchmarks.
//!
//! The `fop_kernel` bench and the `report_figures --fop-json` mode both measure
//! [`find_optimal_position`](flex_mgl::fop::find_optimal_position_with) on these regions,
//! comparing the arena-allocated kernel against the allocating
//! [`reference`](flex_mgl::fop::reference) implementation. Three shapes cover the regimes
//! that matter for the serial constant:
//!
//! * **crowded** — the 50k-cell-scale hot case: an expanded window pulled in hundreds of
//!   localCells, so every insertion point shifts long chains and produces many breakpoints.
//!   This is the regime the ROADMAP's "~2.5 ms/target at 50k cells" figure comes from.
//! * **sparse** — a near-empty window: the kernel cost is dominated by per-point setup, which
//!   is exactly what the arena removes.
//! * **tall** — a mix with cells up to six rows high, exercising the multi-row cascade and
//!   the tall-cell bound-query accounting.
//!
//! Regions are generated with seeded RNG streams, so both sides of every comparison see
//! byte-identical inputs across runs and machines.

use flex_mgl::fop::TargetSpec;
use flex_mgl::region::{LocalCell, LocalRegion, LocalSegment};
use flex_placement::cell::CellId;
use flex_placement::geom::{Interval, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One named benchmark region plus the target FOP places into it.
pub struct FopCase {
    /// Case name (stable across runs; used as the JSON/bench id).
    pub name: &'static str,
    /// The localRegion under test.
    pub region: LocalRegion,
    /// The target cell to place.
    pub target: TargetSpec,
}

/// Randomly pack non-overlapping localCells into a `rows × width` region.
fn pack_region(
    rows: i64,
    width: i64,
    attempts: usize,
    w_range: (i64, i64),
    h_max: i64,
    seed: u64,
) -> LocalRegion {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut region = LocalRegion {
        target: CellId(1_000_000),
        window: Rect::new(0, 0, width, rows),
        segments: (0..rows)
            .map(|r| LocalSegment {
                row: r,
                span: Interval::new(0, width),
            })
            .collect(),
        cells: Vec::new(),
        density: 0.0,
    };
    let mut occupied: Vec<Vec<Interval>> = vec![Vec::new(); rows as usize];
    let mut id = 0u32;
    for _ in 0..attempts {
        let h = if h_max <= 1 {
            1
        } else {
            // bias towards single-row cells, like real mixed-height designs
            let roll = rng.random_range(0..10i64);
            if roll < 7 {
                1
            } else {
                rng.random_range(2..=h_max.min(rows))
            }
        };
        let y = rng.random_range(0..=(rows - h));
        let w = rng.random_range(w_range.0..=w_range.1);
        if w > width {
            continue;
        }
        let x = rng.random_range(0..=(width - w));
        let span = Interval::new(x, x + w);
        let clash = (y..y + h).any(|r| occupied[r as usize].iter().any(|iv| iv.overlaps(&span)));
        if clash {
            continue;
        }
        for r in y..y + h {
            occupied[r as usize].push(span);
        }
        // global position near the current one, as after a real pre-move
        let gx = x as f64 + rng.random_range(-3..=3i64) as f64;
        region.cells.push(LocalCell {
            id: CellId(id),
            x,
            y,
            width: w,
            height: h,
            gx,
        });
        id += 1;
    }
    let free: i64 = region.segments.iter().map(|s| s.span.len()).sum();
    let used: i64 = region.cells.iter().map(|c| c.width * c.height).sum();
    region.density = used as f64 / free.max(1) as f64;
    region
}

fn target_for(region: &LocalRegion, width: i64, height: i64) -> TargetSpec {
    TargetSpec {
        width,
        height,
        gx: (region.window.x_hi / 2) as f64,
        gy: (region.window.y_hi / 2) as f64,
        parity: None,
    }
}

/// The 50k-cell-scale crowded case: hundreds of localCells in an expanded window.
pub fn crowded() -> FopCase {
    let region = pack_region(16, 256, 4000, (3, 7), 1, 0xC0FFEE01);
    let target = target_for(&region, 6, 1);
    FopCase {
        name: "crowded",
        region,
        target,
    }
}

/// A near-empty window: per-point setup cost dominates.
pub fn sparse() -> FopCase {
    let region = pack_region(8, 256, 24, (3, 7), 1, 0xC0FFEE02);
    let target = target_for(&region, 5, 1);
    FopCase {
        name: "sparse",
        region,
        target,
    }
}

/// Mixed-height region with cells up to six rows tall; the target itself spans two rows.
pub fn tall() -> FopCase {
    let region = pack_region(12, 128, 220, (3, 8), 6, 0xC0FFEE03);
    let target = target_for(&region, 6, 2);
    FopCase {
        name: "tall",
        region,
        target,
    }
}

/// All benchmark cases, crowded first (the acceptance-gated one).
pub fn all() -> Vec<FopCase> {
    vec![crowded(), sparse(), tall()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_mgl::config::MglConfig;
    use flex_mgl::fop::{self, FopScratch};
    use flex_mgl::stats::FopOpStats;

    #[test]
    fn cases_are_deterministic_and_feasible() {
        for (a, b) in all().into_iter().zip(all()) {
            assert_eq!(
                a.region.cells, b.region.cells,
                "{}: not deterministic",
                a.name
            );
        }
        let mut scratch = FopScratch::new();
        for case in all() {
            assert!(!case.region.cells.is_empty());
            let mut stats = FopOpStats::default();
            let out = fop::find_optimal_position_with(
                &case.region,
                &case.target,
                &MglConfig::default(),
                &mut stats,
                &mut scratch,
            );
            assert!(out.work.insertion_points > 0, "{}", case.name);
            assert!(out.best.is_some(), "{}: no feasible placement", case.name);
        }
        assert!(
            crowded().region.cells.len() >= 200,
            "crowded case must stress the kernel ({} cells)",
            crowded().region.cells.len()
        );
        assert!(
            tall().region.cells.iter().any(|c| c.height > 3),
            "tall case needs cells taller than three rows"
        );
    }
}
