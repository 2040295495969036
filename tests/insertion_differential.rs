//! Differential suite for insertion-point enumeration.
//!
//! The scratch enumeration (`insertion::enumerate_insertion_points_into`) stages each distinct
//! point once, from the first anchor of its run of equal splits, and sizes chains from the
//! presorted rows' width prefix sums. It must resolve exactly the points of the allocating
//! oracle (`insertion::enumerate_insertion_points`), in the same order, since the `max_points`
//! cap keeps a prefix. The regions here are beyond what a legalizer extracts: overlapping
//! cells, equal-x ties, zero-width cells, cells hanging past their segment, rows whose cell
//! centres are not sorted in `(x, index)` order, and rows without a segment. One scratch
//! serves every region.

use flex::mgl::insertion::{
    enumerate_insertion_points, enumerate_insertion_points_into, InsertionPoint, InsertionScratch,
};
use flex::mgl::region::{LocalCell, LocalRegion, LocalSegment};
use flex::mgl::shift::ShiftScratch;
use flex::placement::cell::CellId;
use flex::placement::geom::{Interval, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random region of up to six rows whose rows need not be clean.
fn random_region(rng: &mut StdRng, case: u32) -> LocalRegion {
    let rows = rng.random_range(1..=6i64);
    let width = rng.random_range(12..=60i64);
    let mut segments = Vec::new();
    for row in 0..rows {
        if rng.random_range(0..6) != 0 {
            let span = Interval::new(rng.random_range(0..=3), width - rng.random_range(0..=3i64));
            segments.push(LocalSegment { row, span });
        }
    }
    let mut cells: Vec<LocalCell> = Vec::new();
    for id in 0..rng.random_range(0..=30u32) {
        let height = rng.random_range(1..=rows.min(4));
        let x = if !cells.is_empty() && rng.random_range(0..4) == 0 {
            cells[rng.random_range(0..cells.len())].x
        } else {
            rng.random_range(-2..=width)
        };
        cells.push(LocalCell {
            id: CellId(id),
            x,
            y: rng.random_range(0..=(rows - height)),
            width: rng.random_range(0..=8i64),
            height,
            gx: x as f64,
        });
    }
    LocalRegion {
        target: CellId(10_000 + case),
        window: Rect::new(0, 0, width, rows),
        segments,
        cells,
        density: 0.0,
    }
}

/// The target's desired x: mostly inside the window, sometimes between sites, rarely a
/// degenerate value a broken global placement could hand over.
fn random_anchor(rng: &mut StdRng, width: i64) -> f64 {
    match rng.random_range(0..40u32) {
        0 => f64::NAN,
        1 => 1e300,
        2 => -1e300,
        3..=15 => rng.random_range(-4..=width + 4) as f64 + 0.5,
        _ => rng.random_range(-4..=width + 4) as f64,
    }
}

/// What the random regions exercised, so a generator change cannot silently stop covering a
/// case the enumeration treats specially.
#[derive(Debug, Default)]
struct Coverage {
    overlapping_rows: usize,
    equal_x_ties: usize,
    zero_width_cells: usize,
    unsorted_centre_rows: usize,
    points_by_height: [usize; 4],
    points_by_parity: [usize; 2],
    mid_row_caps: usize,
    capped_runs: usize,
}

impl Coverage {
    fn record_region(&mut self, region: &LocalRegion) {
        for seg in &region.segments {
            let mut row: Vec<usize> = (0..region.cells.len())
                .filter(|&i| region.cells[i].rows().any(|r| r == seg.row))
                .collect();
            row.sort_by_key(|&i| (region.cells[i].x, i));
            let cell = |i: usize| &region.cells[i];
            if row.windows(2).any(|w| cell(w[0]).right() > cell(w[1]).x) {
                self.overlapping_rows += 1;
            }
            if row.windows(2).any(|w| cell(w[0]).x == cell(w[1]).x) {
                self.equal_x_ties += 1;
            }
            let centre = |i: usize| 2 * cell(i).x + cell(i).width;
            if row.windows(2).any(|w| centre(w[0]) > centre(w[1])) {
                self.unsorted_centre_rows += 1;
            }
        }
        self.zero_width_cells += region.cells.iter().filter(|c| c.width == 0).count();
    }
}

/// Enumerate with the scratch and the oracle and require the same points in the same order.
#[allow(clippy::too_many_arguments)]
fn check(
    region: &LocalRegion,
    width: i64,
    height: i64,
    parity: Option<u8>,
    anchor: f64,
    cap: usize,
    rows: &ShiftScratch,
    scratch: &mut InsertionScratch,
    label: &str,
) -> Vec<InsertionPoint> {
    let want = enumerate_insertion_points(region, width, height, parity, anchor, cap);
    let n =
        enumerate_insertion_points_into(region, width, height, parity, anchor, cap, rows, scratch);
    assert_eq!(n, want.len(), "{label}: point count");
    assert_eq!(scratch.points(), &want[..], "{label}");
    want
}

#[test]
fn scratch_enumeration_matches_the_oracle_on_unclean_regions() {
    let mut rng = StdRng::seed_from_u64(0x1_45E7);
    let mut rows = ShiftScratch::default();
    let mut scratch = InsertionScratch::default();
    let mut cov = Coverage::default();
    for case in 0..3_000u32 {
        let region = random_region(&mut rng, case);
        cov.record_region(&region);
        rows.begin_region(&region);
        for _ in 0..4 {
            let width = rng.random_range(1..=9i64);
            let height = rng.random_range(1..=4i64);
            let parity = match rng.random_range(0..3u32) {
                0 => Some(0),
                1 => Some(1),
                _ => None,
            };
            let anchor = random_anchor(&mut rng, region.window.x_hi);
            let label =
                format!("case {case} w {width} h {height} parity {parity:?} anchor {anchor}");
            let all = check(
                &region,
                width,
                height,
                parity,
                anchor,
                usize::MAX,
                &rows,
                &mut scratch,
                &label,
            );
            for p in &all {
                cov.points_by_height[height as usize - 1] += 1;
                cov.points_by_parity[p.bottom_row.rem_euclid(2) as usize] += 1;
            }
            // the cap keeps a prefix: cut inside a bottom row's points, between two rows,
            // and at random
            let mid_row: Vec<usize> = (1..all.len())
                .filter(|&k| all[k - 1].bottom_row == all[k].bottom_row)
                .collect();
            let mut caps = vec![0, 1, rng.random_range(0..=all.len() + 1)];
            if !mid_row.is_empty() {
                caps.push(mid_row[rng.random_range(0..mid_row.len())]);
                cov.mid_row_caps += 1;
            }
            for cap in caps {
                let got = check(
                    &region,
                    width,
                    height,
                    parity,
                    anchor,
                    cap,
                    &rows,
                    &mut scratch,
                    &format!("{label} cap {cap}"),
                );
                cov.capped_runs += usize::from(got.len() < all.len());
            }
        }
    }
    println!("{cov:?}");
    assert!(cov.overlapping_rows > 500, "{cov:?}");
    assert!(cov.equal_x_ties > 200, "{cov:?}");
    assert!(cov.zero_width_cells > 500, "{cov:?}");
    assert!(cov.unsorted_centre_rows > 500, "{cov:?}");
    assert!(cov.points_by_height.iter().all(|&n| n > 500), "{cov:?}");
    assert!(cov.points_by_parity.iter().all(|&n| n > 1_000), "{cov:?}");
    assert!(cov.mid_row_caps > 1_000, "{cov:?}");
    assert!(cov.capped_runs > 3_000, "{cov:?}");
}
