//! Fixtures shared by the audit differential tests: seeded random designs and the
//! subtract-based free-interval computation the sort-and-sweep replaced (the oracle).

use crate::cell::{Cell, CellId};
use crate::geom::{Interval, Rect};
use crate::layout::Design;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded random design with every kind of blocker and cell the audits must handle:
/// macros (some hanging past the die), blockages (ordinary, zero-width, inverted and
/// wholly off-die), single- and multi-row movable cells (some hanging past the die, some
/// not legalized), and tombstones.
pub(crate) fn random_design(seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = rng.random_range(24..160i64);
    let rows = rng.random_range(4..40i64);
    let mut d = Design::new(format!("audit-{seed}"), sites, rows);
    for _ in 0..rng.random_range(0..5u32) {
        let (w, h) = (rng.random_range(1..20i64), rng.random_range(1..8i64));
        let (x, y) = (rng.random_range(-5..sites), rng.random_range(-3..rows));
        d.add_cell(Cell::fixed(CellId(0), w, h, x, y));
    }
    for _ in 0..rng.random_range(0..6u32) {
        let (x, y) = (
            rng.random_range(-10..sites + 10),
            rng.random_range(-4..rows + 2),
        );
        let (w, h) = (rng.random_range(-2..16i64), rng.random_range(1..6i64));
        // a struct literal, not `Rect::new`: a negative width stays inverted
        d.add_blockage(Rect {
            x_lo: x,
            y_lo: y,
            x_hi: x + w,
            y_hi: y + h,
        });
    }
    for _ in 0..rng.random_range(1..(sites * rows / 12) as u64 + 2) {
        let (w, h) = (rng.random_range(1..8i64), rng.random_range(1..5i64));
        let mut c = Cell::movable(CellId(0), w, h, 0.0, 0.0);
        c.x = rng.random_range(-4..sites + 2);
        c.y = rng.random_range(-2..rows + 1);
        c.legalized = rng.random::<f64>() < 0.8;
        let id = d.add_cell(c);
        if rng.random::<f64>() < 0.05 {
            d.tombstone_cell(id);
        }
    }
    d
}

/// The die width minus `blocked`, by subtracting the blockers one at a time with
/// [`Interval::subtract`]: the allocating computation `Design::free_intervals` used before
/// its sort-and-sweep, kept as the oracle.
pub(crate) fn free_among_by_subtract(
    num_sites_x: i64,
    mut blocked: Vec<Interval>,
) -> Vec<Interval> {
    let full = Interval::new(0, num_sites_x);
    blocked.sort_by_key(|iv| iv.lo);
    let mut free = vec![full];
    for b in blocked {
        let mut next = Vec::with_capacity(free.len() + 1);
        for f in free {
            next.extend(f.subtract(&b));
        }
        free = next;
    }
    free.retain(|iv| !iv.is_empty());
    free.sort_by_key(|iv| iv.lo);
    free
}

/// Row ranges covering the audit's edge cases on a `rows`-row die: empty, reversed,
/// partly outside the die on either side, wholly outside, the full die, and single rows.
pub(crate) fn audit_ranges(rows: i64) -> Vec<(i64, i64)> {
    vec![
        (0, 0),
        (3, 3),
        (5, 2),
        (rows, 0),
        (-4, 3),
        (rows - 2, rows + 5),
        (-10, -2),
        (rows + 1, rows + 9),
        (0, rows),
        (-1, rows + 1),
        (0, 1),
        (rows - 1, rows),
        (rows / 3, 2 * rows / 3),
    ]
}
