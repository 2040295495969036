//! Fixtures shared by the audit differential tests: seeded random designs, random sets of
//! audited row ranges, the way a per-range oracle judges such a set, and the subtract-based
//! free-interval computation the sort-and-sweep replaced (the oracle).

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

/// `span` minus `blocked`, by subtracting the blockers one at a time with
/// [`Interval::subtract`]: the allocating computation a row's free intervals came from
/// before [`crate::layout::free_among`]'s sort-and-sweep, kept as its oracle.
pub(crate) fn free_among_by_subtract(span: Interval, mut blocked: Vec<Interval>) -> Vec<Interval> {
    blocked.sort_by_key(|iv| iv.lo);
    let mut free = vec![span];
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

/// Sets of audited row ranges on a `rows`-row die with `bin_h`-row density bins: the empty
/// set, each of [`audit_ranges`] alone, and random sets of one to five ranges in random
/// order, some touching or overlapping the previous range, some straddling a bin-row
/// boundary, some reversed or off the die.
pub(crate) fn random_range_sets(rng: &mut StdRng, rows: i64, bin_h: i64) -> Vec<Vec<(i64, i64)>> {
    let mut sets: Vec<Vec<(i64, i64)>> = audit_ranges(rows).into_iter().map(|r| vec![r]).collect();
    sets.push(Vec::new());
    for _ in 0..10 {
        let mut set: Vec<(i64, i64)> = Vec::new();
        for _ in 0..rng.random_range(1..6u32) {
            let range = match (rng.random_range(0..4u32), set.last()) {
                (0, Some(&(_, hi))) => (hi, hi + rng.random_range(1..6i64)),
                (1, Some(&(lo, hi))) => (lo + 1, hi + rng.random_range(-2..4i64)),
                (2, _) => {
                    let edge = bin_h * rng.random_range(0..rows / bin_h + 2);
                    (
                        edge - rng.random_range(1..3i64),
                        edge + rng.random_range(1..3i64),
                    )
                }
                _ => {
                    let lo = rng.random_range(-5..rows + 5);
                    (lo, lo + rng.random_range(-3..rows / 2 + 4))
                }
            };
            set.push(range);
        }
        if rng.random::<f64>() < 0.5 {
            set.reverse();
        }
        sets.push(set);
    }
    sets
}

/// What a per-range audit `oracle` says of the rows of `ranges` on a `rows`-row die: its
/// shape check (an empty range), then its verdict on each range clipped to the die, in
/// ascending order, stopping at the first `Err` — the first divergence in row order.
pub(crate) fn audit_over<E>(
    ranges: &[(i64, i64)],
    rows: i64,
    mut oracle: impl FnMut(i64, i64) -> Result<(), E>,
) -> Result<(), E> {
    oracle(0, 0)?;
    let mut clipped: Vec<(i64, i64)> = ranges
        .iter()
        .map(|&(lo, hi)| (lo.clamp(0, rows), hi.clamp(0, rows)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    clipped.sort_unstable();
    clipped.into_iter().try_for_each(|(lo, hi)| oracle(lo, hi))
}
