//! Differential suite for localRegion extraction.
//!
//! `LocalRegion::extract_from` carves the window's segments in time linear in the obstacle
//! candidates and the rows they span. The quadratic implementation it replaced is kept
//! below, verbatim, as the oracle. On random designs — multi-row cells straddling window
//! edges, fixed macros and blockages, packed or freely overlapping cells, windows from a few
//! sites up to past the full die, and regions above `max_region_cells` — the production code
//! must return the same segments, the same localCells in the same order and the same
//! `density` bits. The three extractors (full scan, `LegalizedIndex`, epoch snapshot) must
//! also agree with each other on every input.

use flex::mgl::legalize::place_target_with;
use flex::mgl::ordering::size_descending_order;
use flex::mgl::region::{target_window, LegalizedIndex, LocalCell, LocalRegion, LocalSegment};
use flex::mgl::{FopOpStats, FopScratch, MglConfig};
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::cell::{Cell, CellId};
use flex::placement::geom::Rect;
use flex::placement::segment::SegmentMap;
use flex::placement::store::EpochCellStore;
use flex::placement::Design;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The extraction body before it was made linear, kept verbatim as the oracle: a
/// `local_ids.contains` per (segment, obstacle) pair, a linear segment `find` per cell row,
/// and an obstacle filter that also scans every segment.
fn quadratic_extract(
    num_rows: i64,
    segments: &SegmentMap,
    target: CellId,
    window: Rect,
    obstacle_candidates: Vec<&Cell>,
) -> LocalRegion {
    let win_x = window.x_interval();
    // 1. one candidate segment per row: the widest free interval clipped to the window.
    let mut segs: Vec<LocalSegment> = Vec::new();
    for row in window.y_lo.max(0)..window.y_hi.min(num_rows) {
        if let Some(s) = segments.widest_in_window(row, &win_x) {
            segs.push(LocalSegment { row, span: s.span });
        }
    }

    // Obstacle candidates: legalized movable cells near the window.
    let obstacles: Vec<&Cell> = obstacle_candidates
        .into_iter()
        .filter(|c| {
            c.rect().overlaps(&window.expanded(1, 0)) || {
                // cells just outside the window can still overlap a segment that touches the
                // window boundary, so consider anything overlapping any candidate segment row
                segs.iter()
                    .any(|s| c.y_interval().contains(s.row) && c.x_interval().overlaps(&s.span))
            }
        })
        .collect();

    // 2./3. iterate: classify cells as local (fully inside) or blocking (partially inside);
    // blocking cells carve the segments, which may demote further cells.
    let mut local_ids: Vec<usize> = Vec::new();
    for _ in 0..4 {
        let is_contained = |c: &Cell, segs: &[LocalSegment]| {
            c.rows().all(|r| {
                segs.iter()
                    .find(|s| s.row == r)
                    .map(|s| s.span.contains_interval(&c.x_interval()))
                    .unwrap_or(false)
            })
        };
        local_ids = obstacles
            .iter()
            .enumerate()
            .filter(|(_, c)| is_contained(c, &segs))
            .map(|(i, _)| i)
            .collect();
        // carve segments with every non-local obstacle that still overlaps them
        let mut changed = false;
        let mut new_segs = Vec::with_capacity(segs.len());
        for seg in &segs {
            let mut pieces = vec![seg.span];
            for (i, c) in obstacles.iter().enumerate() {
                if local_ids.contains(&i) {
                    continue;
                }
                if !c.y_interval().contains(seg.row) {
                    continue;
                }
                let span = c.x_interval();
                let mut next = Vec::with_capacity(pieces.len() + 1);
                for p in pieces {
                    next.extend(p.subtract(&span));
                }
                pieces = next;
            }
            if let Some(best) = pieces.into_iter().max_by_key(|p| p.len()) {
                if best != seg.span {
                    changed = true;
                }
                if !best.is_empty() {
                    new_segs.push(LocalSegment {
                        row: seg.row,
                        span: best,
                    });
                } else {
                    changed = true;
                }
            } else {
                changed = true;
            }
        }
        segs = new_segs;
        if !changed {
            break;
        }
    }

    let cells: Vec<LocalCell> = local_ids
        .iter()
        .map(|&i| {
            let c = obstacles[i];
            LocalCell {
                id: c.id,
                x: c.x,
                y: c.y,
                width: c.width,
                height: c.height,
                gx: c.gx,
            }
        })
        .collect();

    let free: i64 = segs.iter().map(|s| s.span.len()).sum();
    let used: i64 = cells.iter().map(|c| c.width * c.height).sum();
    let density = if free > 0 {
        used as f64 / free as f64
    } else {
        1.0
    };

    let mut region = LocalRegion {
        target,
        window,
        segments: segs,
        cells,
        density,
    };
    region.segments.sort_by_key(|s| s.row);
    region
}

/// Assert two regions are identical: segments, localCells in order (with `gx` compared
/// bitwise) and density bits.
fn assert_same_region(want: &LocalRegion, got: &LocalRegion, ctx: &str) {
    assert_eq!(got.target, want.target, "target: {ctx}");
    assert_eq!(got.window, want.window, "window: {ctx}");
    assert_eq!(got.segments, want.segments, "segments: {ctx}");
    let ids = |r: &LocalRegion| r.cells.iter().map(|c| c.id).collect::<Vec<_>>();
    assert_eq!(ids(got), ids(want), "localCell ids or order: {ctx}");
    assert_eq!(got.cells, want.cells, "localCell fields: {ctx}");
    let gx_bits = |r: &LocalRegion| r.cells.iter().map(|c| c.gx.to_bits()).collect::<Vec<_>>();
    assert_eq!(gx_bits(got), gx_bits(want), "localCell gx bits: {ctx}");
    assert_eq!(
        got.density.to_bits(),
        want.density.to_bits(),
        "density {} vs {}: {ctx}",
        got.density,
        want.density
    );
}

/// What the checks of one suite exercised, so a generator change that stops producing
/// blockers or carving fails loudly instead of passing vacuously.
#[derive(Default)]
struct Coverage {
    regions: usize,
    with_cells: usize,
    /// Legalized obstacles overlapping the window that ended up not local.
    blockers: usize,
    /// ... of which span more than one row.
    tall_blockers: usize,
    /// Segments narrower than the widest free interval of their row in the window.
    carved_segments: usize,
}

/// One design with everything the three extractors read, built once.
struct Fixture {
    design: Design,
    segmap: SegmentMap,
    index: LegalizedIndex,
    store: EpochCellStore,
}

impl Fixture {
    fn new(design: Design) -> Self {
        Self {
            segmap: SegmentMap::build(&design),
            index: LegalizedIndex::build(&design),
            store: EpochCellStore::capture(&design),
            design,
        }
    }

    /// Extract `target`'s region in `window` with the oracle and all three production
    /// extractors, assert all four agree, and record what the case exercised.
    fn check(&self, target: CellId, window: Rect, cov: &mut Coverage) -> LocalRegion {
        let d = &self.design;
        let ctx = format!("{} target {target:?} window {window:?}", d.name);
        let candidates: Vec<&Cell> = d
            .cells
            .iter()
            .filter(|c| !c.fixed && c.legalized && c.id != target)
            .collect();
        let want = quadratic_extract(d.num_rows, &self.segmap, target, window, candidates);
        let full = LocalRegion::extract(d, &self.segmap, target, window);
        assert_same_region(&want, &full, &format!("extract vs oracle, {ctx}"));
        let indexed = LocalRegion::extract_indexed(d, &self.segmap, target, window, &self.index);
        assert_same_region(
            &full,
            &indexed,
            &format!("extract_indexed vs extract, {ctx}"),
        );
        let snapshot =
            LocalRegion::extract_snapshot(&self.store.snapshot(), &self.segmap, target, window);
        assert_same_region(
            &full,
            &snapshot,
            &format!("extract_snapshot vs extract, {ctx}"),
        );

        cov.regions += 1;
        cov.with_cells += usize::from(!full.cells.is_empty());
        for c in d
            .cells
            .iter()
            .filter(|c| !c.fixed && c.legalized && c.id != target)
        {
            if c.rect().overlaps(&window) && !full.cells.iter().any(|l| l.id == c.id) {
                cov.blockers += 1;
                cov.tall_blockers += usize::from(c.height > 1);
            }
        }
        for s in &full.segments {
            let widest = self.segmap.widest_in_window(s.row, &window.x_interval());
            cov.carved_segments += usize::from(widest.map(|w| w.span) != Some(s.span));
        }
        full
    }
}

/// A legalized movable `w × h` cell at `(x, y)` whose global-placement x is `jitter` away.
fn placed(w: i64, h: i64, x: i64, y: i64, jitter: f64) -> Cell {
    let mut c = Cell::movable(CellId(0), w, h, x as f64 + jitter, y as f64);
    c.x = x;
    c.y = y;
    c.legalized = true;
    c
}

/// A random design: up to three fixed macros and two blockages, then movable cells 1–4 rows
/// high and 1–9 sites wide. With `packed`, the cells are laid left to right on their rows
/// without overlapping each other (a legal placement); otherwise they land anywhere and
/// overlap freely. About one cell in six stays unlegalized.
fn random_design(seed: u64, packed: bool) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = rng.random_range(12..=120i64);
    let rows = rng.random_range(2..=20i64);
    let mut d = Design::new(format!("rand-{seed}-{packed}"), width, rows);
    for _ in 0..rng.random_range(0..=3u32) {
        let w = rng.random_range(2..=(width / 3).max(2));
        let h = rng.random_range(1..=rows);
        let x = rng.random_range(0..=width - w);
        let y = rng.random_range(0..=rows - h);
        d.add_cell(Cell::fixed(CellId(0), w, h, x, y));
    }
    for _ in 0..rng.random_range(0..=2u32) {
        let x = rng.random_range(0..width);
        let y = rng.random_range(0..rows);
        let w = rng.random_range(1..=8i64);
        let h = rng.random_range(1..=3i64);
        d.add_blockage(Rect::new(x, y, x + w, y + h));
    }
    let mut next_x = vec![0i64; rows as usize];
    let attempts = rng.random_range(4..=(width * rows / 4).max(5));
    for _ in 0..attempts {
        let w = rng.random_range(1..=9i64.min(width));
        let h = rng.random_range(1..=4i64.min(rows));
        let y = rng.random_range(0..=rows - h);
        let x = if packed {
            let at = (y..y + h).map(|r| next_x[r as usize]).max().unwrap_or(0)
                + rng.random_range(0..=3i64);
            if at + w > width {
                continue;
            }
            for r in y..y + h {
                next_x[r as usize] = at + w;
            }
            at
        } else {
            rng.random_range(0..=width - w)
        };
        let mut c = placed(w, h, x, y, rng.random_range(-30..=30i64) as f64 / 10.0);
        c.legalized = rng.random_range(0..6u32) != 0;
        d.add_cell(c);
    }
    d
}

/// Windows for one target: random rectangles (some hanging past the die), windows around
/// the target at doubling sizes (the legalizer's expansion schedule), and the whole die
/// with a margin.
fn windows_for(d: &Design, target: CellId, rng: &mut StdRng) -> Vec<Rect> {
    let mut out = Vec::new();
    for _ in 0..6 {
        let x_lo = rng.random_range(-3..d.num_sites_x);
        let y_lo = rng.random_range(-2..d.num_rows);
        let w = rng.random_range(1..=d.num_sites_x + 4);
        let h = rng.random_range(1..=d.num_rows + 2);
        out.push(Rect::new(x_lo, y_lo, x_lo + w, y_lo + h));
    }
    for k in 0..4 {
        out.push(target_window(d, target, 4 << k, 1 << k));
    }
    out.push(d.die());
    out.push(d.die().expanded(2, 1));
    out
}

#[test]
fn extraction_matches_quadratic_oracle_on_random_designs() {
    let mut cov = Coverage::default();
    for seed in 0..150u64 {
        let fx = Fixture::new(random_design(seed, seed % 2 == 0));
        let movable = fx.design.movable_ids();
        if movable.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..3 {
            let target = movable[rng.random_range(0..movable.len())];
            for window in windows_for(&fx.design, target, &mut rng) {
                fx.check(target, window, &mut cov);
            }
        }
    }
    assert!(cov.regions > 4_000, "only {} regions checked", cov.regions);
    assert!(
        cov.with_cells * 3 > cov.regions,
        "too few regions hold localCells: {}",
        cov.with_cells
    );
    assert!(
        cov.tall_blockers > 1_000,
        "too few multi-row blockers: {}",
        cov.tall_blockers
    );
    assert!(
        cov.carved_segments > 1_000,
        "too few carved segments: {}",
        cov.carved_segments
    );
    assert!(cov.blockers > cov.tall_blockers);
}

#[test]
fn extraction_matches_oracle_above_max_region_cells() {
    let max_region_cells = MglConfig::default().max_region_cells;
    let mut cov = Coverage::default();
    for seed in 0..2u64 {
        // a packed 200 × 24 die of narrow cells holds well over `max_region_cells`, plus
        // 3-row cells across the edges of the inner window checked below
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Design::new(format!("oversize-{seed}"), 200, 24);
        d.add_cell(Cell::fixed(CellId(0), 12, 6, 90, 9));
        for row in 0..24i64 {
            let mut x = 0;
            loop {
                let w = rng.random_range(2..=4i64);
                if x + w > 200 {
                    break;
                }
                d.add_cell(placed(w, 1, x, row, 0.5));
                x += w + rng.random_range(0..=1i64);
            }
        }
        for (x, y) in [(38, 2), (168, 10), (100, 20)] {
            d.add_cell(placed(3, 3, x, y, -1.5));
        }
        let fx = Fixture::new(d);
        let target = fx.design.movable_ids()[0];
        let region = fx.check(target, fx.design.die(), &mut cov);
        assert!(
            region.cells.len() > max_region_cells,
            "whole-die region holds {} cells, want more than {max_region_cells}",
            region.cells.len()
        );
        fx.check(target, Rect::new(40, 3, 170, 21), &mut cov);
    }
    assert!(
        cov.tall_blockers > 0,
        "oversize designs produced no multi-row blockers"
    );
}

#[test]
fn extraction_matches_oracle_during_legalization() {
    // generated benchmarks, half legalized: the windows and expansions the legalizer itself
    // would extract for each remaining target
    let cfg = MglConfig::default();
    let mut cov = Coverage::default();
    for seed in 0..4u64 {
        let spec = BenchmarkSpec {
            num_cells: 160,
            ..BenchmarkSpec::tiny("extract-diff", seed)
        }
        .with_density(0.6);
        let mut design = generate(&spec);
        design.pre_move();
        let targets = size_descending_order(&design, &design.movable_ids());
        let (done, todo) = targets.split_at(targets.len() / 2);
        let segmap = SegmentMap::build(&design);
        let mut index = LegalizedIndex::build(&design);
        let mut op_stats = FopOpStats::default();
        let mut scratch = FopScratch::new();
        for &target in done {
            place_target_with(
                &mut design,
                &segmap,
                &mut index,
                &cfg,
                target,
                &mut op_stats,
                &mut scratch,
            );
        }
        let fx = Fixture::new(design);
        for &target in todo {
            for k in 0..=cfg.max_window_expansions as i64 {
                let window = target_window(
                    &fx.design,
                    target,
                    cfg.window_half_sites << k,
                    cfg.window_half_rows << k,
                );
                fx.check(target, window, &mut cov);
            }
        }
    }
    assert!(cov.with_cells > 0 && cov.blockers > 0 && cov.carved_segments > 0);
}
