//! Processing-order strategies for target cells (Sec. 3.1.2 of the paper).
//!
//! The order in which unlegalized cells are handled strongly influences the quality of a greedy
//! legalizer. The widely used baseline sorts cells by size (largest first). FLEX refines this
//! with a *sliding-window, density-aware* ordering: the initial sequence is size-descending; a
//! window slides over it; the cell at the front (`C_cur`) is processed, the following cell
//! (`C_next`) is kept fixed so that its region data can be preloaded into the free ping-pong
//! RAM, and the remaining cells inside the window are reordered by the density of their
//! localRegions, densest first.

use crate::config::{MglConfig, OrderingStrategy};
use crate::region::target_window;
use flex_placement::cell::CellId;
use flex_placement::density::DensityMap;
use flex_placement::layout::Design;

/// Sort target cells by area, largest first (ties broken by id for determinism).
pub fn size_descending_order(design: &Design, targets: &[CellId]) -> Vec<CellId> {
    let mut order = targets.to_vec();
    order.sort_by_key(|&id| {
        let c = design.cell(id);
        (std::cmp::Reverse(c.area()), id)
    });
    order
}

/// Keep the natural (index) order.
pub fn natural_order(targets: &[CellId]) -> Vec<CellId> {
    targets.to_vec()
}

/// FLEX's sliding-window, density-aware orderer.
///
/// `next()` pops the current cell (`C_cur`). Before returning it, the orderer keeps the
/// following cell (`C_next`) fixed and reorders the rest of the window by localRegion density in
/// descending order, exactly as described in Sec. 3.1.2.
///
/// A cell's density is computed once, on the first reorder that sees it, and kept in a memo
/// indexed by cell id. This is exact under one precondition: while a cell waits in the queue,
/// neither its position (which places its window) nor the density map `next` reads changes.
/// A legalization run keeps it: it builds the map once, before the first pop, and a
/// placement writes only its target and already-legalized cells, never a queued one (see
/// [`processing_order`]). Every `next` call of one orderer must therefore pass the same
/// design state of the queued cells and the same map.
#[derive(Debug, Clone)]
pub struct SlidingWindowOrderer {
    queue: std::collections::VecDeque<CellId>,
    window: usize,
    half_sites: i64,
    half_rows: i64,
    /// How often each cell (indexed by id) has been deferred by a density reorder. A cell that
    /// has been deferred `window` times is promoted to the front of the reordered tail, so the
    /// density priority can never starve the large cells that lead the size-sorted sequence.
    deferrals: Vec<u32>,
    /// Each cell's localRegion density (indexed by id), `None` until a reorder first needs it.
    densities: Vec<Option<f64>>,
}

impl SlidingWindowOrderer {
    /// Build the orderer from an initial size-descending sequence.
    pub fn new(
        design: &Design,
        targets: &[CellId],
        window: usize,
        half_sites: i64,
        half_rows: i64,
    ) -> Self {
        Self {
            queue: size_descending_order(design, targets).into(),
            window: window.max(2),
            half_sites,
            half_rows,
            deferrals: vec![0; design.cells.len()],
            densities: vec![None; design.cells.len()],
        }
    }

    /// Pop the next cell to process (`C_cur`), keep the new front (`C_next`) fixed, and
    /// re-rank the remaining window cells by localRegion density.
    pub fn next(&mut self, design: &Design, density: &DensityMap) -> Option<CellId> {
        let cur = self.queue.pop_front()?;
        // C_next (new front) stays fixed; the remaining window cells are reordered by density,
        // except that cells which already spent a full window length being deferred keep their
        // (size-ranked) priority so they cannot starve.
        let end = self.window.saturating_sub(1).min(self.queue.len());
        if self.queue.len() > 2 && end > 2 {
            let cap = self.window as u32;
            let (half_sites, half_rows) = (self.half_sites, self.half_rows);
            // one key per tail cell: (not exhausted, density, id, position before the reorder)
            let mut keys: Vec<(bool, f64, CellId, usize)> = Vec::with_capacity(end - 1);
            for (old, &id) in self.queue.range(1..end).enumerate() {
                // a cell's localRegion density is read over its legalization window
                let d = *self.densities[id.index()].get_or_insert_with(|| {
                    density.density_in(&target_window(design, id, half_sites, half_rows))
                });
                keys.push((self.deferrals[id.index()] < cap, d, id, old));
            }
            // exhausted cells first, then densest first (a total order even for NaN densities
            // of degenerate windows: NaN ranks above every real density), then by id
            keys.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
            for (new, &(_, _, id, old)) in keys.iter().enumerate() {
                if new > old {
                    self.deferrals[id.index()] += 1;
                }
                self.queue[new + 1] = id;
            }
        }
        Some(cur)
    }
}

/// The order in which a legalization run places the movable cells of a pre-moved design,
/// computed once before the first placement. Builds the [`DensityMap`] only for the
/// sliding-window strategy, which is the only one that reads it.
///
/// Precomputing the sliding-window order is exact: a reorder reads only the density map,
/// built here before any commit, and the positions of queued cells, and a legalization run
/// never moves a queued cell ([`Design::pre_move`] un-legalizes every movable cell, and a
/// placement writes only its target and already-legalized localCells). So the order equals
/// what popping [`SlidingWindowOrderer::next`] between placements yields; the orderer's
/// density memo rests on the same two facts.
pub fn processing_order(design: &Design, cfg: &MglConfig) -> Vec<CellId> {
    let targets = design.movable_ids();
    match cfg.ordering {
        OrderingStrategy::Natural => natural_order(&targets),
        OrderingStrategy::SizeDescending => size_descending_order(design, &targets),
        OrderingStrategy::SlidingWindowDensity => {
            let density = DensityMap::build(design, cfg.density_bin_sites, cfg.density_bin_rows);
            let mut orderer = SlidingWindowOrderer::new(
                design,
                &targets,
                cfg.sliding_window,
                cfg.window_half_sites,
                cfg.window_half_rows,
            );
            std::iter::from_fn(|| orderer.next(design, &density)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fop::FopScratch;
    use crate::legalize::{place_target_with, MglLegalizer};
    use crate::region::LegalizedIndex;
    use crate::stats::FopOpStats;
    use flex_placement::benchmark::{generate, tall_cell_spec, BenchmarkSpec};
    use flex_placement::cell::Cell;
    use flex_placement::metrics::displacement_stats;
    use flex_placement::segment::SegmentMap;

    fn design() -> Design {
        let mut d = Design::new("ord", 200, 20);
        // big cell far from everything (low density)
        d.add_cell(Cell::movable(CellId(0), 10, 2, 150.0, 15.0));
        // medium cells clustered together (high density)
        for i in 0..6 {
            d.add_cell(Cell::movable(CellId(0), 6, 1, 10.0 + i as f64 * 2.0, 2.0));
        }
        // small cell elsewhere
        d.add_cell(Cell::movable(CellId(0), 2, 1, 100.0, 10.0));
        d.pre_move();
        d
    }

    #[test]
    fn size_descending_puts_largest_first() {
        let d = design();
        let targets = d.movable_ids();
        let order = size_descending_order(&d, &targets);
        assert_eq!(order[0], CellId(0)); // area 20
        assert_eq!(*order.last().unwrap(), CellId(7)); // area 2
                                                       // permutation property
        let mut sorted = order.clone();
        sorted.sort();
        let mut expect = targets.clone();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    /// The configuration the tests order `design()` with.
    fn cfg(ordering: OrderingStrategy) -> MglConfig {
        MglConfig {
            ordering,
            sliding_window: 4,
            window_half_sites: 20,
            window_half_rows: 3,
            density_bin_sites: 16,
            density_bin_rows: 4,
            ..MglConfig::default()
        }
    }

    #[test]
    fn sliding_window_is_a_permutation_and_starts_with_largest() {
        let d = design();
        let targets = d.movable_ids();
        let order = processing_order(&d, &cfg(OrderingStrategy::SlidingWindowDensity));
        assert_eq!(order.len(), targets.len());
        let mut sorted = order.clone();
        sorted.sort();
        let mut expect = targets;
        expect.sort();
        assert_eq!(sorted, expect);
        assert_eq!(order[0], CellId(0), "the largest cell is processed first");
    }

    #[test]
    fn density_reorders_the_window_tail() {
        let d = design();
        let targets = d.movable_ids();
        let density = DensityMap::build(&d, 16, 4);
        // the clustered cells (ids 1..=6) have identical areas, so the size sort keeps them in
        // id order; the isolated small cell id 7 is last. With a window large enough, cells in
        // the dense cluster should be pulled ahead of any equally-sized cell in a sparse area
        // once the window reorders by density.
        let mut orderer = SlidingWindowOrderer::new(&d, &targets, 8, 20, 3);
        let first = orderer.next(&d, &density).unwrap();
        assert_eq!(first, CellId(0));
        // C_next stays whatever size order put second (id 1); the rest of the window is density
        // sorted — all of ids 2..=6 are in the dense cluster so they stay ahead of id 7
        let order: Vec<CellId> = std::iter::from_fn(|| orderer.next(&d, &density)).collect();
        let pos_of = |id: CellId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos_of(CellId(7)) > pos_of(CellId(6)));
    }

    #[test]
    fn peek_next_matches_upcoming_cell() {
        let d = design();
        let targets = d.movable_ids();
        let density = DensityMap::build(&d, 16, 4);
        let mut orderer = SlidingWindowOrderer::new(&d, &targets, 4, 20, 3);
        while !orderer.queue.is_empty() {
            // C_next: the cell behind the one the pop returns
            let expected_next = orderer.queue.get(1).copied();
            let _cur = orderer.next(&d, &density).unwrap();
            if let Some(exp) = expected_next {
                // after popping, the previously peeked cell must be at the front (it is C_next
                // and is never reordered away)
                assert_eq!(orderer.queue.front().copied(), Some(exp));
            }
        }
        assert_eq!(orderer.queue.len(), 0);
    }

    /// The orderer before the density memo, kept as the oracle of the memoized one: it
    /// scores both cells inside the sort comparator on every comparison and keeps the
    /// deferral counts in a map.
    struct ComparatorOrderer {
        queue: std::collections::VecDeque<CellId>,
        window: usize,
        half_sites: i64,
        half_rows: i64,
        deferrals: std::collections::HashMap<CellId, u32>,
    }

    impl ComparatorOrderer {
        fn new(
            design: &Design,
            targets: &[CellId],
            window: usize,
            half_sites: i64,
            half_rows: i64,
        ) -> Self {
            Self {
                queue: size_descending_order(design, targets).into(),
                window: window.max(2),
                half_sites,
                half_rows,
                deferrals: std::collections::HashMap::new(),
            }
        }

        fn next(&mut self, design: &Design, density: &DensityMap) -> Option<CellId> {
            let (queue, deferrals) = (&mut self.queue, &mut self.deferrals);
            let (window, half_sites, half_rows) = (self.window, self.half_sites, self.half_rows);
            let cur = queue.pop_front()?;
            if queue.len() > 2 {
                let end = window.saturating_sub(1).min(queue.len());
                if end > 2 {
                    let before: Vec<CellId> = queue.iter().skip(1).take(end - 1).copied().collect();
                    let mut tail = before.clone();
                    let cap = window as u32;
                    tail.sort_by(|&a, &b| {
                        let exhausted_a = deferrals.get(&a).copied().unwrap_or(0) >= cap;
                        let exhausted_b = deferrals.get(&b).copied().unwrap_or(0) >= cap;
                        match (exhausted_a, exhausted_b) {
                            (true, false) => return std::cmp::Ordering::Less,
                            (false, true) => return std::cmp::Ordering::Greater,
                            _ => {}
                        }
                        let da =
                            density.density_in(&target_window(design, a, half_sites, half_rows));
                        let db =
                            density.density_in(&target_window(design, b, half_sites, half_rows));
                        db.total_cmp(&da).then(a.cmp(&b))
                    });
                    for (new_idx, id) in tail.iter().enumerate() {
                        let old_idx = before.iter().position(|&x| x == *id).unwrap_or(new_idx);
                        if new_idx > old_idx {
                            *deferrals.entry(*id).or_insert(0) += 1;
                        }
                    }
                    for (i, id) in tail.into_iter().enumerate() {
                        queue[i + 1] = id;
                    }
                }
            }
            Some(cur)
        }
    }

    /// Seeded designs for the orderer equivalence: generated ones of several densities and
    /// height mixes, one of identical cell groups (bitwise-equal densities, so reorders fall
    /// to the id tie-break) and one with NaN and infinite desired positions.
    fn ordering_designs() -> Vec<Design> {
        let mut designs: Vec<Design> = [
            BenchmarkSpec::tiny("ord-sparse", 41).with_density(0.45),
            BenchmarkSpec::tiny("ord-mid", 42).with_density(0.65),
            BenchmarkSpec::tiny("ord-dense", 43).with_density(0.85),
            BenchmarkSpec {
                num_cells: 300,
                ..tall_cell_spec("ord-tall", 0.3, 44)
            },
        ]
        .iter()
        .map(generate)
        .collect();

        let mut twins = Design::new("ord-twins", 240, 24);
        for group in 0..12 {
            let (gx, gy) = (17.0 * group as f64 % 230.0, (5 * group % 22) as f64);
            for _ in 0..4 {
                twins.add_cell(Cell::movable(CellId(0), 3 + group % 3, 1, gx, gy));
            }
        }
        designs.push(twins);

        let mut hostile = Design::new("ord-hostile", 200, 20);
        for i in 0..60 {
            let (gx, gy) = match i % 5 {
                0 => (f64::NAN, 3.0),
                1 => (40.0, f64::NAN),
                2 => (f64::INFINITY, f64::NEG_INFINITY),
                _ => ((i * 7 % 190) as f64, (i % 19) as f64),
            };
            hostile.add_cell(Cell::movable(
                CellId(0),
                2 + (i % 4) as i64,
                1 + (i % 2) as i64,
                gx,
                gy,
            ));
        }
        designs.push(hostile);

        for d in &mut designs {
            d.pre_move();
        }
        designs
    }

    #[test]
    fn memoized_orderer_pops_what_the_comparator_orderer_pops() {
        let (mut capped, mut tied) = (false, false);
        for d in ordering_designs() {
            let targets = d.movable_ids();
            let density = DensityMap::build(&d, 16, 4);
            for window in 2..=32 {
                let mut memo = SlidingWindowOrderer::new(&d, &targets, window, 20, 3);
                let mut oracle = ComparatorOrderer::new(&d, &targets, window, 20, 3);
                for pop in 0.. {
                    let got = memo.next(&d, &density);
                    assert_eq!(
                        got,
                        oracle.next(&d, &density),
                        "{} window {window} pop {pop}",
                        d.name
                    );
                    if got.is_none() {
                        break;
                    }
                }
                capped |= memo.deferrals.iter().any(|&n| n >= window as u32);
                let mut scored: Vec<u64> = memo
                    .densities
                    .iter()
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect();
                scored.sort_unstable();
                tied |= scored.windows(2).any(|w| w[0] == w[1]);
            }
        }
        assert!(capped, "some cell must reach the deferral cap");
        assert!(tied, "some reorder must compare equal densities");
    }

    #[test]
    fn natural_order_is_identity() {
        let d = design();
        let targets = d.movable_ids();
        assert_eq!(natural_order(&targets), targets);
        assert_eq!(
            processing_order(&d, &cfg(OrderingStrategy::Natural)),
            targets
        );
    }

    #[test]
    fn popping_the_live_orderer_reproduces_the_serial_placement() {
        // the legalizers place in the order `processing_order` computes before the first
        // commit; popping the orderer between placements instead must place every cell
        // where `MglLegalizer` does, S_am bit for bit
        let cfg = MglConfig::flex();
        assert_eq!(cfg.ordering, OrderingStrategy::SlidingWindowDensity);
        for spec in [
            BenchmarkSpec::tiny("live-pop-sparse", 31).with_density(0.45),
            BenchmarkSpec::tiny("live-pop-mid", 32).with_density(0.65),
            BenchmarkSpec::tiny("live-pop-dense", 33).with_density(0.85),
            BenchmarkSpec {
                num_cells: 300,
                ..tall_cell_spec("live-pop-tall", 0.3, 34)
            },
        ] {
            let mut reference = generate(&spec);
            let result = MglLegalizer::new(cfg.clone()).legalize(&mut reference);

            let mut live = generate(&spec);
            live.pre_move();
            let segmap = SegmentMap::build(&live);
            let mut index = LegalizedIndex::build(&live);
            let density = DensityMap::build(&live, cfg.density_bin_sites, cfg.density_bin_rows);
            let mut orderer = SlidingWindowOrderer::new(
                &live,
                &live.movable_ids(),
                cfg.sliding_window,
                cfg.window_half_sites,
                cfg.window_half_rows,
            );
            let mut op_stats = FopOpStats::default();
            let mut scratch = FopScratch::new();
            while let Some(target) = orderer.next(&live, &density) {
                place_target_with(
                    &mut live,
                    &segmap,
                    &mut index,
                    &cfg,
                    target,
                    &mut op_stats,
                    &mut scratch,
                );
            }
            assert!(
                live.cells == reference.cells,
                "{}: placements differ",
                spec.name
            );
            assert_eq!(
                displacement_stats(&live).average.to_bits(),
                result.average_displacement.to_bits(),
                "{}: S_am differs",
                spec.name
            );
        }
    }
}
