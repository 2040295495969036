//! Differential suite for the epoch-tagged copy-on-write cell store: the COW overlay
//! replay must be indistinguishable from the clone-based shadow design it replaced.
//!
//! The test drives the *serial* per-cell placement step batch by batch, recording every
//! committed write into an [`EpochCellStore`] and sealing one epoch per batch — exactly
//! what the pipelined parallel engine does — while also retaining a full `Design` clone
//! at each seal (the pre-PR shadow mechanism). Every surviving `(snapshot, clone)` pair
//! must then agree cell for cell, and the snapshot's obstacle query must reproduce the
//! candidates a `LegalizedIndex` built from the clone yields, in the same order (the
//! order feeds float summations, so it is part of the bit-exactness contract). Epoch
//! promotion runs mid-flight to prove folding retired overlays into the base columns
//! never perturbs later snapshots.

use flex::mgl::legalize::{place_target_with, PlacedBy};
use flex::mgl::region::LegalizedIndex;
use flex::mgl::{FopOpStats, FopScratch, MglConfig};
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::segment::SegmentMap;
use flex::placement::store::{CellState, EpochCellStore, StoreSnapshot};
use flex::placement::Design;
use proptest::prelude::*;

const BATCH: usize = 8;

/// Record the design writes of one placement outcome into the store, the way the
/// pipelined engine does after each serial commit.
fn record_outcome(
    store: &EpochCellStore,
    design: &Design,
    target: flex::placement::CellId,
    placed: PlacedBy,
    moves: &[flex::placement::CellId],
) {
    match placed {
        PlacedBy::None => {}
        _ => {
            for &id in moves {
                store.record(id, CellState::of(design.cell(id)));
            }
            store.record(target, CellState::of(design.cell(target)));
        }
    }
}

/// Assert one epoch snapshot is indistinguishable from the design clone taken at the
/// same seal point.
fn assert_snapshot_matches_clone(snapshot: &StoreSnapshot, clone: &Design, epoch: u32) {
    assert_eq!(snapshot.num_rows(), clone.num_rows);
    assert_eq!(snapshot.num_sites_x(), clone.num_sites_x);
    for cell in &clone.cells {
        let got = snapshot.cell(cell.id);
        assert_eq!(
            (
                got.x,
                got.y,
                got.legalized,
                got.width,
                got.height,
                got.fixed
            ),
            (
                cell.x,
                cell.y,
                cell.legalized,
                cell.width,
                cell.height,
                cell.fixed
            ),
            "cell {:?} diverged at epoch {epoch}",
            cell.id
        );
    }
    // the obstacle query must reproduce the clone-built index's candidates in the same
    // order — that order feeds float summations downstream
    let index = LegalizedIndex::build(clone);
    let windows = [
        (0, clone.num_rows),
        (0, clone.num_rows / 2 + 1),
        (clone.num_rows / 3, 2 * clone.num_rows / 3 + 1),
    ];
    for (y_lo, y_hi) in windows {
        for exclude in clone.movable_ids().iter().take(3).copied() {
            let expected: Vec<_> = index
                .candidates(y_lo, y_hi)
                .into_iter()
                .filter(|&id| id != exclude)
                .map(|id| {
                    let c = clone.cell(id);
                    (c.id, c.x, c.y, c.width, c.height)
                })
                .collect();
            let got: Vec<_> = snapshot
                .obstacles(y_lo, y_hi, exclude)
                .into_iter()
                .map(|c| (c.id, c.x, c.y, c.width, c.height))
                .collect();
            assert_eq!(
                got, expected,
                "obstacles diverged at epoch {epoch} window [{y_lo}, {y_hi})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// COW epoch replay ≡ clone-based shadow, under mid-run promotion.
    #[test]
    fn epoch_snapshots_match_design_clones(seed in 0u64..10_000, density in 0.35f64..0.7) {
        let spec = BenchmarkSpec {
            num_cells: 90,
            ..BenchmarkSpec::tiny("epoch-diff", seed)
        }
        .with_density(density);
        let cfg = MglConfig::default();

        let mut design = generate(&spec);
        design.pre_move();
        let segmap = SegmentMap::build(&design);
        let mut index = LegalizedIndex::build(&design);
        let store = EpochCellStore::capture(&design);

        // epoch 0 (post-capture, nothing sealed) must already match the live design
        assert_snapshot_matches_clone(&store.snapshot(), &design, 0);

        let targets = flex::mgl::ordering::size_descending_order(&design, &design.movable_ids());
        let mut op_stats = FopOpStats::default();
        let mut scratch = FopScratch::new();
        let mut pairs: Vec<(StoreSnapshot, Design)> = Vec::new();

        for batch in targets.chunks(BATCH) {
            for &target in batch {
                let outcome =
                    place_target_with(&mut design, &segmap, &mut index, &cfg, target, &mut op_stats, &mut scratch);
                let moves: Vec<_> = outcome
                    .plan
                    .as_ref()
                    .map(|p| p.moves.iter().map(|&(id, _)| id).collect())
                    .unwrap_or_default();
                record_outcome(&store, &design, target, outcome.placed, &moves);
            }
            let epoch = store.seal_epoch();
            pairs.push((store.snapshot(), design.clone()));
            // exercise promotion while snapshots of later epochs stay live: retire
            // everything more than two epochs old and drop the invalidated pairs
            if epoch >= 3 {
                store.promote_through(epoch - 2);
                pairs.retain(|(snap, _)| snap.epoch() >= store.promoted_epoch());
            }
        }

        prop_assert!(!pairs.is_empty(), "no epochs sealed at seed {seed}");
        for (snapshot, clone) in &pairs {
            assert_snapshot_matches_clone(snapshot, clone, snapshot.epoch());
        }
    }
}
