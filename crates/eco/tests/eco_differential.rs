//! Differential properties of the resident ECO engine on random delta streams.
//!
//! For every random batch applied to a warm engine:
//!
//! 1. the design stays legal;
//! 2. cells whose pre-batch extent is wholly outside the reported disturbed rectangles are
//!    untouched, bit for bit;
//! 3. a *cold* engine built from scratch on the pre-batch design and fed the same batch
//!    produces the bit-identical design — residency buys latency, never placement drift;
//! 4. the warm `LegalizedIndex` equals a from-scratch rebuild, bucket for bucket, and the
//!    warm `DensityMap` matches a rebuild bin for bin;
//! 5. a batch rejected by validation mutates nothing.

use flex_eco::{EcoDelta, EcoEngine, PlacedKind};
use flex_mgl::config::MglConfig;
use flex_mgl::region::LegalizedIndex;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::{Cell, CellId};
use flex_placement::density::DensityMap;
use flex_placement::layout::Design;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn warm_engine(seed: u64) -> EcoEngine {
    let design = generate(&BenchmarkSpec::tiny("eco-diff", seed));
    EcoEngine::legalize_and_build(design, MglConfig::default()).expect("bootstrap legalization")
}

/// Ids of cells a delta may validly address (movable, not tombstoned).
fn live_ids(design: &Design) -> Vec<CellId> {
    design
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect()
}

/// One random, valid-by-construction delta against the current design.
fn random_delta(design: &Design, rng: &mut StdRng) -> EcoDelta {
    let live = live_ids(design);
    let gx = rng.random::<f64>() * design.num_sites_x as f64;
    let gy = rng.random::<f64>() * design.num_rows as f64;
    let id = live[rng.next_below(live.len() as u64) as usize];
    match rng.next_below(10) {
        0 => EcoDelta::InsertCell {
            width: 2 + rng.next_below(6) as i64,
            height: 1 + rng.next_below(2) as i64,
            gx,
            gy,
        },
        1 => EcoDelta::ResizeCell {
            id,
            width: 2 + rng.next_below(6) as i64,
            height: 1 + rng.next_below(2) as i64,
        },
        2 => EcoDelta::RemoveCell { id },
        _ => EcoDelta::MoveCell { id, gx, gy },
    }
}

fn cells_equal(a: &Design, b: &Design) -> bool {
    a.cells == b.cells
}

/// Assert the warm structures equal from-scratch rebuilds on the same design.
fn assert_structures_match_rebuild(engine: &EcoEngine) -> Result<(), TestCaseError> {
    let design = engine.design();
    let rebuilt = LegalizedIndex::build(design);
    for row in 0..design.num_rows {
        prop_assert_eq!(
            engine.index().cells_in_row(row),
            rebuilt.cells_in_row(row),
            "index bucket diverged from rebuild in row {row}"
        );
    }
    let cfg = engine.config();
    let fresh = DensityMap::build(design, cfg.density_bin_sites, cfg.density_bin_rows);
    let (bx, by) = fresh.dims();
    prop_assert_eq!(engine.density().dims(), (bx, by));
    for j in 0..by as i64 {
        for i in 0..bx as i64 {
            let (x, y) = (i * cfg.density_bin_sites, j * cfg.density_bin_rows);
            let warm = engine.density().density_at(x, y);
            let cold = fresh.density_at(x, y);
            prop_assert!(
                (warm - cold).abs() < 1e-9,
                "density bin ({i},{j}) diverged: warm {warm} vs rebuild {cold}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_delta_streams_stay_legal_and_match_cold_engine(
        seed in 0u64..1_000_000,
        batches in 1usize..4,
        batch_len in 1usize..5,
    ) {
        let mut warm = warm_engine(seed % 16);
        let mut rng = StdRng::seed_from_u64(seed);

        for _ in 0..batches {
            let pre = warm.design().clone();
            let deltas: Vec<EcoDelta> = (0..batch_len)
                .map(|_| random_delta(warm.design(), &mut rng))
                .collect();

            // remove-then-address races inside one batch are rejected up front; that path is
            // covered separately, so keep these batches valid-by-construction
            let report = match warm.apply(&deltas) {
                Ok(r) => r,
                Err(e) => {
                    prop_assert!(
                        cells_equal(&pre, warm.design()),
                        "rejected batch must not mutate ({e})"
                    );
                    continue;
                }
            };

            // 1. still legal
            prop_assert!(warm.check_legal(), "design went illegal after a batch");

            // 2. cells wholly outside the disturbed neighborhood are bit-identical
            let disturbed = report.disturbed();
            for (i, before) in pre.cells.iter().enumerate() {
                let rect = before.rect();
                if disturbed.iter().any(|r| r.overlaps(&rect)) {
                    continue;
                }
                prop_assert_eq!(
                    before,
                    &warm.design().cells[i],
                    "undisturbed cell {} changed", i
                );
            }

            // 3. a cold engine on the pre-batch design agrees bit for bit
            let mut cold = EcoEngine::new(pre, warm.config().clone())
                .expect("pre-batch design must be a valid engine seed");
            let cold_report = cold.apply(&deltas).expect("cold engine rejected a batch the warm engine applied");
            prop_assert!(
                cells_equal(warm.design(), cold.design()),
                "warm and cold engines diverged"
            );
            prop_assert_eq!(report.cells_touched, cold_report.cells_touched);
            prop_assert_eq!(report.fallbacks, cold_report.fallbacks);
            prop_assert_eq!(report.failed, cold_report.failed);

            // 4. warm structures equal rebuilds
            assert_structures_match_rebuild(&warm)?;
        }
    }
}

#[test]
fn rejected_batches_leave_the_engine_untouched() {
    let mut engine = warm_engine(3);
    let pre = engine.design().clone();
    let live = live_ids(&pre);
    let victim = live[0];

    // batch-local remove-then-move race
    let err = engine
        .apply(&[
            EcoDelta::RemoveCell { id: victim },
            EcoDelta::MoveCell {
                id: victim,
                gx: 1.0,
                gy: 1.0,
            },
        ])
        .unwrap_err();
    assert!(matches!(err, flex_eco::EcoError::RemovedCell(_)), "{err}");
    assert!(cells_equal(&pre, engine.design()));

    // unknown id
    let bogus = CellId(pre.cells.len() as u32 + 7);
    let err = engine
        .apply(&[EcoDelta::MoveCell {
            id: bogus,
            gx: 0.0,
            gy: 0.0,
        }])
        .unwrap_err();
    assert!(matches!(err, flex_eco::EcoError::UnknownCell(_)), "{err}");
    assert!(cells_equal(&pre, engine.design()));

    // fixed cell
    if let Some(m) = pre.cells.iter().find(|c| c.fixed) {
        let err = engine
            .apply(&[EcoDelta::RemoveCell { id: m.id }])
            .unwrap_err();
        assert!(matches!(err, flex_eco::EcoError::FixedCell(_)), "{err}");
        assert!(cells_equal(&pre, engine.design()));
    }

    // bad dimensions
    let err = engine
        .apply(&[EcoDelta::InsertCell {
            width: 0,
            height: 1,
            gx: 1.0,
            gy: 1.0,
        }])
        .unwrap_err();
    assert!(
        matches!(err, flex_eco::EcoError::BadDimensions { .. }),
        "{err}"
    );
    assert!(cells_equal(&pre, engine.design()));

    // the stats saw none of it
    assert_eq!(engine.stats().total_applied(), 0);
    assert_eq!(engine.stats().batches, 0);
}

/// A legal design whose die is 100% occupied, so any insert must fail placement.
fn full_die_engine() -> EcoEngine {
    let mut design = Design::new("full", 8, 1);
    for i in 0..2i64 {
        let mut c = Cell::movable(CellId(0), 4, 1, (i * 4) as f64, 0.0);
        c.x = i * 4;
        c.y = 0;
        c.legalized = true;
        design.add_cell(c);
    }
    EcoEngine::new(design, MglConfig::default()).expect("full die is legal")
}

/// Regression: a failed InsertCell used to pop the appended cell, so a later delta in the
/// same batch addressing the id it had been assigned indexed out of bounds and panicked
/// (killing the resident engine thread), and the next insert recycled the id. The slot is
/// now tombstoned: dependent deltas fail cleanly and the id stays retired.
#[test]
fn failed_insert_retires_its_id_and_later_references_fail_cleanly() {
    let mut engine = full_die_engine();
    let new_id = CellId(engine.design().cells.len() as u32);

    let report = engine
        .apply(&[
            EcoDelta::InsertCell {
                width: 4,
                height: 1,
                gx: 0.0,
                gy: 0.0,
            },
            EcoDelta::MoveCell {
                id: new_id,
                gx: 1.0,
                gy: 0.0,
            },
            EcoDelta::ResizeCell {
                id: new_id,
                width: 2,
                height: 1,
            },
            EcoDelta::RemoveCell { id: new_id },
        ])
        .expect("batch validates; the insert only fails at placement time");

    assert_eq!(report.failed, 4, "insert and all three dependents fail");
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.placed == PlacedKind::Failed));
    assert_eq!(report.outcomes[0].cell, new_id);
    assert!(engine.check_legal());

    // the failed insert's id stays retired: the next insert allocates a fresh one...
    let report = engine
        .apply(&[EcoDelta::InsertCell {
            width: 4,
            height: 1,
            gx: 0.0,
            gy: 0.0,
        }])
        .unwrap();
    assert_eq!(report.outcomes[0].cell, CellId(new_id.0 + 1));

    // ...and addressing it in a later batch is a typed validation error, not a panic
    let err = engine
        .apply(&[EcoDelta::MoveCell {
            id: new_id,
            gx: 0.0,
            gy: 0.0,
        }])
        .unwrap_err();
    assert!(matches!(err, flex_eco::EcoError::RemovedCell(_)), "{err}");

    // the engine is still live and consistent after the failures
    let report = engine
        .apply(&[EcoDelta::MoveCell {
            id: CellId(0),
            gx: 3.0,
            gy: 0.0,
        }])
        .unwrap();
    assert_eq!(report.failed, 0);
    assert!(engine.check_legal());
}

#[test]
fn removed_ids_stay_retired_across_batches() {
    let mut engine = warm_engine(9);
    let victim = live_ids(engine.design())[5];

    let report = engine
        .apply(&[EcoDelta::RemoveCell { id: victim }])
        .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert!(engine.check_legal());

    let err = engine
        .apply(&[EcoDelta::MoveCell {
            id: victim,
            gx: 2.0,
            gy: 2.0,
        }])
        .unwrap_err();
    assert!(matches!(err, flex_eco::EcoError::RemovedCell(_)), "{err}");

    // inserts allocate fresh ids past the tombstone, never reusing it
    let report = engine
        .apply(&[EcoDelta::InsertCell {
            width: 3,
            height: 1,
            gx: 4.0,
            gy: 4.0,
        }])
        .unwrap();
    assert_ne!(report.outcomes[0].cell, victim);
    assert!(engine.check_legal());
}
