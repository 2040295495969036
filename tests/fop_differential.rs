//! Differential property suite for the arena-allocated FOP kernel.
//!
//! The scratch-based kernel (`fop::find_optimal_position_with`) must return **bit-identical**
//! results to the allocating reference implementation (`fop::reference`) it replaced: the
//! same `Placement` (x, row, cost — exact float equality, no tolerance), the same work
//! counters of both shifting schedules (they feed the FPGA performance model and the golden
//! traces), on randomly generated regions. The commit plan derived from a placement must
//! likewise match the one derived from the allocating shift functions.

use flex::mgl::config::MglConfig;
use flex::mgl::fop::{self, FopScratch, TargetSpec};
use flex::mgl::legalize::plan_commit_with;
use flex::mgl::region::{LocalCell, LocalRegion, LocalSegment};
use flex::mgl::shift::{shift_original, Phase, ShiftProblem};
use flex::mgl::stats::FopOpStats;
use flex::placement::cell::CellId;
use flex::placement::geom::{Interval, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Build a random region (non-overlapping cells, possibly multi-row) plus a target spec.
fn random_case(seed: u64) -> (LocalRegion, TargetSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.random_range(1..=5i64);
    let width = rng.random_range(24..=96i64);
    let mut region = LocalRegion {
        target: CellId(100_000),
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
    for _ in 0..rng.random_range(4..=24) {
        let h = rng.random_range(1..=rows.min(4));
        let y = rng.random_range(0..=(rows - h));
        let w = rng.random_range(2..=8i64);
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
        region.cells.push(LocalCell {
            id: CellId(id),
            x,
            y,
            width: w,
            height: h,
            gx: x as f64 + rng.random_range(-4..=4i64) as f64,
        });
        id += 1;
    }
    let target = TargetSpec {
        width: rng.random_range(2..=9i64),
        height: rng.random_range(1..=rows),
        gx: rng.random_range(0..width) as f64,
        gy: rng.random_range(0..rows) as f64 + 0.25,
        parity: match rng.random_range(0..4u32) {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        },
    };
    (region, target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scratch kernel returns bit-identical placements and work counters to the
    /// allocating reference.
    #[test]
    fn scratch_fop_is_bit_identical_to_the_reference(seed in 0u64..1_000_000) {
        let (region, target) = random_case(seed);
        let mut s_ref = FopOpStats::default();
        let mut s_new = FopOpStats::default();
        let reference = fop::reference::find_optimal_position(&region, &target, &mut s_ref);
        let scratched = fop::find_optimal_position_with(
            &region,
            &target,
            &MglConfig::default(),
            &mut s_new,
            &mut FopScratch::new(),
        );
        prop_assert_eq!(&reference.best, &scratched.best, "placement diverged: seed {}", seed);
        prop_assert_eq!(&reference.work, &scratched.work, "work counters diverged: seed {}", seed);
    }

    /// The scratch-backed insertion-point enumeration resolves exactly the points of the
    /// allocating oracle — same points, same order (the order matters: the `max_points` cap
    /// keeps a prefix) — with one scratch reused across every case.
    #[test]
    fn scratch_enumeration_is_identical_to_the_allocating_oracle(seed in 0u64..1_000_000) {
        use flex::mgl::insertion::{enumerate_insertion_points, enumerate_insertion_points_into, InsertionScratch};
        use flex::mgl::shift::ShiftScratch;
        let (region, target) = random_case(seed);
        let mut rows = ShiftScratch::default();
        rows.begin_region(&region);
        let mut scratch = InsertionScratch::default();
        for cap in [160usize, 7] {
            let expect = enumerate_insertion_points(
                &region, target.width, target.height, target.parity, target.gx, cap,
            );
            let n = enumerate_insertion_points_into(
                &region, target.width, target.height, target.parity, target.gx, cap, &rows,
                &mut scratch,
            );
            prop_assert_eq!(n, expect.len(), "seed {} cap {}: point count", seed, cap);
            prop_assert_eq!(scratch.points(), &expect[..], "seed {} cap {}", seed, cap);
        }
    }

    /// Commit planning through the scratch arena matches the positions the allocating shift
    /// functions produce, and is insensitive to scratch reuse (fresh scratch ≡ warm scratch).
    /// Planning reads the presort FOP leaves in the scratch, so both scratches run FOP on the
    /// region first; the warm one has served another region before.
    #[test]
    fn scratch_commit_plans_match_allocating_shift_positions(seed in 0u64..1_000_000) {
        let (region, target) = random_case(seed);
        let cfg = MglConfig::default();
        let mut stats = FopOpStats::default();
        let mut warm = FopScratch::new();
        let (other, other_target) = random_case(seed ^ 0x5EED);
        fop::find_optimal_position_with(&other, &other_target, &cfg, &mut stats, &mut warm);
        let out = fop::find_optimal_position_with(&region, &target, &cfg, &mut stats, &mut warm);
        let Some(best) = out.best else { return Ok(()) };
        let mut fresh = FopScratch::new();
        fop::find_optimal_position_with(&region, &target, &cfg, &mut stats, &mut fresh);

        let warm_plan = plan_commit_with(&region, &best, &target, &cfg, &mut warm);
        let fresh_plan = plan_commit_with(&region, &best, &target, &cfg, &mut fresh);
        prop_assert_eq!(&warm_plan, &fresh_plan, "seed {}: scratch reuse changed the plan", seed);

        if let Some(plan) = warm_plan {
            // the plan's moves must equal the allocating canonical shift at the committed
            // position (SACS reorders its streaming output but resolves to the same per-cell
            // positions, so the canonical fixpoint is the oracle)
            let problem = ShiftProblem {
                region: &region,
                point: &best.point,
                target_width: target.width,
                target_height: target.height,
                target_x: best.x,
            };
            let (left, right) =
                shift_original(&problem).expect("committed plan implies feasible shift");
            let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
            for phase in [Phase::Left, Phase::Right] {
                let outps = if phase == Phase::Left { &left } else { &right };
                for &(i, x) in &outps.positions {
                    pos[i] = x;
                }
            }
            for &(id, new_x) in &plan.moves {
                let idx = region.cells.iter().position(|c| c.id == id).unwrap();
                prop_assert_eq!(pos[idx], new_x, "seed {}: move mismatch for cell {:?}", seed, id);
                prop_assert!(region.cells[idx].x != new_x, "plan contains a no-op move");
            }
            prop_assert_eq!(plan.x, best.x);
            prop_assert_eq!(plan.row, best.row);
        }
    }
}
