//! Property-based tests (proptest) on the core data structures and invariants.

use flex::mgl::curve::{minimize_sum, DisplacementCurve};
use flex::mgl::{MglConfig, MglLegalizer, OrderingStrategy};
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::geom::{Interval, Rect};
use flex::placement::legality::check_legality_with;
use flex::placement::metrics::displacement_stats;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interval subtraction never produces overlapping pieces and preserves total length.
    #[test]
    fn interval_subtraction_is_consistent(a_lo in -50i64..50, a_len in 0i64..60, b_lo in -50i64..50, b_len in 0i64..60) {
        let a = Interval::new(a_lo, a_lo + a_len);
        let b = Interval::new(b_lo, b_lo + b_len);
        let pieces = a.subtract(&b);
        let total: i64 = pieces.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, a.len() - a.overlap_len(&b));
        for p in &pieces {
            prop_assert!(a.contains_interval(p));
            prop_assert!(!p.overlaps(&b));
        }
    }

    /// Rectangle intersection is commutative and contained in both operands.
    #[test]
    fn rect_intersection_properties(ax in -20i64..20, ay in -20i64..20, aw in 0i64..30, ah in 0i64..30,
                                     bx in -20i64..20, by in -20i64..20, bw in 0i64..30, bh in 0i64..30) {
        let a = Rect::from_size(ax, ay, aw, ah);
        let b = Rect::from_size(bx, by, bw, bh);
        let i1 = a.intersect(&b);
        let i2 = b.intersect(&a);
        prop_assert_eq!(i1.area().max(0), i2.area().max(0));
        if !i1.is_empty() {
            prop_assert!(a.contains_rect(&i1));
            prop_assert!(b.contains_rect(&i1));
        }
        prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
    }

    /// The breakpoint/slope representation of displacement curves evaluates exactly like the
    /// closed-form definition it encodes.
    #[test]
    fn displacement_curves_match_closed_forms(c in 0.0f64..40.0, g in 0.0f64..40.0, s in 0.0f64..8.0, w in 1.0f64..8.0, x in -10.0f64..50.0) {
        let left = DisplacementCurve::left_cell(c, g, s);
        let expected_left = ((x - s).min(c) - g).abs();
        prop_assert!((left.eval(x) - expected_left).abs() < 1e-9);

        let right = DisplacementCurve::right_cell(c, g, s, w);
        let expected_right = ((x + w + s).max(c) - g).abs();
        prop_assert!((right.eval(x) - expected_right).abs() < 1e-9);
    }

    /// Minimizing a sum of convex curves with the breakpoint scan matches a dense grid search.
    #[test]
    fn curve_minimization_matches_grid_search(centers in prop::collection::vec(0.0f64..30.0, 1..5), lo in 0.0f64..10.0, span in 1.0f64..20.0) {
        let curves: Vec<DisplacementCurve> = centers.iter().map(|&c| DisplacementCurve::abs(c)).collect();
        let hi = lo + span;
        let (_, v) = minimize_sum(&curves, lo, hi);
        let mut grid_best = f64::INFINITY;
        let mut x = lo;
        while x <= hi + 1e-9 {
            let total: f64 = curves.iter().map(|c| c.eval(x)).sum();
            grid_best = grid_best.min(total);
            x += 0.05;
        }
        prop_assert!(v <= grid_best + 1e-6, "scan {v} vs grid {grid_best}");
    }
}

proptest! {
    // legalization runs are comparatively expensive: keep the case count low but meaningful
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Legalizing any generated benchmark yields a legal placement: no overlaps, everything on
    /// rows/sites inside the die, parity respected — and never loses a cell.
    #[test]
    fn legalization_always_produces_legal_layouts(seed in 0u64..1000, density in 0.25f64..0.8, ordering in 0usize..3) {
        let ordering = match ordering {
            0 => OrderingStrategy::Natural,
            1 => OrderingStrategy::SizeDescending,
            _ => OrderingStrategy::SlidingWindowDensity,
        };
        let spec = BenchmarkSpec {
            num_cells: 150,
            ..BenchmarkSpec::tiny("prop-legal", seed)
        }.with_density(density);
        let mut d = generate(&spec);
        let gx_before: Vec<(f64, f64)> = d.cells.iter().map(|c| (c.gx, c.gy)).collect();
        let cfg = MglConfig { ordering, ..MglConfig::flex() };
        let res = MglLegalizer::new(cfg).legalize(&mut d);
        prop_assert!(res.legal, "violations with seed {seed}");
        prop_assert!(check_legality_with(&d, true).is_legal());
        // global-placement anchors must never be mutated by legalization
        for (c, (gx, gy)) in d.cells.iter().zip(gx_before.iter()) {
            prop_assert_eq!(c.gx, *gx);
            prop_assert_eq!(c.gy, *gy);
        }
        // displacement accounting is finite and self-consistent
        let stats = displacement_stats(&d);
        prop_assert!(stats.average.is_finite());
        prop_assert!(stats.max >= stats.per_height.values().copied().fold(0.0, f64::max) / d.num_rows as f64);
    }
}
