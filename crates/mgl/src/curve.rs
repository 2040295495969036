//! Displacement curves and breakpoints (Sec. 2.2.3 of the paper).
//!
//! Inside a valid insertion point the exact x-position of the target cell is still free; every
//! involved localCell (and the target itself) contributes a convex piecewise-linear
//! *displacement curve* describing its displacement as a function of the target's left edge
//! `x_t`. The turning points of these curves are *breakpoints*; the optimal position is found by
//! summing all curves and taking the x with the minimum total value (Fig. 3(c)/(d)).
//!
//! A pushed localCell `k` with current position `c_k`, global-placement position `g_k` and stack
//! offset `S_k` (the cumulative width between the target's edge and the cell when the chain is
//! fully compressed) moves to `min(c_k, x_t - S_k)` during the left-move phase, giving the curve
//! `|min(c_k, x_t - S_k) - g_k|`; the right-move phase mirrors this. The target itself
//! contributes `|x_t - g_t|` plus the constant vertical displacement of the chosen row.

/// A breakpoint of one displacement curve, carrying the curve's slopes on either side
/// (this is exactly the representation the FOP hardware streams between operators).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakpoint {
    /// x-coordinate of the breakpoint (target left-edge position).
    pub x: f64,
    /// Slope of the curve immediately left of `x`.
    pub left_slope: f64,
    /// Slope of the curve immediately right of `x`.
    pub right_slope: f64,
}

/// A convex piecewise-linear displacement curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisplacementCurve {
    /// Breakpoints in ascending x order.
    pub breakpoints: Vec<Breakpoint>,
    /// A reference point `(x0, value)` used to evaluate the curve.
    pub anchor: (f64, f64),
}

impl DisplacementCurve {
    /// A constant curve of value `v` (no breakpoints).
    pub fn constant(v: f64) -> Self {
        Self {
            breakpoints: Vec::new(),
            anchor: (0.0, v),
        }
    }

    /// The curve `|x - center|` (the target cell's own horizontal displacement).
    pub fn abs(center: f64) -> Self {
        let mut c = Self::constant(0.0);
        c.set_abs(center);
        c
    }

    /// Rewrite `self` into [`DisplacementCurve::abs`] in place, reusing the breakpoint
    /// allocation (the arena-allocated FOP kernel rebuilds curves per insertion point).
    pub fn set_abs(&mut self, center: f64) {
        self.breakpoints.clear();
        self.breakpoints.push(Breakpoint {
            x: center,
            left_slope: -1.0,
            right_slope: 1.0,
        });
        self.anchor = (center, 0.0);
    }

    /// Displacement curve of a localCell pushed during the **left-move** phase.
    ///
    /// * `c` — the cell's current x position,
    /// * `g` — its global-placement x,
    /// * `s` — its stack offset: when the target sits at `x_t` and the chain is compressed, the
    ///   cell sits at `x_t - s`.
    ///
    /// The cell's position is `min(c, x_t - s)`, so it stops moving once `x_t ≥ c + s`.
    pub fn left_cell(c: f64, g: f64, s: f64) -> Self {
        let mut cu = Self::constant(0.0);
        cu.set_left_cell(c, g, s);
        cu
    }

    /// Rewrite `self` into [`DisplacementCurve::left_cell`] in place (same arithmetic,
    /// reused allocation).
    pub fn set_left_cell(&mut self, c: f64, g: f64, s: f64) {
        let freeze = c + s; // x_t beyond which the cell no longer moves
        let valley = g + s; // x_t at which the pushed cell would sit exactly on its global x
        let settled = (c - g).abs();
        self.breakpoints.clear();
        if valley < freeze {
            self.breakpoints.push(Breakpoint {
                x: valley,
                left_slope: -1.0,
                right_slope: 1.0,
            });
            self.breakpoints.push(Breakpoint {
                x: freeze,
                left_slope: 1.0,
                right_slope: 0.0,
            });
            self.anchor = (valley, 0.0);
        } else {
            self.breakpoints.push(Breakpoint {
                x: freeze,
                left_slope: -1.0,
                right_slope: 0.0,
            });
            self.anchor = (freeze, settled);
        }
    }

    /// Displacement curve of a localCell pushed during the **right-move** phase.
    ///
    /// * `c` — current x, `g` — global x, `s` — stack offset beyond the target's right edge,
    /// * `target_width` — the target cell's width.
    ///
    /// The cell's position is `max(c, x_t + target_width + s)`, so it starts moving once
    /// `x_t > c - target_width - s`.
    pub fn right_cell(c: f64, g: f64, s: f64, target_width: f64) -> Self {
        let mut cu = Self::constant(0.0);
        cu.set_right_cell(c, g, s, target_width);
        cu
    }

    /// Rewrite `self` into [`DisplacementCurve::right_cell`] in place (same arithmetic,
    /// reused allocation).
    pub fn set_right_cell(&mut self, c: f64, g: f64, s: f64, target_width: f64) {
        let freeze = c - target_width - s; // x_t below which the cell does not move
        let valley = g - target_width - s;
        let settled = (c - g).abs();
        self.breakpoints.clear();
        if valley > freeze {
            self.breakpoints.push(Breakpoint {
                x: freeze,
                left_slope: 0.0,
                right_slope: -1.0,
            });
            self.breakpoints.push(Breakpoint {
                x: valley,
                left_slope: -1.0,
                right_slope: 1.0,
            });
            self.anchor = (valley, 0.0);
        } else {
            self.breakpoints.push(Breakpoint {
                x: freeze,
                left_slope: 0.0,
                right_slope: 1.0,
            });
            self.anchor = (freeze, settled);
        }
    }

    /// Slope of the curve at `x` (taking the right-hand slope at breakpoints).
    pub fn slope_at(&self, x: f64) -> f64 {
        if self.breakpoints.is_empty() {
            return 0.0;
        }
        if x < self.breakpoints[0].x {
            return self.breakpoints[0].left_slope;
        }
        let mut slope = self.breakpoints[0].left_slope;
        for bp in &self.breakpoints {
            if bp.x <= x {
                slope = bp.right_slope;
            } else {
                break;
            }
        }
        slope
    }

    /// Evaluate the curve at `x` by integrating slopes away from the anchor.
    pub fn eval(&self, x: f64) -> f64 {
        let (x0, v0) = self.anchor;
        if self.breakpoints.is_empty() || (x - x0).abs() < f64::EPSILON {
            return v0;
        }
        // integrate slope from x0 to x over the piecewise segments
        let (mut lo, mut hi, sign) = if x > x0 { (x0, x, 1.0) } else { (x, x0, -1.0) };
        let mut total = 0.0;
        while lo < hi - 1e-12 {
            let slope = self.slope_at(lo);
            // next breakpoint strictly greater than lo
            let next = self
                .breakpoints
                .iter()
                .map(|b| b.x)
                .filter(|&bx| bx > lo + 1e-12)
                .fold(f64::INFINITY, f64::min)
                .min(hi);
            total += slope * (next - lo);
            lo = next;
        }
        let _ = &mut hi;
        v0 + sign * total
    }
}

/// Sum a set of curves over the inclusive domain `[lo, hi]` and return `(x*, value*)`, the
/// minimizing x and the minimum total value.
///
/// This is the straightforward reference implementation used to validate the streaming FOP
/// pipeline: every curve is convex, so the sum is convex and the minimum lies either at a
/// breakpoint or at a domain edge.
pub fn minimize_sum(curves: &[DisplacementCurve], lo: f64, hi: f64) -> (f64, f64) {
    assert!(hi >= lo, "empty domain");
    let mut candidates: Vec<f64> = vec![lo, hi];
    for c in curves {
        for bp in &c.breakpoints {
            if bp.x > lo && bp.x < hi {
                candidates.push(bp.x);
            }
        }
    }
    let mut best = (lo, f64::INFINITY);
    for x in candidates {
        let v: f64 = curves.iter().map(|c| c.eval(x)).sum();
        if v < best.1 - 1e-12 || (v < best.1 + 1e-12 && x < best.0) {
            best = (x, v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn abs_curve_evaluates_like_abs() {
        let c = DisplacementCurve::abs(5.0);
        assert_close(c.eval(5.0), 0.0);
        assert_close(c.eval(2.0), 3.0);
        assert_close(c.eval(9.5), 4.5);
        assert_eq!(c.breakpoints.len(), 1);
    }

    #[test]
    fn left_cell_curve_matches_direct_formula() {
        // cell at c=10, global g=8, stack offset s=3
        let c = DisplacementCurve::left_cell(10.0, 8.0, 3.0);
        let direct = |x_t: f64| {
            let pos = (x_t - 3.0).min(10.0);
            (pos - 8.0).abs()
        };
        for x in [0.0, 5.0, 8.0, 11.0, 12.9, 13.0, 14.0, 20.0] {
            assert_close(c.eval(x), direct(x));
        }
        // valley at g+s = 11, freeze at c+s = 13
        assert_eq!(c.breakpoints.len(), 2);
    }

    #[test]
    fn left_cell_curve_when_global_is_right_of_current() {
        // g >= c: the cell is already left of its global spot; pushing it left only hurts
        let c = DisplacementCurve::left_cell(10.0, 12.0, 2.0);
        let direct = |x_t: f64| {
            let pos = (x_t - 2.0).min(10.0);
            (pos - 12.0).abs()
        };
        for x in [0.0, 6.0, 11.9, 12.0, 15.0, 30.0] {
            assert_close(c.eval(x), direct(x));
        }
        assert_eq!(c.breakpoints.len(), 1);
    }

    #[test]
    fn right_cell_curve_matches_direct_formula() {
        // cell at c=20, global g=23, offset s=1, target width 4
        let c = DisplacementCurve::right_cell(20.0, 23.0, 1.0, 4.0);
        let direct = |x_t: f64| {
            let pos = (x_t + 4.0 + 1.0).max(20.0);
            (pos - 23.0).abs()
        };
        for x in [0.0, 14.0, 15.0, 16.0, 18.0, 19.0, 25.0] {
            assert_close(c.eval(x), direct(x));
        }
        assert_eq!(c.breakpoints.len(), 2);

        // g <= c variant
        let c2 = DisplacementCurve::right_cell(20.0, 18.0, 0.0, 4.0);
        let direct2 = |x_t: f64| {
            let pos = (x_t + 4.0).max(20.0);
            (pos - 18.0).abs()
        };
        for x in [0.0, 15.9, 16.0, 17.0, 30.0] {
            assert_close(c2.eval(x), direct2(x));
        }
        assert_eq!(c2.breakpoints.len(), 1);
    }

    #[test]
    fn constant_curve_is_flat() {
        let c = DisplacementCurve::constant(2.5);
        assert_close(c.eval(-100.0), 2.5);
        assert_close(c.eval(100.0), 2.5);
        assert_eq!(c.slope_at(0.0), 0.0);
    }

    #[test]
    fn minimize_sum_of_two_vees_is_flat_between() {
        let curves = vec![DisplacementCurve::abs(2.0), DisplacementCurve::abs(6.0)];
        let (x, v) = minimize_sum(&curves, 0.0, 10.0);
        assert_close(v, 4.0);
        assert!((2.0..=6.0).contains(&x));
    }

    #[test]
    fn minimize_sum_respects_domain() {
        let curves = vec![DisplacementCurve::abs(2.0)];
        let (x, v) = minimize_sum(&curves, 5.0, 9.0);
        assert_close(x, 5.0);
        assert_close(v, 3.0);
        let (x2, v2) = minimize_sum(&curves, -4.0, 1.0);
        assert_close(x2, 1.0);
        assert_close(v2, 1.0);
    }

    #[test]
    fn minimize_sum_realistic_mix() {
        // target at gx=12, a left cell and a right cell
        let curves = vec![
            DisplacementCurve::abs(12.0),
            DisplacementCurve::left_cell(8.0, 7.0, 2.0),
            DisplacementCurve::right_cell(15.0, 16.0, 0.0, 4.0),
        ];
        let (x, v) = minimize_sum(&curves, 4.0, 18.0);
        // brute-force check on a fine grid
        let total = |x_t: f64| {
            (x_t - 12.0).abs()
                + ((x_t - 2.0).min(8.0) - 7.0).abs()
                + ((x_t + 4.0).max(15.0) - 16.0).abs()
        };
        let mut best = f64::INFINITY;
        let mut best_x = 4.0;
        let mut g = 4.0;
        while g <= 18.0 {
            let t = total(g);
            if t < best {
                best = t;
                best_x = g;
            }
            g += 0.01;
        }
        assert!((v - best).abs() < 1e-6, "pipeline {v} vs grid {best}");
        assert!((x - best_x).abs() < 0.5 || (total(x) - best).abs() < 1e-6);
    }

    #[test]
    fn slope_at_transitions_at_breakpoints() {
        let c = DisplacementCurve::left_cell(10.0, 8.0, 3.0);
        assert_eq!(c.slope_at(10.0), -1.0);
        assert_eq!(c.slope_at(11.0), 1.0);
        assert_eq!(c.slope_at(12.0), 1.0);
        assert_eq!(c.slope_at(13.0), 0.0);
        assert_eq!(c.slope_at(14.0), 0.0);
    }
}
