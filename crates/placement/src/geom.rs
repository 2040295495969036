//! Geometry primitives used throughout the legalization stack.
//!
//! All legalized coordinates are integer **site** / **row** indices; global-placement
//! coordinates are floating point in the same units (one unit of `x` is one placement site,
//! one unit of `y` is one row height). Keeping both in the same unit system makes the
//! displacement maths in [`crate::metrics`] trivial.

/// A half-open integer interval `[lo, hi)` on the site axis.
///
/// Intervals are the work-horse of segment extraction and insertion-point enumeration:
/// a free stretch of sites in a row, the span occupied by a cell, the gap between two cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// Create a new interval; `lo > hi` is normalized to an empty interval at `lo`.
    pub fn new(lo: i64, hi: i64) -> Self {
        if hi < lo {
            Self { lo, hi: lo }
        } else {
            Self { lo, hi }
        }
    }

    /// Length of the interval (number of sites).
    pub fn len(&self) -> i64 {
        self.hi - self.lo
    }

    /// Whether the interval contains no sites.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: i64) -> bool {
        x >= self.lo && x < self.hi
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (other.lo >= self.lo && other.hi <= self.hi)
    }

    /// Whether two intervals share at least one site.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Number of sites shared with `other`.
    pub fn overlap_len(&self, other: &Interval) -> i64 {
        self.intersect(other).len().max(0)
    }

    /// Subtract `other` from `self`, returning the (up to two) remaining pieces.
    pub fn subtract(&self, other: &Interval) -> Vec<Interval> {
        if !self.overlaps(other) {
            return if self.is_empty() { vec![] } else { vec![*self] };
        }
        let mut out = Vec::with_capacity(2);
        if other.lo > self.lo {
            out.push(Interval::new(self.lo, other.lo));
        }
        if other.hi < self.hi {
            out.push(Interval::new(other.hi, self.hi));
        }
        out.retain(|iv| !iv.is_empty());
        out
    }
}

/// An axis-aligned integer rectangle in site/row units, half-open on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Leftmost site (inclusive).
    pub x_lo: i64,
    /// Bottom row (inclusive).
    pub y_lo: i64,
    /// Rightmost site (exclusive).
    pub x_hi: i64,
    /// Top row (exclusive).
    pub y_hi: i64,
}

impl Rect {
    /// Create a new rectangle; degenerate bounds are normalized to empty.
    pub fn new(x_lo: i64, y_lo: i64, x_hi: i64, y_hi: i64) -> Self {
        Self {
            x_lo,
            y_lo,
            x_hi: x_hi.max(x_lo),
            y_hi: y_hi.max(y_lo),
        }
    }

    /// Rectangle from a bottom-left corner plus width/height.
    pub fn from_size(x: i64, y: i64, w: i64, h: i64) -> Self {
        Self::new(x, y, x + w.max(0), y + h.max(0))
    }

    /// Width in sites.
    pub fn width(&self) -> i64 {
        self.x_hi - self.x_lo
    }

    /// Height in rows.
    pub fn height(&self) -> i64 {
        self.y_hi - self.y_lo
    }

    /// Area in site·row units.
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Whether the rectangle covers no area.
    pub fn is_empty(&self) -> bool {
        self.width() <= 0 || self.height() <= 0
    }

    /// Whether two rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x_lo < other.x_hi
            && other.x_lo < self.x_hi
            && self.y_lo < other.y_hi
            && other.y_lo < self.y_hi
    }

    /// Intersection of two rectangles (possibly empty).
    pub fn intersect(&self, other: &Rect) -> Rect {
        Rect::new(
            self.x_lo.max(other.x_lo),
            self.y_lo.max(other.y_lo),
            self.x_hi.min(other.x_hi),
            self.y_hi.min(other.y_hi),
        )
    }

    /// Overlapping area with `other`.
    pub fn overlap_area(&self, other: &Rect) -> i64 {
        let i = self.intersect(other);
        if i.is_empty() {
            0
        } else {
            i.area()
        }
    }

    /// Whether `other` lies fully inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x_lo >= self.x_lo
                && other.x_hi <= self.x_hi
                && other.y_lo >= self.y_lo
                && other.y_hi <= self.y_hi)
    }

    /// The horizontal span of the rectangle as an [`Interval`].
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.x_lo, self.x_hi)
    }

    /// The vertical span of the rectangle as an [`Interval`].
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.y_lo, self.y_hi)
    }

    /// Expand the rectangle by `dx` sites horizontally and `dy` rows vertically on every side.
    pub fn expanded(&self, dx: i64, dy: i64) -> Rect {
        Rect::new(
            self.x_lo - dx,
            self.y_lo - dy,
            self.x_hi + dx,
            self.y_hi + dy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basic_properties() {
        let iv = Interval::new(2, 7);
        assert_eq!(iv.len(), 5);
        assert!(!iv.is_empty());
        assert!(iv.contains(2));
        assert!(iv.contains(6));
        assert!(!iv.contains(7));
        assert!(Interval::new(3, 3).is_empty());
        // reversed bounds normalize to empty
        assert!(Interval::new(5, 1).is_empty());
    }

    #[test]
    fn interval_overlap_and_intersection() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(10, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching does not overlap
        assert_eq!(a.intersect(&b), Interval::new(5, 10));
        assert_eq!(a.overlap_len(&b), 5);
        assert_eq!(a.overlap_len(&c), 0);
    }

    #[test]
    fn interval_subtract_produces_pieces() {
        let a = Interval::new(0, 10);
        assert_eq!(
            a.subtract(&Interval::new(3, 6)),
            vec![Interval::new(0, 3), Interval::new(6, 10)]
        );
        assert_eq!(
            a.subtract(&Interval::new(-5, 4)),
            vec![Interval::new(4, 10)]
        );
        assert_eq!(a.subtract(&Interval::new(8, 20)), vec![Interval::new(0, 8)]);
        assert_eq!(a.subtract(&Interval::new(-1, 11)), vec![]);
        assert_eq!(a.subtract(&Interval::new(20, 30)), vec![a]);
    }

    #[test]
    fn rect_overlap_and_area() {
        let a = Rect::new(0, 0, 10, 4);
        let b = Rect::new(8, 2, 12, 6);
        let c = Rect::new(10, 0, 12, 4);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_area(&b), 2 * 2);
        assert_eq!(a.area(), 40);
        assert_eq!(a.intersect(&b), Rect::new(8, 2, 10, 4));
    }

    #[test]
    fn rect_contains_and_expand() {
        let outer = Rect::new(0, 0, 100, 50);
        let inner = Rect::new(10, 10, 20, 20);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        let e = inner.expanded(5, 2);
        assert_eq!(e, Rect::new(5, 8, 25, 22));
        assert_eq!(Rect::from_size(3, 4, 5, 6), Rect::new(3, 4, 8, 10));
    }
}
