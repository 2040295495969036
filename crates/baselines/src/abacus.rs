//! The classic Abacus single-row legalizer (Spindler et al., ISPD'08; reference \[27\]).
//!
//! Abacus places the cells assigned to one row in x-order with zero overlap while minimizing
//! the weighted quadratic displacement from their desired positions, using the well-known
//! cluster-merging dynamic programming. It cannot handle multi-row cells by itself — the reason
//! the paper's mixed-cell-height baselines need more machinery — but it is the core building
//! block of the analytical baseline and a useful reference for single-height designs.

use flex_placement::geom::Interval;

/// One cell to be placed by Abacus within a row segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbacusCell {
    /// Caller-defined identifier (index into the caller's structures).
    pub id: usize,
    /// Desired x position (typically the global-placement x).
    pub desired_x: f64,
    /// Width in sites.
    pub width: i64,
    /// Weight of the cell's displacement in the objective (usually its area or pin count).
    pub weight: f64,
}

/// A cluster of cells placed abutted, as used by the Abacus dynamic programming.
#[derive(Debug, Clone)]
struct Cluster {
    first: usize,
    total_weight: f64,
    /// Σ w_i (x*_i − offset_i) — determines the optimal cluster position.
    q: f64,
    total_width: i64,
    x: f64,
}

/// A single row segment handled by Abacus.
#[derive(Debug, Clone)]
pub struct AbacusRow {
    /// The free interval the cells must be packed into.
    pub span: Interval,
}

impl AbacusRow {
    /// Create a row solver for a segment.
    pub fn new(span: Interval) -> Self {
        Self { span }
    }

    /// Place `cells` (any order) into the segment, returning `(id, x)` pairs, or `None` if the
    /// cells do not fit.
    ///
    /// Cells are processed in desired-x order; each is appended as its own cluster and clusters
    /// are merged while they overlap their predecessor, each merge re-optimizing the cluster
    /// position in closed form — the standard Abacus recurrence.
    pub fn place(&self, cells: &[AbacusCell]) -> Option<Vec<(usize, i64)>> {
        let total_width: i64 = cells.iter().map(|c| c.width).sum();
        if total_width > self.span.len() {
            return None;
        }
        let mut order: Vec<&AbacusCell> = cells.iter().collect();
        // total_cmp: a NaN desired position (degenerate global placement) must not panic the
        // sort — NaN anchors order last and the clamping below keeps the placement finite
        order.sort_by(|a, b| a.desired_x.total_cmp(&b.desired_x).then(a.id.cmp(&b.id)));

        let lo = self.span.lo as f64;
        let hi = self.span.hi as f64;

        let mut clusters: Vec<Cluster> = Vec::with_capacity(order.len());
        // width already accumulated per cluster when each cell was appended (offset of the cell
        // inside its cluster)
        for (idx, cell) in order.iter().enumerate() {
            let weight = cell.weight.max(1e-9);
            let mut cluster = Cluster {
                first: idx,
                total_weight: weight,
                q: weight * cell.desired_x,
                total_width: cell.width,
                x: cell.desired_x,
            };
            // clamp the singleton cluster into the segment
            cluster.x = cluster.x.clamp(lo, hi - cluster.total_width as f64);
            // merge with predecessors while overlapping
            while let Some(prev) = clusters.last() {
                if prev.x + prev.total_width as f64 > cluster.x + 1e-9 {
                    let prev = clusters.pop().unwrap();
                    // shift the appended cluster's desired positions by the predecessor's width
                    let merged_q =
                        prev.q + cluster.q - cluster.total_weight * prev.total_width as f64;
                    let mut merged = Cluster {
                        first: prev.first,
                        total_weight: prev.total_weight + cluster.total_weight,
                        q: merged_q,
                        total_width: prev.total_width + cluster.total_width,
                        x: 0.0,
                    };
                    merged.x =
                        (merged.q / merged.total_weight).clamp(lo, hi - merged.total_width as f64);
                    cluster = merged;
                } else {
                    break;
                }
            }
            if cluster.total_width as f64 > hi - lo + 1e-9 {
                return None;
            }
            clusters.push(cluster);
        }

        // expand clusters back into per-cell integer positions
        let mut result = vec![(0usize, 0i64); order.len()];
        for cluster in &clusters {
            let mut x = cluster.x.round() as i64;
            x = x.clamp(self.span.lo, self.span.hi - cluster.total_width);
            let mut offset = 0i64;
            for (k, cell) in order[cluster.first..].iter().enumerate() {
                let idx = cluster.first + k;
                if offset >= cluster.total_width {
                    break;
                }
                // stop once we have covered exactly this cluster's cells
                let covered: i64 = order[cluster.first..=idx].iter().map(|c| c.width).sum();
                result[idx] = (cell.id, x + offset);
                offset += cell.width;
                if covered == cluster.total_width {
                    break;
                }
            }
        }
        // fix bookkeeping: clusters partition the ordered cells contiguously, so simply walk them
        let mut out = Vec::with_capacity(order.len());
        let mut idx = 0usize;
        for cluster in &clusters {
            let mut x = cluster.x.round() as i64;
            x = x.clamp(self.span.lo, self.span.hi - cluster.total_width);
            let mut width_left = cluster.total_width;
            while width_left > 0 && idx < order.len() {
                let cell = order[idx];
                out.push((cell.id, x));
                x += cell.width;
                width_left -= cell.width;
                idx += 1;
            }
        }
        let _ = result;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: usize, x: f64, w: i64) -> AbacusCell {
        AbacusCell {
            id,
            desired_x: x,
            width: w,
            weight: 1.0,
        }
    }

    fn overlaps(placed: &[(usize, i64)], cells: &[AbacusCell]) -> bool {
        let mut spans: Vec<(i64, i64)> = placed
            .iter()
            .map(|&(id, x)| (x, x + cells.iter().find(|c| c.id == id).unwrap().width))
            .collect();
        spans.sort();
        spans.windows(2).any(|w| w[0].1 > w[1].0)
    }

    #[test]
    fn non_overlapping_cells_stay_at_their_desired_positions() {
        let row = AbacusRow::new(Interval::new(0, 100));
        let cells = vec![cell(0, 10.0, 5), cell(1, 30.0, 5), cell(2, 60.0, 5)];
        let placed = row.place(&cells).unwrap();
        assert_eq!(placed, vec![(0, 10), (1, 30), (2, 60)]);
    }

    #[test]
    fn overlapping_cells_are_spread_symmetrically() {
        let row = AbacusRow::new(Interval::new(0, 100));
        // three cells all wanting x = 50
        let cells = vec![cell(0, 50.0, 4), cell(1, 50.0, 4), cell(2, 50.0, 4)];
        let placed = row.place(&cells).unwrap();
        assert!(!overlaps(&placed, &cells));
        // the merged cluster centres on the common desired position
        let min = placed.iter().map(|&(_, x)| x).min().unwrap();
        let max = placed.iter().map(|&(_, x)| x).max().unwrap();
        assert!(
            min >= 44 && max <= 54,
            "cluster should centre near 50: {placed:?}"
        );
    }

    #[test]
    fn segment_boundaries_are_respected() {
        let row = AbacusRow::new(Interval::new(10, 30));
        let cells = vec![cell(0, 0.0, 6), cell(1, 2.0, 6), cell(2, 100.0, 6)];
        let placed = row.place(&cells).unwrap();
        assert!(!overlaps(&placed, &cells));
        for &(_, x) in &placed {
            assert!(x >= 10 && x + 6 <= 30);
        }
    }

    #[test]
    fn overfull_segment_is_rejected() {
        let row = AbacusRow::new(Interval::new(0, 10));
        let cells = vec![cell(0, 0.0, 6), cell(1, 2.0, 6)];
        assert!(row.place(&cells).is_none());
        assert!(row.place(&[]).is_some());
    }

    #[test]
    fn displacement_is_reasonably_small() {
        let row = AbacusRow::new(Interval::new(0, 60));
        let cells: Vec<AbacusCell> = (0..10).map(|i| cell(i, 3.0 * i as f64 + 1.0, 4)).collect();
        let placed = row.place(&cells).unwrap();
        assert!(!overlaps(&placed, &cells));
        let total_disp: f64 = placed
            .iter()
            .map(|&(id, x)| (x as f64 - cells[id].desired_x).abs())
            .sum();
        assert!(
            total_disp / 10.0 < 6.0,
            "average displacement too large: {total_disp}"
        );
    }
}
