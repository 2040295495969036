//! An ISPD'25 LEGALM-style purely analytical legalizer (reference \[25\]).
//!
//! LEGALM formulates mixed-cell-height legalization as a quadratic program solved with a
//! linearized augmented-Lagrangian method on a GPU. This reproduction keeps the analytical
//! character — iterative quadratic row relaxation instead of greedy insertion-point search —
//! while staying tractable:
//!
//! 1. multi-row cells are committed first, each to the feasible position nearest its
//!    global-placement location (they are the coupling constraints of the QP; fixing them
//!    linearizes the rest),
//! 2. single-row cells are assigned to their nearest parity-legal row and every row segment is
//!    relaxed with the exact Abacus quadratic clustering,
//! 3. a few smoothing sweeps re-run the relaxation with anchors blended toward the previous
//!    solution (the "linearized" update of the augmented Lagrangian), re-assigning cells that
//!    ended up far from their row to a neighbouring row when that lowers their displacement,
//! 4. anything that still does not fit falls back to the nearest free location.
//!
//! The runtime is reported both as measured host time and as a GPU estimate (rows relax in
//! parallel on an A800-class device), which is what Table 1's ISPD'25 column is compared on.

use crate::abacus::{AbacusCell, AbacusRow};
use crate::gpu_model::GpuModel;
use flex_mgl::api::{LegalizeReport, Legalizer, RuntimeBreakdown};
use flex_mgl::fop::TargetSpec;
use flex_mgl::legalize::fallback_place_indexed;
use flex_mgl::region::LegalizedIndex;
use flex_placement::cell::CellId;
use flex_placement::geom::Interval;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Result of the analytical legalizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyticalResult {
    /// Whether the final placement is legal.
    pub legal: bool,
    /// Measured host runtime.
    pub runtime: Duration,
    /// Estimated runtime on the A800-class GPU the paper's baseline uses.
    pub estimated_gpu_runtime: Duration,
    /// Average displacement `S_am`.
    pub average_displacement: f64,
    /// Cells that needed the fallback.
    pub fallback_placed: usize,
    /// Cells that could not be placed.
    pub failed: Vec<CellId>,
    /// Relaxation sweeps executed.
    pub iterations: usize,
}

/// The analytical legalizer.
#[derive(Debug, Clone)]
pub struct AnalyticalLegalizer {
    /// Number of relaxation sweeps.
    pub iterations: usize,
    /// GPU used for the runtime estimate.
    pub gpu: GpuModel,
}

impl Default for AnalyticalLegalizer {
    fn default() -> Self {
        Self {
            iterations: 3,
            gpu: GpuModel::a800(),
        }
    }
}

impl AnalyticalLegalizer {
    /// Legalize the design in place.
    pub fn legalize(&self, design: &mut Design) -> AnalyticalResult {
        let start = Instant::now();
        design.pre_move();
        let segmap = SegmentMap::build(design);
        let mut index = LegalizedIndex::build(design);

        let mut fallback_placed = 0usize;
        let mut failed = Vec::new();
        let mut gpu_batches: Vec<(u64, u64)> = Vec::new(); // (parallel rows, items per row)

        // 1. commit multi-row cells first, nearest feasible position
        let mut multi: Vec<CellId> = design
            .cells
            .iter()
            .filter(|c| !c.fixed && c.height > 1)
            .map(|c| c.id)
            .collect();
        multi.sort_by_key(|&id| {
            let c = design.cell(id);
            (std::cmp::Reverse(c.area()), id)
        });
        for id in multi {
            if fallback(design, &mut index, id) {
                fallback_placed += 1;
            } else {
                failed.push(id);
            }
        }

        // 2./3. iterative per-row quadratic relaxation of the single-row cells
        let singles: Vec<CellId> = design
            .cells
            .iter()
            .filter(|c| !c.fixed && c.height == 1)
            .map(|c| c.id)
            .collect();
        let mut anchor: HashMap<CellId, f64> =
            singles.iter().map(|&id| (id, design.cell(id).gx)).collect();

        let mut iterations_run = 0usize;
        for sweep in 0..self.iterations {
            iterations_run += 1;
            // assign every single-row cell to its current row (pre-move already chose the
            // nearest row; later sweeps may move cells whose segment overflowed)
            let mut per_segment: HashMap<(i64, i64), Vec<AbacusCell>> = HashMap::new();
            let mut seg_span: HashMap<(i64, i64), Interval> = HashMap::new();
            let mut unassigned: Vec<CellId> = Vec::new();
            for &id in &singles {
                let c = design.cell(id);
                let row = c.y;
                // the free segment of this row once multi-row/fixed obstacles are carved out
                let span = segment_for(design, &segmap, row, c.x);
                match span {
                    Some(span) => {
                        let key = (row, span.lo);
                        seg_span.insert(key, span);
                        per_segment.entry(key).or_default().push(AbacusCell {
                            id: id.index(),
                            desired_x: anchor[&id],
                            width: c.width,
                            weight: c.area() as f64,
                        });
                    }
                    None => unassigned.push(id),
                }
            }

            let mut max_items = 0u64;
            for (key, cells) in &per_segment {
                let span = seg_span[key];
                max_items = max_items.max(cells.len() as u64);
                let row_solver = AbacusRow::new(span);
                match row_solver.place(cells) {
                    Some(placed) => {
                        for (cell_idx, x) in placed {
                            let id = CellId(cell_idx as u32);
                            design.cell_mut(id).x = x;
                            design.cell_mut(id).legalized = true;
                        }
                    }
                    None => {
                        // segment overflow: evict the cells farthest from their anchors to a
                        // neighbouring row on the next sweep (here: mark them unassigned)
                        let mut cells = cells.clone();
                        // total_cmp: NaN anchors from a degenerate solve must not panic
                        cells.sort_by(|a, b| a.desired_x.total_cmp(&b.desired_x));
                        let keep = (span.len()
                            / cells.iter().map(|c| c.width).max().unwrap_or(1).max(1))
                            as usize;
                        for c in cells.iter().skip(keep.max(1)) {
                            unassigned.push(CellId(c.id as u32));
                        }
                        let kept: Vec<AbacusCell> = cells.into_iter().take(keep.max(1)).collect();
                        if let Some(placed) = row_solver.place(&kept) {
                            for (cell_idx, x) in placed {
                                let id = CellId(cell_idx as u32);
                                design.cell_mut(id).x = x;
                                design.cell_mut(id).legalized = true;
                            }
                        } else {
                            for c in &kept {
                                unassigned.push(CellId(c.id as u32));
                            }
                        }
                    }
                }
            }
            gpu_batches.push((per_segment.len() as u64, max_items * max_items));

            // move evicted cells to the best neighbouring row for the next sweep
            for id in unassigned {
                let (gy, height) = {
                    let c = design.cell(id);
                    (c.gy, c.height)
                };
                let cur = design.cell(id).y;
                let candidates = [cur - 1, cur + 1, cur - 2, cur + 2];
                let mut best = cur;
                let mut best_cost = f64::INFINITY;
                for cand in candidates {
                    if cand < 0 || cand + height > design.num_rows {
                        continue;
                    }
                    if !design.cell(id).parity_ok(cand) {
                        continue;
                    }
                    let cost = (cand as f64 - gy).abs();
                    if cost < best_cost {
                        best_cost = cost;
                        best = cand;
                    }
                }
                design.cell_mut(id).y = best;
                design.cell_mut(id).legalized = false;
            }

            // linearized update: blend the anchors toward the current solution
            let blend = 0.5 / (sweep as f64 + 1.0);
            for &id in &singles {
                let c = design.cell(id);
                let e = anchor.get_mut(&id).expect("anchor exists");
                *e = c.gx * (1.0 - blend) + c.x as f64 * blend;
            }
        }

        // 4. anything still illegal gets the fallback treatment; the sweeps rewrote rows and
        //    `legalized` flags, so the index is rebuilt once
        index = LegalizedIndex::build(design);
        let ids: Vec<CellId> = design
            .cells
            .iter()
            .filter(|c| !c.fixed && !c.legalized)
            .map(|c| c.id)
            .collect();
        for id in ids {
            if fallback(design, &mut index, id) {
                fallback_placed += 1;
            } else {
                failed.push(id);
            }
        }
        // a final overlap sweep: if the relaxation left any overlap (it should not), push the
        // offending cells through the fallback as well
        let mut report = check_legality_with(design, true);
        let mut guard = 0;
        while !report.is_legal() && guard < 3 {
            guard += 1;
            let mut offenders: Vec<CellId> = Vec::new();
            for v in &report.violations {
                match v {
                    flex_placement::legality::Violation::CellOverlap { b, .. } => {
                        offenders.push(*b)
                    }
                    flex_placement::legality::Violation::BlockageOverlap { cell, .. }
                    | flex_placement::legality::Violation::OutOfDie { cell }
                    | flex_placement::legality::Violation::ParityViolation { cell, .. }
                    | flex_placement::legality::Violation::NotLegalized { cell } => {
                        offenders.push(*cell)
                    }
                }
            }
            offenders.sort();
            offenders.dedup();
            for id in offenders {
                let c = design.cell_mut(id);
                if c.fixed {
                    continue;
                }
                c.legalized = false;
                let (y, height) = (c.y, c.height);
                index.remove_cell(id, y, height);
                if fallback(design, &mut index, id) {
                    fallback_placed += 1;
                } else if !failed.contains(&id) {
                    failed.push(id);
                }
            }
            report = check_legality_with(design, true);
        }

        // GPU estimate: each sweep relaxes all row segments in parallel
        let mut gpu_time = Duration::ZERO;
        for (rows, items) in gpu_batches {
            gpu_time += self.gpu.batch_time(rows, items.max(64));
        }
        // plus the serial multi-row pre-pass, which the GPU cannot parallelize well
        gpu_time += Duration::from_secs_f64(start.elapsed().as_secs_f64() * 0.1);

        let disp = displacement_stats(design);
        AnalyticalResult {
            legal: report.is_legal(),
            runtime: start.elapsed(),
            estimated_gpu_runtime: gpu_time,
            average_displacement: disp.average,
            fallback_placed,
            failed,
            iterations: iterations_run,
        }
    }
}

impl Legalizer for AnalyticalLegalizer {
    fn name(&self) -> &'static str {
        "ispd25-analytical"
    }

    fn legalize(&self, design: &mut Design) -> LegalizeReport {
        let result = AnalyticalLegalizer::legalize(self, design);
        // "in region" here means "placed by the row relaxation"; the overlap-guard retry loop
        // can re-run the fallback on a cell it already counted, which is exactly the case the
        // `with_counts` clamp re-balances
        LegalizeReport::new(self.name(), result.legal, design.num_movable(), design)
            .with_runtime(RuntimeBreakdown::modeled(
                result.runtime,
                result.estimated_gpu_runtime,
            ))
            .with_counts(
                design
                    .num_movable()
                    .saturating_sub(result.fallback_placed + result.failed.len()),
                result.fallback_placed,
                result.failed,
            )
    }
}

/// Place `id` at the nearest free gap between the legalized cells and register it in
/// `index`, which must hold exactly the design's legalized movable cells. `false` if the die
/// has no gap for it.
fn fallback(design: &mut Design, index: &mut LegalizedIndex, id: CellId) -> bool {
    let spec = TargetSpec::of(design.cell(id));
    let placed = fallback_place_indexed(design, index, id, &spec);
    if placed {
        index.insert(design, id);
    }
    placed
}

/// The free interval of `row` that contains (or is nearest to) `x`, with fixed cells, blockages
/// and already-legalized multi-row cells carved out.
fn segment_for(design: &Design, segmap: &SegmentMap, row: i64, x: i64) -> Option<Interval> {
    let mut pieces: Vec<Interval> = segmap.row(row).iter().map(|s| s.span).collect();
    for c in design
        .cells
        .iter()
        .filter(|c| !c.fixed && c.legalized && c.height > 1)
    {
        if c.y_interval().contains(row) {
            let span = c.x_interval();
            let mut next = Vec::with_capacity(pieces.len() + 1);
            for p in pieces {
                next.extend(p.subtract(&span));
            }
            pieces = next;
        }
    }
    pieces
        .into_iter()
        .filter(|p| !p.is_empty())
        .min_by_key(|p| {
            if p.contains(x) {
                0
            } else {
                (p.lo - x).abs().min((p.hi - x).abs())
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::benchmark::{generate, BenchmarkSpec};

    #[test]
    fn analytical_legalizer_produces_legal_result() {
        let mut d = generate(&BenchmarkSpec::tiny("ana", 31));
        let res = AnalyticalLegalizer::default().legalize(&mut d);
        assert!(res.legal, "failed: {:?}", res.failed);
        assert!(res.average_displacement > 0.0);
        assert!(res.iterations >= 1);
        assert!(res.estimated_gpu_runtime > Duration::ZERO);
    }

    #[test]
    fn more_iterations_do_not_break_legality() {
        let mut d = generate(&BenchmarkSpec::tiny("ana-it", 32));
        let legalizer = AnalyticalLegalizer {
            iterations: 6,
            ..AnalyticalLegalizer::default()
        };
        let res = legalizer.legalize(&mut d);
        assert!(res.legal);
        assert_eq!(res.iterations, 6);
    }

    #[test]
    fn handles_single_height_only_designs() {
        let spec = BenchmarkSpec::tiny("ana-flat", 33).with_height_mix(vec![(1, 1.0)]);
        let mut d = generate(&spec);
        let res = AnalyticalLegalizer::default().legalize(&mut d);
        assert!(res.legal);
    }

    #[test]
    fn quality_is_in_the_same_ballpark_as_mgl() {
        let mut d1 = generate(&BenchmarkSpec::tiny("ana-q", 34));
        let mut d2 = generate(&BenchmarkSpec::tiny("ana-q", 34));
        let ana = AnalyticalLegalizer::default().legalize(&mut d1);
        let mgl = flex_mgl::MglLegalizer::new(flex_mgl::MglConfig::original()).legalize(&mut d2);
        assert!(ana.legal && mgl.legal);
        let ratio = ana.average_displacement / mgl.average_displacement.max(1e-9);
        assert!(ratio < 3.0, "analytical quality ratio vs MGL: {ratio:.2}");
    }
}
