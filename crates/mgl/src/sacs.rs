//! Sort-Ahead Cell Shifting — SACS (Sec. 4 of the paper, Fig. 6 Algorithm 4).
//!
//! The original shifting algorithm needs an unpredictable number of full-region passes because
//! its fixed traversal order can leave freshly created overlaps undetected until the next pass.
//! SACS removes the multi-pass loop: localCells are **pre-sorted by x** and processed right-to-
//! left for the left-move phase (left-to-right for the right-move phase); per-segment cursors —
//! `CurSegPtr` (CSP) and `CurSegEnd` (CSE) in the paper — track the adjacent cell in every row a
//! multi-row cell spans, so every overlap is resolved the moment it can appear and each cell's
//! **final** position streams out of the single loop.
//!
//! ### Modelling note
//!
//! SACS is a *re-scheduling* of the same overlap-resolution computation: the paper's claim is
//! that it reaches the same resolved layout with one predictable pass instead of several
//! unpredictable ones, which is what makes it streamable and pipeline-friendly in hardware.
//! This crate therefore computes the shifted positions once, with the shared canonical routine
//! (`shift_phase_original`, the list-order fixpoint both algorithms converge to), and every run
//! reports the work of both schedules: the original algorithm's passes and subcell visits, and
//! the **SACS work profile** — cells fed through the Ahead Sorter, per-row cursor (CSP/CSE)
//! queries, and the single streaming pass. The FPGA performance model in `flex-core` costs one
//! of the two (`FlexConfig::sacs`). The runtime difference between the two algorithms therefore
//! shows up exactly where the paper claims it does (hardware pipelining and memory traffic),
//! never in placement quality.
//!
//! The presort is real in the scratch kernel: [`ShiftScratch::begin_region`] sorts the
//! localCells once per region by `(x, index)`, every phase problem builds its per-row lists from
//! that order instead of sorting, and [`shift_phase_with`] reports the moved cells in that
//! stream order, with the work profile computed from per-region totals minus the statics. The
//! positions still come from the canonical multi-pass fixpoint, which re-sorts a row by current
//! position on every traversal; the scratch kernel traverses only the rows a push reaches (see
//! [`crate::shift`]), which changes no position and no count. Algorithm 4's single pass
//! cannot replace the fixpoint without changing placements: it keeps each row in presorted
//! order, so a multi-row cell pushed in one row can never overtake a neighbour in another.
//! `shift::tests::a_multi_row_cell_overtakes_its_neighbour_on_the_second_pass` pins a region
//! where the fixpoint lets that happen on its second pass, and the order-preserving pass would
//! push the neighbour out of its segment and reject the point.
//!
//! [`ShiftScratch::begin_region`]: crate::shift::ShiftScratch::begin_region
//! [`shift_phase_with`]: crate::shift::shift_phase_with

use crate::shift::{shift_phase_original, Infeasible, Phase, ShiftOutcome, ShiftProblem};

/// Statistics specific to a SACS run (consumed by the FPGA performance model).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SacsStats {
    /// Number of cells fed through the Ahead Sorter.
    pub sorted_cells: u64,
    /// Number of per-row bound lookups (CSP/CSE queries); multi-row cells perform one per row,
    /// which is the access pattern the odd-even BRAM banking of Sec. 4.3.2 accelerates.
    pub bound_queries: u64,
}

/// Run one SACS phase and also return its work statistics.
pub fn shift_phase_sacs_with_stats(
    problem: &ShiftProblem<'_>,
    phase: Phase,
) -> Result<(ShiftOutcome, SacsStats), Infeasible> {
    // the canonical list-order fixpoint both Algorithm 3 and Algorithm 4 resolve to
    let canonical = shift_phase_original(problem, phase)?;
    Ok(sacs_schedule(problem, phase, canonical))
}

/// The SACS schedule of `problem`'s `phase`, given the canonical fixpoint's outcome of it:
/// the same positions in the stream order, one pass, and the SACS work statistics.
pub(crate) fn sacs_schedule(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    canonical: ShiftOutcome,
) -> (ShiftOutcome, SacsStats) {
    let region = problem.region;
    let statics = problem.statics(phase);

    // SACS work profile: every localCell flows through the Ahead Sorter once; each participant
    // issues one CSP/CSE query per row it spans (the multi-row access pattern that motivates the
    // odd-even banking of Sec. 4.3.2) and streams its final position out of the single pass.
    let mut stats = SacsStats {
        sorted_cells: region.cells.len() as u64,
        ..SacsStats::default()
    };
    for (i, c) in region.cells.iter().enumerate() {
        if statics.contains(&i) {
            continue;
        }
        stats.bound_queries += c.height as u64;
    }

    // SACS streams positions in pre-sorted order: descending x for the left-move phase,
    // ascending x for the right-move phase.
    let mut positions = canonical.positions;
    match phase {
        Phase::Left => {
            positions.sort_by_key(|&(i, _)| std::cmp::Reverse((region.cells[i].x, i as i64)))
        }
        Phase::Right => positions.sort_by_key(|&(i, _)| (region.cells[i].x, i as i64)),
    }

    (
        ShiftOutcome {
            positions,
            passes: 1,
            subcell_visits: stats.bound_queries,
        },
        stats,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::insertion::{enumerate_insertion_points_into, InsertionPoint, InsertionScratch};
    use crate::region::{LocalCell, LocalRegion, LocalSegment};
    use crate::shift::{assert_scratch_matches_oracles, ShiftScratch};
    use flex_placement::cell::CellId;
    use flex_placement::geom::{Interval, Rect};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Enumerate through the scratch-backed hot path (the same route `fop.rs` takes).
    pub(crate) fn enumerate(
        region: &LocalRegion,
        width: i64,
        height: i64,
        anchor_x: f64,
        max_points: usize,
    ) -> Vec<InsertionPoint> {
        let mut rows = ShiftScratch::default();
        rows.begin_region(region);
        let mut scratch = InsertionScratch::default();
        enumerate_insertion_points_into(
            region,
            width,
            height,
            None,
            anchor_x,
            max_points,
            &rows,
            &mut scratch,
        );
        scratch.points().to_vec()
    }

    fn fig6_region() -> LocalRegion {
        LocalRegion {
            target: CellId(99),
            window: Rect::new(0, 0, 40, 3),
            segments: vec![
                LocalSegment {
                    row: 0,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 1,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 2,
                    span: Interval::new(0, 40),
                },
            ],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 10,
                    y: 0,
                    width: 4,
                    height: 2,
                    gx: 10.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 5,
                    y: 1,
                    width: 4,
                    height: 1,
                    gx: 5.0,
                },
                LocalCell {
                    id: CellId(2),
                    x: 1,
                    y: 0,
                    width: 3,
                    height: 3,
                    gx: 1.0,
                },
                LocalCell {
                    id: CellId(3),
                    x: 20,
                    y: 0,
                    width: 5,
                    height: 1,
                    gx: 20.0,
                },
            ],
            density: 0.3,
        }
    }

    #[test]
    fn sacs_resolves_cascade_in_a_single_pass() {
        let region = fig6_region();
        let pts = enumerate(&region, 6, 1, 15.0, 64);
        let point = pts
            .iter()
            .find(|p| {
                p.bottom_row == 0 && !p.left_chain[0].is_empty() && !p.right_chain[0].is_empty()
            })
            .unwrap();
        let problem = ShiftProblem {
            region: &region,
            point,
            target_width: 6,
            target_height: 1,
            target_x: 12,
        };
        let (sacs, stats) = shift_phase_sacs_with_stats(&problem, Phase::Left).unwrap();
        assert_eq!(sacs.passes, 1);
        assert_eq!(stats.sorted_cells, 4);
        assert!(stats.bound_queries >= 3);
        let map = sacs.as_map();
        assert!(map[&0] + 4 <= 12);
        assert!(map[&1] + 4 <= map[&0]);
        assert!(map[&2] + 3 <= map[&1]);
    }

    #[test]
    fn sacs_positions_equal_the_original_algorithm() {
        let region = fig6_region();
        let pts = enumerate(&region, 6, 1, 15.0, 64);
        for point in &pts {
            for x in [point.x_lo, (point.x_lo + point.x_hi) / 2, point.x_hi] {
                let problem = ShiftProblem {
                    region: &region,
                    point,
                    target_width: 6,
                    target_height: 1,
                    target_x: x,
                };
                for phase in [Phase::Left, Phase::Right] {
                    let a = shift_phase_original(&problem, phase).map(|o| o.as_map());
                    let b = shift_phase_sacs_with_stats(&problem, phase).map(|(o, _)| o.as_map());
                    assert_eq!(a, b, "phase {phase:?} at x={x}");
                }
            }
        }
    }

    /// Check the invariants a shifting phase must establish: no overlaps among the moved cells,
    /// the target, and the static cells (except static-vs-target pairs, which the *other* phase
    /// resolves); every cell stays inside its segment; cells only move in the phase direction.
    fn assert_phase_invariants(
        region: &LocalRegion,
        problem: &ShiftProblem<'_>,
        phase: Phase,
        out: &ShiftOutcome,
        label: &str,
    ) {
        let statics = problem.statics(phase);
        let map = out.as_map();
        let target_rows: Vec<i64> = problem.target_rows().collect();
        for seg in &region.segments {
            // (span, is_static, is_target)
            let mut spans: Vec<(Interval, bool, bool)> = Vec::new();
            if target_rows.contains(&seg.row) {
                spans.push((
                    Interval::new(problem.target_x, problem.target_x + problem.target_width),
                    false,
                    true,
                ));
            }
            for (i, c) in region.cells.iter().enumerate() {
                if !c.rows().any(|r| r == seg.row) {
                    continue;
                }
                let x = map.get(&i).copied().unwrap_or(c.x);
                let iv = Interval::new(x, x + c.width);
                assert!(
                    seg.span.contains_interval(&iv),
                    "{label}: cell {i} pushed outside its segment"
                );
                spans.push((iv, statics.contains(&i), false));
            }
            for a in 0..spans.len() {
                for b in a + 1..spans.len() {
                    let static_vs_target = (spans[a].1 && spans[b].2) || (spans[b].1 && spans[a].2);
                    if static_vs_target {
                        continue;
                    }
                    assert!(
                        !spans[a].0.overlaps(&spans[b].0),
                        "{label}: row {} overlap {:?} vs {:?}",
                        seg.row,
                        spans[a].0,
                        spans[b].0
                    );
                }
            }
        }
        for (i, x) in &map {
            let old = region.cells[*i].x;
            match phase {
                Phase::Left => assert!(*x <= old, "{label}: left phase moved cell {i} rightwards"),
                Phase::Right => assert!(*x >= old, "{label}: right phase moved cell {i} leftwards"),
            }
        }
    }

    /// Randomized test: the shared shifting routine must always produce legal phase results, the
    /// SACS schedule must report the same positions, and the scratch kernel (one scratch for
    /// every region) must report exactly the allocating functions' moved cells, in SACS's
    /// order, with both schedules' counters.
    #[test]
    fn shifting_invariants_hold_on_random_regions() {
        let mut rng = StdRng::seed_from_u64(0xACE5);
        let mut scratch = ShiftScratch::default();
        for case in 0..60 {
            let rows = rng.random_range(1..=4i64);
            let width = rng.random_range(30..=60i64);
            let mut region = LocalRegion {
                target: CellId(1000),
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
            // pack random non-overlapping cells row by row
            let mut occupied: Vec<Vec<Interval>> = vec![Vec::new(); rows as usize];
            let mut id = 0u32;
            for _ in 0..rng.random_range(3..=10) {
                let h = rng.random_range(1..=rows.min(3));
                let y = rng.random_range(0..=(rows - h));
                let w = rng.random_range(2..=6i64);
                let x = rng.random_range(0..=(width - w));
                let span = Interval::new(x, x + w);
                let clash =
                    (y..y + h).any(|r| occupied[r as usize].iter().any(|iv| iv.overlaps(&span)));
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
                    gx: x as f64,
                });
                id += 1;
            }
            let tw = rng.random_range(2..=8i64);
            let th = rng.random_range(1..=rows);
            let anchor = rng.random_range(0..width) as f64;
            let pts = enumerate(&region, tw, th, anchor, 64);
            scratch.begin_region(&region);
            for point in &pts {
                let x = point.clamp(anchor.round() as i64);
                let problem = ShiftProblem {
                    region: &region,
                    point,
                    target_width: tw,
                    target_height: th,
                    target_x: x,
                };
                for phase in [Phase::Left, Phase::Right] {
                    let a = shift_phase_original(&problem, phase);
                    let b = shift_phase_sacs_with_stats(&problem, phase).map(|(o, _)| o);
                    assert_scratch_matches_oracles(
                        &problem,
                        phase,
                        &mut scratch,
                        &format!("case {case}"),
                    );
                    match (&a, &b) {
                        (Ok(a_out), Ok(b_out)) => {
                            assert_phase_invariants(
                                &region,
                                &problem,
                                phase,
                                a_out,
                                &format!("case {case} original"),
                            );
                            assert_eq!(
                                a_out.as_map(),
                                b_out.as_map(),
                                "case {case} phase {phase:?}"
                            );
                        }
                        (Err(_), Err(_)) => {}
                        _ => panic!("case {case}: feasibility disagreement between schedules"),
                    }
                }
            }
        }
    }

    /// A random point on `region`: each of `height` target rows from a random bottom row
    /// splits the cells spanning it at an x (shared by the rows, or its own) into the left and
    /// right chains, nearest first, sometimes leaving a cell out of both. A multi-row cell
    /// split differently in two rows lands in both chains.
    pub(crate) fn random_point(
        region: &LocalRegion,
        height: i64,
        rng: &mut StdRng,
    ) -> InsertionPoint {
        let rows = region.window.y_hi;
        let width = region.window.x_hi;
        let bottom_row = rng.random_range(0..=(rows - height));
        let split = rng.random_range(-2..=width + 2);
        let mut left_chain = Vec::new();
        let mut right_chain = Vec::new();
        for row in bottom_row..bottom_row + height {
            let at = if rng.random_range(0..3) == 0 {
                rng.random_range(-2..=width + 2)
            } else {
                split
            };
            let mut in_row: Vec<usize> = (0..region.cells.len())
                .filter(|&i| region.cells[i].rows().any(|r| r == row))
                .filter(|_| rng.random_range(0..6) != 0)
                .collect();
            in_row.sort_by_key(|&i| (region.cells[i].x, i));
            let cut = in_row.partition_point(|&i| region.cells[i].x < at);
            left_chain.push(in_row[..cut].iter().rev().copied().collect());
            right_chain.push(in_row[cut..].to_vec());
        }
        let x_lo = split - rng.random_range(0..=8i64);
        InsertionPoint {
            bottom_row,
            x_lo,
            x_hi: x_lo + rng.random_range(0..=4i64),
            left_chain,
            right_chain,
        }
    }

    /// A random region beyond legal ones: overlapping cells, equal-x ties, zero-width
    /// cells, cells hanging past their segment, rows without a segment, cells taller than
    /// three rows.
    pub(crate) fn random_region(rng: &mut StdRng, case: u32) -> LocalRegion {
        let rows = rng.random_range(1..=5i64);
        let width = rng.random_range(12..=40i64);
        let mut segments = Vec::new();
        for row in 0..rows {
            if rng.random_range(0..5) != 0 {
                let span =
                    Interval::new(rng.random_range(0..=3), width - rng.random_range(0..=3i64));
                segments.push(LocalSegment { row, span });
            }
        }
        let mut cells: Vec<LocalCell> = Vec::new();
        for id in 0..rng.random_range(2..=12u32) {
            let height = rng.random_range(1..=rows);
            let x = if !cells.is_empty() && rng.random_range(0..4) == 0 {
                cells[rng.random_range(0..cells.len())].x
            } else {
                rng.random_range(-2..=width)
            };
            cells.push(LocalCell {
                id: CellId(id),
                x,
                y: rng.random_range(0..=(rows - height)),
                width: rng.random_range(0..=6i64),
                height,
                gx: x as f64,
            });
        }
        LocalRegion {
            target: CellId(1000 + case),
            window: Rect::new(0, 0, width, rows),
            segments,
            cells,
            density: 0.0,
        }
    }

    /// The scratch kernel is exact on regions no legalizer produces, where rows are not clean:
    /// overlapping cells, equal-x ties, zero-width cells, cells hanging past their segment,
    /// rows without a segment, cells taller than three rows. Enumerated and random points,
    /// target x inside and outside the point's range, both phases, one scratch for every
    /// region.
    #[test]
    fn scratch_kernel_is_exact_beyond_legal_regions() {
        let mut rng = StdRng::seed_from_u64(0x5E7_71ED);
        let mut scratch = ShiftScratch::default();
        for case in 0..400 {
            let region = random_region(&mut rng, case);
            let (rows, width) = (region.window.y_hi, region.window.x_hi);
            scratch.begin_region(&region);
            let tw = rng.random_range(1..=8i64);
            let th = rng.random_range(1..=rows);
            let mut points = enumerate(&region, tw, th, rng.random_range(0..width) as f64, 8);
            for _ in 0..6 {
                points.push(random_point(&region, th, &mut rng));
            }
            for point in &points {
                let outside = rng.random_range(1..=6i64);
                for x in [
                    point.x_lo,
                    point.x_hi,
                    point.x_lo - outside,
                    point.x_hi + outside,
                ] {
                    let problem = ShiftProblem {
                        region: &region,
                        point,
                        target_width: tw,
                        target_height: th,
                        target_x: x,
                    };
                    for phase in [Phase::Left, Phase::Right] {
                        assert_scratch_matches_oracles(
                            &problem,
                            phase,
                            &mut scratch,
                            &format!("case {case} x {x}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tall_cell_queries_are_tracked() {
        let mut region = fig6_region();
        region.segments.push(LocalSegment {
            row: 3,
            span: Interval::new(0, 40),
        });
        region.cells.push(LocalCell {
            id: CellId(4),
            x: 14,
            y: 0,
            width: 3,
            height: 4,
            gx: 14.0,
        });
        let pts = enumerate(&region, 4, 1, 18.0, 64);
        let point = pts.iter().find(|p| p.bottom_row == 0).unwrap();
        let problem = ShiftProblem {
            region: &region,
            point,
            target_width: 4,
            target_height: 1,
            target_x: point.clamp(18),
        };
        let (_, stats) = shift_phase_sacs_with_stats(&problem, Phase::Left).unwrap();
        let statics = problem.statics(Phase::Left);
        assert!(!statics.contains(&4), "the 4-row cell takes part");
        let moving_rows: u64 = (0..region.cells.len())
            .filter(|i| !statics.contains(i))
            .map(|i| region.cells[i].height as u64)
            .sum();
        assert_eq!(
            stats.bound_queries, moving_rows,
            "every moving cell, the 4-row one included, queries one bound per row"
        );
    }

    #[test]
    fn output_positions_stream_in_sorted_order() {
        let region = fig6_region();
        let pts = enumerate(&region, 6, 1, 15.0, 64);
        let point = pts.iter().find(|p| p.bottom_row == 0).unwrap();
        let problem = ShiftProblem {
            region: &region,
            point,
            target_width: 6,
            target_height: 1,
            target_x: point.clamp(12),
        };
        let (out, _) = shift_phase_sacs_with_stats(&problem, Phase::Left).unwrap();
        // left phase emits cells in descending original-x order (the pre-sorted order)
        let xs: Vec<i64> = out
            .positions
            .iter()
            .map(|(i, _)| region.cells[*i].x)
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by_key(|x| std::cmp::Reverse(*x));
        assert_eq!(xs, sorted);
    }
}
