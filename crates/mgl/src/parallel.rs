//! The parallel MGL engine, with ping-pong batch speculation.
//!
//! The paper's CPU baseline (Fig. 2(a)) parallelizes MGL by batching target cells whose
//! legalization windows do not overlap and synchronizing after every batch — at the cost of
//! reordering cells and therefore changing the result. This module keeps the batching idea
//! but makes the engine *placement-identical to the serial legalizer*:
//!
//! 1. **Prefix batches with speculation.** Each round takes the next `lookahead` targets of
//!    the serial processing order — a *prefix*, never a reordering. Every member is
//!    *speculated* on the rayon pool at its base legalization window ([`target_window`] at
//!    expansion level 0): region extraction, FOP (which is where the `shift_phase_*` work
//!    runs) and the pure [`plan_commit_with`] verification all execute against a shadow copy
//!    of the cell state (point 3). Members whose windows overlap need no separate treatment:
//!    the commit-time write check below catches every conflict.
//! 2. **In-order commit with per-write tracking.** Plans are applied strictly in the serial
//!    order. Every commit records one rectangle per design write it performed
//!    ([`plan_write_rects`] / [`PlaceOutcome::writes`]) — the target's committed extent and
//!    each moved localCell's swept span — rather than one collective bounding box, so a
//!    later member is invalidated only when an *individual* write intersects its window. A
//!    member whose window is hit by any write since its shadow was brought up to date — and
//!    any member whose speculation found no expansion-0 placement — is handled by the
//!    ordinary serial [`place_target_with`] at its slot, window expansions and whole-die
//!    fallback included.
//! 3. **Ping-pong shadows.** Like FLEX's ping-pong RAM (Sec. 3.1.2), which preloads
//!    `C_next`'s region into the free half while `C_cur` is processed, the engine speculates
//!    batch *k+1* on a speculation runner thread while the commit thread commits batch *k*.
//!    Batch *k+1* launches before batch *k* commits, so it reads a private `Shadow` — a
//!    copy of the design and its [`LegalizedIndex`] taken after pre-move — and two shadows
//!    alternate: one is out with the batch in flight, the other is home. Before launching
//!    batch *k+1* the commit thread brings the home shadow up to the live design by copying
//!    the cells batches *k−2* and *k−1* wrote (the home shadow last served batch *k−1*,
//!    which saw everything before batch *k−2*). A member of batch *k* is stale if a write of
//!    batch *k−1*, which committed after *k*'s shadow was brought up to date
//!    ([`ShardStats::cross_batch_invalidated`]), or an earlier commit of batch *k* itself
//!    ([`ShardStats::dirty_recomputes`]) intersects its window — per write rect, so a
//!    speculation survives earlier non-overlapping commits.
//!
//! **Ordering.** Both engines place the cells in the order [`ordering::processing_order`]
//! computes once after pre-move. That covers the FLEX default (sliding-window density)
//! ordering too: its reorder step reads only the density map built before the first commit
//! and the positions of queued cells, and commits move only already-legalized cells, never
//! queued ones, so the dynamic order is fixed before the first commit and batches are plain
//! slices of it.
//!
//! **Serial equivalence.** Because batches are prefixes of the serial order and commits
//! happen in that order, when cell *i* reaches its commit slot every cell before it (and no
//! cell after it) has been committed — exactly the serial state. A speculative plan is
//! applied only if nothing written since its shadow was brought up to date intersects the
//! cell's window (with the same one-site slack the obstacle filter uses), in which case the
//! speculated region, FOP result and plan coincide with what the serial legalizer would
//! compute at that slot; otherwise the cell is recomputed serially at its slot. By induction
//! the final placement, the displacement stats, the per-cell work trace and the legality
//! verdict are identical to [`MglLegalizer`] with the same configuration — static or dynamic
//! ordering, at any thread count and any batch size. Wall-clock fields (`runtime`, the
//! `FopOpStats` nanosecond counters) are measurements and do differ.

use crate::config::MglConfig;
use crate::fop::{self, FopScratch, TargetSpec};
use crate::legalize::{
    accumulate_work, apply_commit, place_target_with, plan_commit_with, plan_write_rects,
    CommitPlan, LegalizeResult, PlacedBy, RunAccum,
};
use crate::ordering;
use crate::region::{target_window, LegalizedIndex, LocalRegion};
use crate::stats::{FopOpStats, RegionWork};
use flex_placement::cell::CellId;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::segment::SegmentMap;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

#[cfg(doc)]
use crate::legalize::{MglLegalizer, PlaceOutcome};

/// Lower bound on the speculation batch size (targets taken off the queue front per round).
/// The batch size adapts to the worker count (four targets per worker) — staleness within a
/// batch grows quadratically with its length, so the engine uses the smallest prefix that
/// still keeps every worker busy. The placement is the serial one for *every* batch size
/// (see the module docs), so this is purely a throughput choice.
pub const MIN_LOOKAHEAD: usize = 8;

/// Statistics about how the speculation schedule executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Prefix batches executed.
    pub batches: usize,
    /// Targets speculated in parallel.
    pub speculated: usize,
    /// Targets whose speculative plan was committed as-is.
    pub committed_speculatively: usize,
    /// Targets handled by the serial path (failed or stale speculations).
    pub serial_inline: usize,
    /// Speculations discarded because an earlier commit **of the same batch** wrote into
    /// their window.
    pub dirty_recomputes: usize,
    /// Speculations discarded because a commit of the **previous batch**, which committed
    /// after this batch's shadow was brought up to date, wrote into their window. Always
    /// zero for the first batch.
    pub cross_batch_invalidated: usize,
}

impl ShardStats {
    /// Mirror every counter into `registry` as `par_shard_*` series. The struct's own
    /// public shape is unchanged — this is the bridge onto the shared observability
    /// registry, called once per run.
    pub fn publish_to(&self, registry: &flex_obs::Registry) {
        for (name, v) in [
            ("par_shard_batches", self.batches as u64),
            ("par_shard_speculated", self.speculated as u64),
            (
                "par_shard_committed_speculatively",
                self.committed_speculatively as u64,
            ),
            ("par_shard_serial_inline", self.serial_inline as u64),
            ("par_shard_dirty_recomputes", self.dirty_recomputes as u64),
            (
                "par_shard_cross_batch_invalidated",
                self.cross_batch_invalidated as u64,
            ),
        ] {
            registry.set_counter(name, v);
        }
    }

    /// Fraction of targets whose FOP ran speculatively in parallel.
    pub fn speculative_fraction(&self) -> f64 {
        let total = self.committed_speculatively + self.serial_inline;
        if total == 0 {
            0.0
        } else {
            self.committed_speculatively as f64 / total as f64
        }
    }
}

/// Outcome of a parallel legalization run.
#[derive(Debug, Clone)]
pub struct ParallelLegalizeResult {
    /// The ordinary legalization result (legality, displacement, stats, trace).
    pub result: LegalizeResult,
    /// How the sharded schedule executed.
    pub shards: ShardStats,
}

/// The parallel MGL legalizer.
#[derive(Debug, Clone)]
pub struct ParallelMglLegalizer {
    threads: usize,
    config: MglConfig,
}

/// What one speculative evaluation produced.
struct Speculation {
    work: RegionWork,
    stats: FopOpStats,
    plan: Option<CommitPlan>,
}

/// A private copy of the cell state that one speculation batch reads while the commit
/// thread writes the live design: the design and its obstacle index as they stood before
/// the previous batch committed.
#[derive(Clone)]
struct Shadow {
    design: Design,
    index: LegalizedIndex,
}

impl Shadow {
    /// Copy from the live design every cell the last two committed batches wrote (`lag`,
    /// oldest first), registering in the index the ones that became legalized. A legalized
    /// cell keeps its rows for the rest of the run, so those are the index's only changes.
    fn catch_up(&mut self, live: &Design, lag: &[Vec<CellId>; 2]) {
        for &id in lag.iter().flatten() {
            let cell = live.cell(id);
            let newly_legalized = cell.legalized && !self.design.cell(id).legalized;
            *self.design.cell_mut(id) = cell.clone();
            if newly_legalized {
                self.index.insert(&self.design, id);
            }
        }
    }
}

/// Append the cells one placement wrote: its plan's moved localCells, then the target.
fn note_written(written: &mut Vec<CellId>, target: CellId, plan: Option<&CommitPlan>) {
    if let Some(plan) = plan {
        written.extend(plan.moves.iter().map(|&(id, _)| id));
    }
    written.push(target);
}

/// One speculation batch handed to the runner thread, with the shadow it reads.
struct LaunchMsg {
    batch: usize,
    shadow: Shadow,
}

/// One speculated batch coming back from the runner thread, in launch (= batch) order, with
/// its shadow.
struct SpecBatch {
    batch: usize,
    pending: HashMap<CellId, Speculation>,
    shadow: Shadow,
}

/// Everything the strictly-serial commit phase accumulates across batches.
struct CommitAccum {
    run: RunAccum,
    shards: ShardStats,
}

impl ParallelMglLegalizer {
    /// Create an engine with `threads` workers and the given MGL configuration.
    pub fn new(threads: usize, config: MglConfig) -> Self {
        Self {
            threads: threads.max(1),
            config,
        }
    }

    /// Legalize every movable cell of the design in place.
    pub fn legalize(&self, design: &mut Design) -> ParallelLegalizeResult {
        let start = Instant::now();
        let cfg = &self.config;

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("failed to build worker pool");

        // steps (a) and (b): pre-move and the serial processing order — identical to the
        // serial flow
        let build_span = flex_obs::span!("par.build_structures");
        design.pre_move();
        let segmap = SegmentMap::build(design);
        let mut index = LegalizedIndex::build(design);
        let order = ordering::processing_order(design, cfg);
        drop(build_span);

        let mut acc = CommitAccum {
            run: RunAccum::new(cfg.collect_trace),
            shards: ShardStats::default(),
        };

        // the commit thread's arena; each worker gets its own via the thread-local in
        // `speculate`, so no scratch state is ever shared across threads
        let mut scratch = FopScratch::new();

        let lookahead = (4 * self.threads).max(MIN_LOOKAHEAD);
        let batches: Vec<&[CellId]> = order.chunks(lookahead).collect();

        // batches 0 and 1 both speculate on the pre-move state
        let shadow = Shadow {
            design: design.clone(),
            index: index.clone(),
        };
        let mut home = Some(shadow.clone());

        let (pool_ref, segmap_ref, batches_ref) = (&pool, &segmap, &batches);
        std::thread::scope(|s| {
            let (launch_tx, launch_rx) = mpsc::channel::<LaunchMsg>();
            let (result_tx, result_rx) = mpsc::channel::<SpecBatch>();
            // the runner drains launches FIFO, so results arrive in batch order; it exits
            // when the launch sender is dropped (normal exit and unwind alike)
            std::thread::Builder::new()
                .name("flex-spec-runner".into())
                .spawn_scoped(s, move || {
                    while let Ok(LaunchMsg { batch, shadow }) = launch_rx.recv() {
                        let spec_span = flex_obs::span!("par.speculate_batch");
                        let pending =
                            speculate_batch(pool_ref, batches_ref[batch], &shadow, segmap_ref, cfg);
                        drop(spec_span);
                        let out = SpecBatch {
                            batch,
                            pending,
                            shadow,
                        };
                        if result_tx.send(out).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn speculation runner");

            // a send only fails if the runner died; the recv below surfaces that
            if !batches.is_empty() {
                let _ = launch_tx.send(LaunchMsg { batch: 0, shadow });
            }
            // the cells batches k−2 and k−1 wrote: what the home shadow lags the live design by
            let mut lag: [Vec<CellId>; 2] = Default::default();
            // batch k's shadow holds every earlier commit except batch k−1's, so its
            // staleness guard checks the previous batch's write rects alone
            let mut prev_writes: Vec<Rect> = Vec::new();
            for (k, &batch) in batches.iter().enumerate() {
                // batch k+1 launches one whole batch ahead and speculates while batch k
                // commits
                if k + 1 < batches.len() {
                    let mut shadow = home.take().expect("batch k−1 brought its shadow home");
                    shadow.catch_up(design, &lag);
                    let _ = launch_tx.send(LaunchMsg {
                        batch: k + 1,
                        shadow,
                    });
                }
                let spec = result_rx.recv().expect("speculation runner thread died");
                debug_assert_eq!(spec.batch, k, "runner must return batches in order");
                home = Some(spec.shadow);
                acc.shards.batches += 1;
                acc.shards.speculated += spec.pending.len();

                lag.rotate_left(1);
                lag[1].clear();
                let commit_span = flex_obs::span!("par.commit_batch");
                prev_writes = commit_batch(
                    design,
                    &segmap,
                    &mut index,
                    cfg,
                    batch,
                    spec.pending,
                    &prev_writes,
                    &mut scratch,
                    &mut acc,
                    &mut lag[1],
                );
                drop(commit_span);
            }
            drop(launch_tx);
        });

        // step (e) epilogue — identical to the serial flow
        acc.shards.publish_to(flex_obs::global());
        ParallelLegalizeResult {
            result: acc.run.finish(design, start),
            shards: acc.shards,
        }
    }
}

/// Commit one batch strictly in the serial order: apply each member's speculative plan if
/// its window is clean since its shadow was brought up to date, otherwise run the full serial
/// placement at its slot. Appends every cell the batch wrote to `written`, and returns the
/// batch's write rects.
#[allow(clippy::too_many_arguments)]
fn commit_batch(
    design: &mut Design,
    segmap: &SegmentMap,
    index: &mut LegalizedIndex,
    cfg: &MglConfig,
    batch: &[CellId],
    mut pending: HashMap<CellId, Speculation>,
    writes_prev: &[Rect],
    scratch: &mut FopScratch,
    acc: &mut CommitAccum,
    written: &mut Vec<CellId>,
) -> Vec<Rect> {
    let mut writes_cur: Vec<Rect> = Vec::new();
    for &id in batch {
        let window = target_window(design, id, cfg.window_half_sites, cfg.window_half_rows);
        // same one-site x slack as the obstacle filter of region extraction
        let guard = window.expanded(1, 0);
        let stale_prev = writes_prev.iter().any(|w| w.overlaps(&guard));
        let stale_cur = writes_cur.iter().any(|w| w.overlaps(&guard));
        match pending.remove(&id) {
            Some(Speculation {
                work,
                stats,
                plan: Some(plan),
            }) if !stale_prev && !stale_cur => {
                plan_write_rects(design, &plan, &mut writes_cur);
                apply_commit(design, &plan);
                index.insert(design, id);
                note_written(written, id, Some(&plan));
                acc.run.op_stats.merge(&stats);
                acc.shards.committed_speculatively += 1;
                acc.run.record(id, PlacedBy::Region, work, window);
            }
            speculation => {
                if (stale_prev || stale_cur) && speculation.is_some() {
                    if stale_prev {
                        acc.shards.cross_batch_invalidated += 1;
                    } else {
                        acc.shards.dirty_recomputes += 1;
                    }
                }
                let out = place_target_with(
                    design,
                    segmap,
                    index,
                    cfg,
                    id,
                    &mut acc.run.op_stats,
                    scratch,
                );
                acc.shards.serial_inline += 1;
                writes_cur.extend(out.writes.iter().copied());
                note_written(written, id, out.plan.as_ref());
                acc.run.record(id, out.placed, out.work, out.window);
            }
        }
    }
    writes_cur
}

/// Speculate one batch on the worker pool against `shadow` (the commit thread may be
/// writing the live design concurrently). Returns the id-keyed speculations.
fn speculate_batch(
    pool: &rayon::ThreadPool,
    batch: &[CellId],
    shadow: &Shadow,
    segmap: &SegmentMap,
    cfg: &MglConfig,
) -> HashMap<CellId, Speculation> {
    pool.install(|| {
        batch
            .par_iter()
            .map(|&id| (id, speculate(shadow, segmap, cfg, id)))
            .collect()
    })
}

/// Evaluate one target speculatively at expansion level 0 against a shadow. Runs on a
/// worker thread: the FOP arena comes from that worker's thread-local [`FopScratch`], so
/// buffers are reused across every speculation a worker performs.
fn speculate(shadow: &Shadow, segmap: &SegmentMap, cfg: &MglConfig, id: CellId) -> Speculation {
    let window = target_window(
        &shadow.design,
        id,
        cfg.window_half_sites,
        cfg.window_half_rows,
    );
    let spec = TargetSpec::of(shadow.design.cell(id));
    let mut stats = FopOpStats::default();
    let mut work = RegionWork {
        target: id,
        target_width: spec.width,
        target_height: spec.height,
        ..RegionWork::default()
    };
    let region = LocalRegion::extract_indexed(&shadow.design, segmap, id, window, &shadow.index);
    let mut plan = None;
    if region.cells.len() <= cfg.max_region_cells
        && region.can_host(spec.width, spec.height, spec.parity)
    {
        FopScratch::with_thread_local(|scratch| {
            let outcome = fop::find_optimal_position_with(&region, &spec, cfg, &mut stats, scratch);
            accumulate_work(&mut work, &outcome.work);
            if let Some(best) = outcome.best {
                plan = plan_commit_with(&region, &best, &spec, cfg, scratch);
            }
        });
    }
    Speculation { work, stats, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MglConfig, OrderingStrategy};
    use crate::legalize::MglLegalizer;
    use flex_placement::benchmark::{generate, tall_cell_spec, BenchmarkSpec};

    fn static_cfg() -> MglConfig {
        MglConfig {
            ordering: OrderingStrategy::SizeDescending,
            ..MglConfig::default()
        }
    }

    fn positions(d: &Design) -> Vec<(i64, i64)> {
        d.cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| (c.x, c.y))
            .collect()
    }

    #[test]
    fn parallel_run_is_legal_and_complete() {
        let mut d = generate(&BenchmarkSpec::tiny("par-basic", 5));
        let out = ParallelMglLegalizer::new(4, static_cfg()).legalize(&mut d);
        assert!(out.result.legal, "failed: {:?}", out.result.failed);
        assert_eq!(
            out.result.placed_in_region + out.result.fallback_placed,
            d.num_movable()
        );
        assert!(out.shards.batches > 0);
    }

    #[test]
    fn thread_count_does_not_change_the_placement() {
        let spec = BenchmarkSpec::tiny("par-det", 6);
        let mut reference: Option<Vec<(i64, i64)>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut d = generate(&spec);
            let out = ParallelMglLegalizer::new(threads, static_cfg()).legalize(&mut d);
            assert!(
                out.result.legal,
                "{threads} threads produced an illegal layout"
            );
            let p = positions(&d);
            match &reference {
                None => reference = Some(p),
                Some(r) => assert_eq!(r, &p, "placement changed at {threads} threads"),
            }
        }
    }

    #[test]
    fn parallel_matches_the_serial_legalizer_exactly() {
        // equivalence must hold at every density, expansions and fallbacks included
        for (seed, density) in [(7u64, 0.45), (8, 0.65), (9, 0.85)] {
            let spec = BenchmarkSpec::tiny("par-eq", seed).with_density(density);
            let mut d_par = generate(&spec);
            let mut d_ser = generate(&spec);
            let par = ParallelMglLegalizer::new(4, static_cfg()).legalize(&mut d_par);
            let ser = MglLegalizer::new(static_cfg()).legalize(&mut d_ser);
            assert_eq!(par.result.legal, ser.legal, "density {density}");
            assert_eq!(positions(&d_par), positions(&d_ser), "density {density}");
            assert_eq!(par.result.placed_in_region, ser.placed_in_region);
            assert_eq!(par.result.fallback_placed, ser.fallback_placed);
            assert_eq!(par.result.failed, ser.failed);
            assert!(
                (par.result.average_displacement - ser.average_displacement).abs() < 1e-12,
                "displacement diverged at density {density}: {} vs {}",
                par.result.average_displacement,
                ser.average_displacement
            );
        }
    }

    #[test]
    fn trace_matches_the_serial_trace() {
        let spec = BenchmarkSpec::tiny("par-trace", 9);
        let cfg = MglConfig {
            collect_trace: true,
            ..static_cfg()
        };
        let mut d_par = generate(&spec);
        let mut d_ser = generate(&spec);
        let par = ParallelMglLegalizer::new(4, cfg.clone()).legalize(&mut d_par);
        let ser = MglLegalizer::new(cfg).legalize(&mut d_ser);
        let par_trace = par.result.trace.expect("trace requested");
        let ser_trace = ser.trace.expect("trace requested");
        assert_eq!(par_trace.len(), d_par.num_movable());
        assert_eq!(
            par_trace, ser_trace,
            "work traces must be identical entry for entry"
        );
    }

    #[test]
    fn sliding_window_ordering_runs_on_the_parallel_path() {
        // the FLEX default (dynamic) ordering used to degrade to fully-serial execution;
        // it now speculates on slices of the precomputed order and must still match the
        // serial engine cell for cell
        let spec = BenchmarkSpec::tiny("par-sliding", 8).with_density(0.6);
        let mut d_par = generate(&spec);
        let mut d_ser = generate(&spec);
        let cfg = MglConfig::flex();
        let par = ParallelMglLegalizer::new(4, cfg.clone()).legalize(&mut d_par);
        let ser = MglLegalizer::new(cfg).legalize(&mut d_ser);
        assert!(par.result.legal && ser.legal);
        assert_eq!(positions(&d_par), positions(&d_ser));
        assert!(
            par.shards.speculated > 0,
            "the dynamic order must be speculated, not serialized"
        );
        assert!(par.shards.committed_speculatively > 0);
    }

    #[test]
    fn dynamic_ordering_trace_matches_serial() {
        let spec = BenchmarkSpec::tiny("par-sliding-trace", 12).with_density(0.7);
        let cfg = MglConfig {
            collect_trace: true,
            ..MglConfig::flex()
        };
        let mut d_par = generate(&spec);
        let mut d_ser = generate(&spec);
        let par = ParallelMglLegalizer::new(3, cfg.clone()).legalize(&mut d_par);
        let ser = MglLegalizer::new(cfg).legalize(&mut d_ser);
        assert_eq!(
            par.result.trace.expect("trace"),
            ser.trace.expect("trace"),
            "dynamic-order work traces must be identical entry for entry"
        );
    }

    #[test]
    fn engine_accounts_every_target_exactly_once() {
        let spec = BenchmarkSpec::tiny("par-account", 10).with_density(0.7);
        let mut d = generate(&spec);
        let n = d.num_movable();
        let out = ParallelMglLegalizer::new(3, static_cfg()).legalize(&mut d);
        assert_eq!(
            out.result.placed_in_region + out.result.fallback_placed + out.result.failed.len(),
            n
        );
        assert_eq!(
            out.shards.committed_speculatively + out.shards.serial_inline,
            n
        );
        assert!(out.shards.speculated >= out.shards.committed_speculatively);
        assert!(out.shards.speculative_fraction() > 0.0);
    }

    #[test]
    fn runs_of_at_most_a_few_batches_match_serial() {
        // at 1 and 2 threads the batch size is MIN_LOOKAHEAD: no batch, a partial batch,
        // exactly one, one plus one cell and two plus one cell all take the one schedule
        let l = MIN_LOOKAHEAD;
        for n in [0, 1, l, l + 1, 2 * l + 1] {
            let spec = BenchmarkSpec {
                num_cells: n,
                ..BenchmarkSpec::tiny("par-edge", 13)
            };
            for cfg in [static_cfg(), MglConfig::flex()] {
                let mut d_ser = generate(&spec);
                MglLegalizer::new(cfg.clone()).legalize(&mut d_ser);
                for threads in [1usize, 2] {
                    let mut d_par = generate(&spec);
                    let out = ParallelMglLegalizer::new(threads, cfg.clone()).legalize(&mut d_par);
                    let at = format!("{n} cells, {threads} threads, {:?}", cfg.ordering);
                    assert_eq!(positions(&d_par), positions(&d_ser), "{at}");
                    assert_eq!(out.shards.batches, n.div_ceil(l), "{at}");
                    assert_eq!(
                        out.shards.committed_speculatively + out.shards.serial_inline,
                        n,
                        "{at}"
                    );
                }
            }
        }
    }

    /// Assert `shadow` equals the live design `live`: every cell, and the obstacle
    /// candidates its index yields over several row ranges against a rebuilt index.
    fn assert_shadow_matches(shadow: &Shadow, live: &Design, at: &str) {
        assert!(shadow.design.cells == live.cells, "cells diverged {at}");
        let rebuilt = LegalizedIndex::build(live);
        let rows = live.num_rows;
        for (lo, hi) in [
            (0, rows),
            (0, rows / 2 + 1),
            (rows / 3, 2 * rows / 3 + 1),
            (rows - 2, rows + 3),
        ] {
            assert_eq!(
                shadow.index.candidates(lo, hi),
                rebuilt.candidates(lo, hi),
                "candidates over rows [{lo}, {hi}) diverged {at}"
            );
        }
    }

    #[test]
    fn shadows_catch_up_to_the_live_design_at_every_launch() {
        // the engine's schedule without its threads: at each batch boundary the home shadow
        // catches up and goes out with batch k+1, then batch k's shadow comes home and
        // batch k commits, recording its writes as the engine does
        let cfg = MglConfig::flex();
        for spec in [
            BenchmarkSpec::tiny("shadow-sparse", 21).with_density(0.45),
            BenchmarkSpec::tiny("shadow-dense", 22).with_density(0.85),
            BenchmarkSpec {
                num_cells: 300,
                ..tall_cell_spec("shadow-tall", 0.3, 23)
            },
        ] {
            let mut design = generate(&spec);
            design.pre_move();
            let segmap = SegmentMap::build(&design);
            let mut index = LegalizedIndex::build(&design);
            let order = ordering::processing_order(&design, &cfg);
            let mut away = Shadow {
                design: design.clone(),
                index: index.clone(),
            };
            let mut home = away.clone();
            let mut lag: [Vec<CellId>; 2] = Default::default();
            let mut op_stats = FopOpStats::default();
            let mut scratch = FopScratch::new();
            for (k, batch) in order.chunks(MIN_LOOKAHEAD).enumerate() {
                home.catch_up(&design, &lag);
                let at = format!("in {} before batch {k} commits", spec.name);
                assert_shadow_matches(&home, &design, &at);
                std::mem::swap(&mut home, &mut away);

                lag.rotate_left(1);
                lag[1].clear();
                for &id in batch {
                    let out = place_target_with(
                        &mut design,
                        &segmap,
                        &mut index,
                        &cfg,
                        id,
                        &mut op_stats,
                        &mut scratch,
                    );
                    note_written(&mut lag[1], id, out.plan.as_ref());
                }
            }
        }
    }
}
