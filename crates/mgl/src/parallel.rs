//! The parallel region-sharded MGL engine, with epoch-pipelined batch speculation.
//!
//! The paper's CPU baseline (Fig. 2(a)) parallelizes MGL by batching target cells whose
//! legalization windows do not overlap and synchronizing after every batch — at the cost of
//! reordering cells and therefore changing the result. This module keeps the batching idea
//! but makes the engine *placement-identical to the serial legalizer*:
//!
//! 1. **Row sharding.** The die's rows are partitioned into disjoint horizontal *bands* (the
//!    region shards). Each target's base legalization window ([`target_window`] at expansion
//!    level 0) is assigned to the band that fully contains it; windows living in different
//!    bands provably cannot overlap. Band membership classifies the work: cells whose
//!    windows straddle a band boundary always take the serial path, everything else is a
//!    speculation candidate. (Correctness does not rest on the banding — the commit-time
//!    write-set check below catches every conflict, same-band or not — the bands bound the
//!    serial fraction and keep the shard structure explicit.)
//! 2. **Prefix batches with speculation.** Each round takes the next `lookahead` targets of
//!    the serial processing order — a *prefix*, never a reordering. Every non-straddler
//!    member is *speculated* on the rayon pool: region extraction, FOP (which is where the
//!    per-shard `shift_phase_*` work runs) and the pure [`plan_commit_with`] verification
//!    all execute against an epoch snapshot of the cell state (point 4).
//! 3. **In-order commit with per-write tracking.** Plans are applied strictly in the serial
//!    order. Every commit records one rectangle per design write it performed
//!    ([`plan_write_rects`] / [`PlaceOutcome::writes`]) — the target's committed extent and
//!    each moved localCell's swept span — rather than one collective bounding box, so a
//!    later member is invalidated only when an *individual* write intersects its window. A
//!    member whose window is hit by any write since its snapshot — and any member that was
//!    not speculated (straddler, conflict) or whose speculation found no expansion-0
//!    placement — is handled by the ordinary serial [`place_target_with`] at its slot,
//!    window expansions and whole-die fallback included.
//! 4. **Epoch-pipelined speculation.** Mutable cell state is captured once into an
//!    [`EpochCellStore`] — epoch-tagged copy-on-write columns shared between the commit
//!    thread and a speculation runner thread. Committing batch *k* records its writes into
//!    the store's open overlay and seals it as epoch *k+1*; launching a batch takes an O(1)
//!    [`StoreSnapshot`] pinned to the last sealed epoch instead of cloning the `Design` and
//!    its obstacle index. Batch *k+1* launches before batch *k* commits, so one batch
//!    speculates while the previous one commits; once batch *k* is sealed, the epochs no
//!    in-flight snapshot needs are promoted (folded) back into the shared base columns. A
//!    member of batch *k* is stale if a write of batch *k−1*, which committed after *k*'s
//!    snapshot ([`ShardStats::cross_batch_invalidated`]), or an earlier commit of batch
//!    *k* itself ([`ShardStats::dirty_recomputes`]) intersects its window — per write
//!    rect, so a speculation survives earlier non-overlapping commits.
//!
//! **Dynamic (sliding-window density) ordering.** The FLEX default configuration reorders
//! its queue by localRegion density as it goes, which previously forced this engine to
//! degrade to fully-serial execution. The reorder step, however, reads only the density map
//! built *before* the first commit and the positions of *queued* cells — and commits move
//! only already-legalized cells, never queued ones — so the dynamic order is commit-invariant
//! and can be resolved ahead: [`SlidingWindowOrderer::peek_prefix`] resolves the next
//! `lookahead` pops to form a speculation batch, and the commit loop still pops the *live*
//! orderer at every slot. Speculations are keyed by cell id, so even if a pop ever diverged
//! from the peeked prefix (it cannot while the density inputs stay commit-invariant — a
//! commit-reactive [`DensityMap::apply_move`] feed is what would break it), the engine
//! re-resolves from the live order and only the never-popped speculations are discarded
//! ([`ShardStats::order_invalidated`]). The peek steers *performance*; the placement comes
//! from the live order and the write-set checks alone.
//!
//! **Serial equivalence.** Because batches are prefixes of the live serial order and commits
//! happen in that order, when cell *i* reaches its commit slot every cell before it (and no
//! cell after it) has been committed — exactly the serial state. A speculative plan is
//! applied only if nothing written since its snapshot intersects the cell's window (with the
//! same one-site slack the obstacle filter uses), in which case the speculated region, FOP
//! result and plan coincide with what the serial legalizer would compute at that slot;
//! otherwise the cell is recomputed serially at its slot. By induction the final placement,
//! the displacement stats, the per-cell work trace and the legality verdict are identical to
//! [`MglLegalizer`] with the same configuration — static or dynamic ordering, at any thread
//! count and any batch size. Wall-clock fields (`runtime`, the `FopOpStats` nanosecond
//! counters) are measurements and do differ.

use crate::config::{MglConfig, OrderingStrategy};
use crate::fop::{self, FopScratch, TargetSpec};
use crate::legalize::{
    accumulate_work, apply_commit, place_target_with, plan_commit_with, plan_write_rects,
    CommitPlan, LegalizeResult, PlaceOutcome, PlacedBy,
};
use crate::ordering::{self, SlidingWindowOrderer};
use crate::region::{target_window, LegalizedIndex, LocalRegion};
use crate::stats::{FopOpStats, RegionWork, WorkTrace};
use flex_placement::cell::CellId;
use flex_placement::density::DensityMap;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use flex_placement::store::{CellState, Epoch, EpochCellStore, StoreSnapshot};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

#[cfg(doc)]
use crate::legalize::MglLegalizer;

/// Lower bound on the speculation batch size (targets taken off the queue front per round).
/// The batch size adapts to the worker count (four targets per worker) — staleness within a
/// batch grows quadratically with its length, so the engine uses the smallest prefix that
/// still keeps every worker busy. The placement is the serial one for *every* batch size
/// (see the module docs), so this is purely a throughput choice.
pub const MIN_LOOKAHEAD: usize = 8;

/// How many base-window heights one row band spans. Larger bands mean fewer straddlers (which
/// are always serial) at the cost of more same-band conflict checks during batch formation.
const BAND_WINDOW_MULTIPLE: i64 = 8;

/// Statistics about how the sharded schedule executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of row bands (region shards) the die was partitioned into.
    pub bands: usize,
    /// Rows per band.
    pub band_rows: i64,
    /// Targets whose base window straddled a band boundary (never speculated).
    pub straddlers: usize,
    /// Prefix batches executed.
    pub batches: usize,
    /// Targets speculated in parallel.
    pub speculated: usize,
    /// Targets whose speculative plan was committed as-is.
    pub committed_speculatively: usize,
    /// Targets handled by the serial path (straddlers, conflicts, failed or stale
    /// speculations).
    pub serial_inline: usize,
    /// Speculations discarded because an earlier commit **of the same batch** wrote into
    /// their window.
    pub dirty_recomputes: usize,
    /// Speculations discarded because a commit of the **previous batch**, which committed
    /// after this batch's snapshot epoch was sealed, wrote into their window. Always zero
    /// for the first batch.
    pub cross_batch_invalidated: usize,
    /// Speculations discarded because the realized dynamic order diverged from the peeked
    /// prefix, so the speculated cell never reached a commit slot in its batch. Zero while
    /// the sliding-window density inputs stay commit-invariant (which the current engines
    /// guarantee — see the module docs); the counter keeps the re-resolution path honest.
    pub order_invalidated: usize,
}

impl ShardStats {
    /// Mirror every counter into `registry` as `par_shard_*` series. The struct's own
    /// public shape is unchanged — this is the bridge onto the shared observability
    /// registry, called once per run.
    pub fn publish_to(&self, registry: &flex_obs::Registry) {
        for (name, v) in [
            ("par_shard_bands", self.bands as u64),
            ("par_shard_band_rows", self.band_rows.max(0) as u64),
            ("par_shard_straddlers", self.straddlers as u64),
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
            ("par_shard_order_invalidated", self.order_invalidated as u64),
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

/// The parallel region-sharded MGL legalizer.
#[derive(Debug, Clone)]
pub struct ParallelMglLegalizer {
    threads: usize,
    config: MglConfig,
}

/// Per-target scheduling metadata for one speculation batch.
struct TargetMeta {
    id: CellId,
    window: Rect,
    straddler: bool,
}

/// What one speculative evaluation produced.
struct Speculation {
    work: RegionWork,
    stats: FopOpStats,
    plan: Option<CommitPlan>,
}

/// The serial processing order, either fully materialized (static strategies) or resolved
/// incrementally from the live sliding-window orderer (the FLEX dynamic strategy).
enum OrderSource {
    Static {
        order: Vec<CellId>,
        next: usize,
    },
    Dynamic {
        orderer: Box<SlidingWindowOrderer>,
        density: DensityMap,
    },
}

impl OrderSource {
    fn new(design: &Design, cfg: &MglConfig, targets: &[CellId]) -> Self {
        match cfg.ordering {
            OrderingStrategy::Natural => OrderSource::Static {
                order: ordering::natural_order(targets),
                next: 0,
            },
            OrderingStrategy::SizeDescending => OrderSource::Static {
                order: ordering::size_descending_order(design, targets),
                next: 0,
            },
            OrderingStrategy::SlidingWindowDensity => OrderSource::Dynamic {
                // the same map the serial legalizer builds at the same point of the flow;
                // it is never mutated afterwards, which is what makes peeks exact
                density: DensityMap::build(design, cfg.density_bin_sites, cfg.density_bin_rows),
                orderer: Box::new(SlidingWindowOrderer::new(
                    design,
                    targets,
                    cfg.sliding_window,
                    cfg.window_half_sites,
                    cfg.window_half_rows,
                )),
            },
        }
    }

    /// Targets not yet popped.
    fn remaining(&self) -> usize {
        match self {
            OrderSource::Static { order, next } => order.len() - next,
            OrderSource::Dynamic { orderer, .. } => orderer.len(),
        }
    }

    /// Resolve (without consuming) the ids of order slots `[skip, skip + count)` ahead of
    /// the current position. Dynamic resolution advances the orderer's incremental peek
    /// cursor, so repeated peeks across batches cost O(new slots), not O(prefix).
    fn peek(&mut self, design: &Design, skip: usize, count: usize) -> Vec<CellId> {
        match self {
            OrderSource::Static { order, next } => {
                let lo = (*next + skip).min(order.len());
                let hi = (lo + count).min(order.len());
                order[lo..hi].to_vec()
            }
            OrderSource::Dynamic { orderer, density } => {
                let mut resolved = orderer.peek_prefix(design, density, skip + count);
                if resolved.len() <= skip {
                    return Vec::new();
                }
                resolved.split_off(skip)
            }
        }
    }

    /// Pop the next target of the live serial order.
    fn pop(&mut self, design: &Design) -> Option<CellId> {
        match self {
            OrderSource::Static { order, next } => {
                let id = order.get(*next).copied();
                if id.is_some() {
                    *next += 1;
                }
                id
            }
            OrderSource::Dynamic { orderer, density } => orderer.next(design, density),
        }
    }
}

/// One speculation batch handed to the pipeline's runner thread: the batch index, its
/// non-straddler scheduling metadata and the epoch snapshot to speculate against.
struct LaunchMsg {
    batch: usize,
    metas: Vec<TargetMeta>,
    snapshot: StoreSnapshot,
}

/// One speculated batch coming back from the runner thread, in launch (= batch) order.
struct SpecBatch {
    batch: usize,
    pending: HashMap<CellId, Speculation>,
    speculated: usize,
}

/// Everything the strictly-serial commit phase accumulates across batches.
struct CommitAccum {
    shards: ShardStats,
    op_stats: FopOpStats,
    trace: Option<WorkTrace>,
    prev_window: Option<Rect>,
    placed_in_region: usize,
    fallback_placed: usize,
    failed: Vec<CellId>,
}

impl CommitAccum {
    fn record(&mut self, mut work: RegionWork, window: Rect, placed_in_region: bool) {
        if let Some(trace) = self.trace.as_mut() {
            work.placed_in_region = placed_in_region;
            // a region can be preloaded while the previous one is processed only if the two
            // windows do not overlap (Sec. 3.1.2)
            if let (Some(prev), Some(entry)) = (self.prev_window, trace.regions.last_mut()) {
                entry.next_region_overlaps = prev.overlaps(&window);
            }
            trace.regions.push(work);
        }
        self.prev_window = Some(window);
    }
}

impl ParallelMglLegalizer {
    /// Create an engine with `threads` workers and the given MGL configuration.
    pub fn new(threads: usize, config: MglConfig) -> Self {
        Self {
            threads: threads.max(1),
            config,
        }
    }

    /// Access the configuration.
    pub fn config(&self) -> &MglConfig {
        &self.config
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Legalize every movable cell of the design in place.
    pub fn legalize(&self, design: &mut Design) -> ParallelLegalizeResult {
        let start = Instant::now();
        let cfg = &self.config;

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("failed to build worker pool");

        // step (a): input & pre-move — identical to the serial flow
        let build_span = flex_obs::span!("par.build_structures");
        design.pre_move();
        let segmap = SegmentMap::build(design);
        let mut index = LegalizedIndex::build(design);
        drop(build_span);

        // step (b): the serial processing order this engine preserves — materialized for the
        // static strategies, resolved incrementally (peek + live pop) for the dynamic one
        let targets = design.movable_ids();
        let mut order = OrderSource::new(design, cfg, &targets);

        // row shards: band height is a fixed multiple of the base window height, so the shard
        // layout (and the schedule) is independent of the thread count
        let max_height = design
            .cells
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| c.height)
            .max()
            .unwrap_or(1);
        let window_rows = 2 * cfg.window_half_rows + max_height;
        let band_rows = (window_rows * BAND_WINDOW_MULTIPLE).max(1);
        let bands = ((design.num_rows.max(1) + band_rows - 1) / band_rows) as usize;
        let straddles = |window: &Rect| {
            let band_lo = (window.y_lo.max(0) / band_rows) as usize;
            let band_hi = ((window.y_hi - 1).max(0) / band_rows) as usize;
            band_lo != band_hi
        };

        let mut acc = CommitAccum {
            shards: ShardStats {
                bands,
                band_rows,
                straddlers: targets
                    .iter()
                    .filter(|&&id| {
                        straddles(&target_window(
                            design,
                            id,
                            cfg.window_half_sites,
                            cfg.window_half_rows,
                        ))
                    })
                    .count(),
                ..ShardStats::default()
            },
            op_stats: FopOpStats::default(),
            trace: cfg.collect_trace.then(WorkTrace::default),
            prev_window: None,
            placed_in_region: 0,
            fallback_placed: 0,
            failed: Vec::new(),
        };

        let build_metas = |design: &Design, ids: &[CellId]| -> Vec<TargetMeta> {
            ids.iter()
                .map(|&id| {
                    let window =
                        target_window(design, id, cfg.window_half_sites, cfg.window_half_rows);
                    TargetMeta {
                        id,
                        window,
                        straddler: straddles(&window),
                    }
                })
                .collect()
        };

        // the commit thread's arena; each worker gets its own via the thread-local in
        // `speculate`, so no scratch state is ever shared across threads
        let mut scratch = FopScratch::new();

        let lookahead = (4 * self.threads).max(MIN_LOOKAHEAD);
        let total = order.remaining();
        let num_batches = total.div_ceil(lookahead);
        let batch_count = |b: usize| lookahead.min(total - b * lookahead);

        // the shared epoch-tagged state both threads agree on: the commit thread records
        // every write and seals one epoch per batch, launches pin snapshots
        let store = EpochCellStore::capture(design);

        let (pool_ref, segmap_ref) = (&pool, &segmap);
        std::thread::scope(|s| {
            let (launch_tx, launch_rx) = mpsc::channel::<LaunchMsg>();
            let (result_tx, result_rx) = mpsc::channel::<SpecBatch>();
            // the runner drains launches FIFO, so results arrive in batch order; it exits
            // when the launch sender is dropped (normal exit and unwind alike)
            std::thread::Builder::new()
                .name("flex-spec-runner".into())
                .spawn_scoped(s, move || {
                    while let Ok(msg) = launch_rx.recv() {
                        let spec_span = flex_obs::span!("par.speculate_batch");
                        let (pending, speculated) =
                            speculate_batch(pool_ref, msg.metas, &msg.snapshot, segmap_ref, cfg);
                        drop(spec_span);
                        let out = SpecBatch {
                            batch: msg.batch,
                            pending,
                            speculated,
                        };
                        if result_tx.send(out).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn speculation runner");

            let launch = |b: usize, skip: usize, order: &mut OrderSource, design: &Design| {
                let ids = order.peek(design, skip, batch_count(b));
                let metas = build_metas(design, &ids);
                let msg = LaunchMsg {
                    batch: b,
                    metas,
                    snapshot: store.snapshot(),
                };
                // a send only fails if the runner died; the recv below surfaces that
                let _ = launch_tx.send(msg);
            };

            if num_batches > 0 {
                launch(0, 0, &mut order, design);
            }
            // batch k's snapshot holds every earlier commit except batch k−1's, so its
            // staleness guard checks the previous batch's write rects alone
            let mut prev_writes: Vec<Rect> = Vec::new();
            for k in 0..num_batches {
                // batch k+1 launches at the current sealed epoch k, one whole batch ahead of
                // the live order, and speculates while batch k commits
                if k + 1 < num_batches {
                    launch(k + 1, lookahead, &mut order, design);
                }
                let spec = result_rx.recv().expect("speculation runner thread died");
                debug_assert_eq!(spec.batch, k, "runner must return batches in order");
                acc.shards.batches += 1;
                acc.shards.speculated += spec.speculated;

                let count = batch_count(k);
                let peeked = order.peek(design, 0, count);
                let mut pending = spec.pending;
                let commit_span = flex_obs::span!("par.commit_batch");
                prev_writes = commit_batch(
                    design,
                    &segmap,
                    &mut index,
                    &mut order,
                    cfg,
                    count,
                    &peeked,
                    &mut pending,
                    &prev_writes,
                    &mut scratch,
                    &mut acc,
                    &store,
                );
                drop(commit_span);
                store.seal_epoch();
                // fold retired epochs into the base columns: the oldest snapshot still in
                // flight is batch k+1's, pinned to epoch k
                store.promote_through(k as Epoch);
            }
            drop(launch_tx);
        });

        // step (e) epilogue: verify — identical to the serial flow
        let report = check_legality_with(design, true);
        let disp = displacement_stats(design);
        let result = LegalizeResult {
            legal: report.is_legal(),
            placed_in_region: acc.placed_in_region,
            fallback_placed: acc.fallback_placed,
            failed: acc.failed,
            runtime: start.elapsed(),
            average_displacement: disp.average,
            max_displacement: disp.max,
            op_stats: acc.op_stats,
            trace: acc.trace,
        };
        acc.shards.publish_to(flex_obs::global());
        result.op_stats.publish_to(flex_obs::global());
        if let Some(trace) = &result.trace {
            trace.publish_to(flex_obs::global());
        }
        ParallelLegalizeResult {
            result,
            shards: acc.shards,
        }
    }
}

/// Commit one batch strictly in the live serial order: pop each slot from the orderer, apply
/// the member's speculative plan if its window is clean since its snapshot, otherwise run the
/// full serial placement at the slot. Every committed state is recorded into `store` so
/// later epoch snapshots see it. Returns the batch's write rects.
#[allow(clippy::too_many_arguments)]
fn commit_batch(
    design: &mut Design,
    segmap: &SegmentMap,
    index: &mut LegalizedIndex,
    order: &mut OrderSource,
    cfg: &MglConfig,
    count: usize,
    peeked: &[CellId],
    pending: &mut HashMap<CellId, Speculation>,
    writes_prev: &[Rect],
    scratch: &mut FopScratch,
    acc: &mut CommitAccum,
    store: &EpochCellStore,
) -> Vec<Rect> {
    let mut writes_cur: Vec<Rect> = Vec::new();
    for slot in 0..count {
        let id = order
            .pop(design)
            .expect("batch size is bounded by the remaining targets");
        debug_assert_eq!(
            peeked.get(slot),
            Some(&id),
            "the dynamic order is commit-invariant, so the live pop must equal the peek"
        );
        let window = target_window(design, id, cfg.window_half_sites, cfg.window_half_rows);
        // same one-site x slack as the obstacle filter in LocalRegion::extract
        let guard = window.expanded(1, 0);
        let stale_prev = writes_prev.iter().any(|w| w.overlaps(&guard));
        let stale_cur = writes_cur.iter().any(|w| w.overlaps(&guard));
        let speculation = pending.remove(&id);
        match speculation {
            Some(speculation) if speculation.plan.is_some() && !stale_prev && !stale_cur => {
                let plan = speculation.plan.expect("guard checked plan");
                plan_write_rects(design, &plan, &mut writes_cur);
                apply_commit(design, &plan);
                index.insert(design, id);
                record_plan(store, design, &plan);
                acc.op_stats.merge(&speculation.stats);
                acc.placed_in_region += 1;
                acc.shards.committed_speculatively += 1;
                acc.record(speculation.work, window, true);
            }
            speculation => {
                if (stale_prev || stale_cur) && speculation.is_some() {
                    if stale_prev {
                        acc.shards.cross_batch_invalidated += 1;
                    } else {
                        acc.shards.dirty_recomputes += 1;
                    }
                }
                let out =
                    place_target_with(design, segmap, index, cfg, id, &mut acc.op_stats, scratch);
                acc.shards.serial_inline += 1;
                writes_cur.extend(out.writes.iter().copied());
                match out.placed {
                    PlacedBy::Region => record_plan(
                        store,
                        design,
                        out.plan
                            .as_ref()
                            .expect("region placements carry their plan"),
                    ),
                    PlacedBy::Fallback => store.record(id, CellState::of(design.cell(id))),
                    PlacedBy::None => {}
                }
                tally(
                    &out,
                    &mut acc.placed_in_region,
                    &mut acc.fallback_placed,
                    &mut acc.failed,
                    id,
                );
                acc.record(out.work, out.window, out.placed == PlacedBy::Region);
            }
        }
    }
    // speculations whose cell never reached a commit slot: only possible if the realized
    // dynamic order diverged from the peeked prefix (see the module docs)
    acc.shards.order_invalidated += pending.len();
    pending.clear();
    writes_cur
}

/// Record one committed plan's final cell states into the epoch store: every moved localCell
/// plus the target, read back from the design *after* [`apply_commit`].
fn record_plan(store: &EpochCellStore, design: &Design, plan: &CommitPlan) {
    for &(id, _) in &plan.moves {
        store.record(id, CellState::of(design.cell(id)));
    }
    store.record(plan.target, CellState::of(design.cell(plan.target)));
}

/// Speculate one batch on the worker pool against an epoch-pinned [`StoreSnapshot`] (the
/// commit thread may be mutating the live design concurrently). Straddlers are skipped —
/// they always take the serial path at their commit slot. Returns the id-keyed
/// speculations and how many ran.
fn speculate_batch(
    pool: &rayon::ThreadPool,
    metas: Vec<TargetMeta>,
    snapshot: &StoreSnapshot,
    segmap: &SegmentMap,
    cfg: &MglConfig,
) -> (HashMap<CellId, Speculation>, usize) {
    let jobs: Vec<TargetMeta> = metas.into_iter().filter(|m| !m.straddler).collect();
    let specs: Vec<(CellId, Speculation)> = pool.install(|| {
        jobs.par_iter()
            .map(|meta| (meta.id, speculate(snapshot, segmap, cfg, meta)))
            .collect()
    });
    let n = specs.len();
    (specs.into_iter().collect(), n)
}

/// Evaluate one target speculatively at expansion level 0 against an epoch snapshot. Runs on
/// a worker thread: the FOP arena comes from that worker's thread-local [`FopScratch`], so
/// buffers are reused across every speculation a worker performs.
fn speculate(
    snapshot: &StoreSnapshot,
    segmap: &SegmentMap,
    cfg: &MglConfig,
    meta: &TargetMeta,
) -> Speculation {
    let c = snapshot.cell(meta.id);
    let spec = TargetSpec {
        width: c.width,
        height: c.height,
        gx: c.gx,
        gy: c.gy,
        parity: c.row_parity,
    };
    let mut stats = FopOpStats::default();
    let mut work = RegionWork {
        target: meta.id,
        target_width: spec.width,
        target_height: spec.height,
        ..RegionWork::default()
    };
    let region = LocalRegion::extract_snapshot(snapshot, segmap, meta.id, meta.window);
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

/// Book a serial placement outcome into the run counters.
fn tally(
    out: &PlaceOutcome,
    placed_in_region: &mut usize,
    fallback_placed: &mut usize,
    failed: &mut Vec<CellId>,
    id: CellId,
) {
    match out.placed {
        PlacedBy::Region => *placed_in_region += 1,
        PlacedBy::Fallback => *fallback_placed += 1,
        PlacedBy::None => failed.push(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MglConfig;
    use crate::legalize::MglLegalizer;
    use flex_placement::benchmark::{generate, BenchmarkSpec};

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
        assert!(out.shards.bands >= 1);
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
        // it now speculates through the peeked prefix and must still match the serial
        // engine cell for cell
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
        assert_eq!(
            par.shards.order_invalidated, 0,
            "the dynamic order is commit-invariant, so no peeked speculation may be orphaned"
        );
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
}
