//! Full-design legalization: the untraced serial and 2-thread runs, and the traced serial
//! loop that times each call into the legalizer's layers from outside.
//!
//! The traced loop repeats the per-cell step of `MglLegalizer::legalize` (the
//! expanding-window loop of `plan_place_target_with` followed by the apply) with a clock
//! around every public call it makes. It must reproduce the legalizer's placement bit for
//! bit; the run checks that on every traced run.

use crate::report::Report;
use crate::stats::Samples;
use flex_mgl::fop::{find_optimal_position_with, FopScratch, TargetSpec};
use flex_mgl::legalize::{
    apply_commit, find_fallback_position, plan_commit_with, plan_write_rects,
};
use flex_mgl::ordering::SlidingWindowOrderer;
use flex_mgl::region::{target_window, LegalizedIndex, LocalRegion};
use flex_mgl::{
    FopOpStats, LegalizeResult, MglConfig, MglLegalizer, OrderingStrategy, ParallelMglLegalizer,
    ShardStats,
};
use flex_placement::density::DensityMap;
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use flex_placement::metrics::displacement_stats;
use flex_placement::segment::SegmentMap;
use std::time::{Duration, Instant};

/// Threads of the parallel engine the benchmark measures.
pub const PAR_THREADS: usize = 2;

/// The first cell where two placements differ (position or legalized flag), if any.
pub fn placement_diff(a: &Design, b: &Design) -> Option<String> {
    if a.cells.len() != b.cells.len() {
        return Some(format!("{} vs {} cells", a.cells.len(), b.cells.len()));
    }
    a.cells
        .iter()
        .zip(&b.cells)
        .find(|(x, y)| (x.x, x.y, x.legalized) != (y.x, y.y, y.legalized))
        .map(|(x, y)| {
            format!(
                "cell {}: ({}, {}, {}) vs ({}, {}, {})",
                x.id, x.x, x.y, x.legalized, y.x, y.y, y.legalized
            )
        })
}

/// One serial legalization of a copy of `base`, timed from outside.
pub fn serial(base: &Design, cfg: &MglConfig) -> (Design, LegalizeResult, Duration) {
    let mut design = base.clone();
    let t = Instant::now();
    let result = MglLegalizer::new(cfg.clone()).legalize(&mut design);
    (design, result, t.elapsed())
}

/// Count a serial legalization's cells and check the `bulk.legal` gate: legal, with no
/// failed cell.
pub fn check_legalized(base: &Design, result: &LegalizeResult, report: &mut Report) {
    let failed = result.failed.len();
    report.attempted += base.num_movable() as u64;
    report.failed += failed as u64;
    report.gate(
        "bulk.legal",
        result.legal && failed == 0,
        format!("legal={} failed={failed}", result.legal),
    );
}

/// Time spent in each layer by one traced legalization, with its work counts.
#[derive(Debug, Default)]
pub struct LayerTrace {
    pub wall: Duration,
    /// `Design::pre_move`, `SegmentMap::build`, `LegalizedIndex::build`, `DensityMap::build`.
    pub build: Duration,
    /// `SlidingWindowOrderer::new` and every `next`.
    pub ordering: Duration,
    /// Window + `extract_indexed` + size/`can_host` checks, per call, first window only.
    pub extract_first_us: Samples,
    /// The same for expanded windows.
    pub extract_expand_us: Samples,
    pub region_cells: Samples,
    pub oversize_regions: u64,
    /// `find_optimal_position_with`, per call.
    pub fop_us: Samples,
    pub fop_hits: u64,
    pub points: u64,
    pub feasible_points: u64,
    pub breakpoints: u64,
    pub subcell_visits: u64,
    pub op_stats: FopOpStats,
    pub plan_commit: Duration,
    pub plan_calls: u64,
    pub plan_rejects: u64,
    /// `plan_write_rects` + `apply_commit` + `LegalizedIndex::insert`.
    pub apply: Duration,
    /// `find_fallback_position` (+ the write of its answer), per call.
    pub fallback_us: Samples,
    /// Time from a target leaving the orderer to its placement being applied.
    pub cell_us: Samples,
    /// `check_legality_with` + `displacement_stats`.
    pub verify: Duration,
    pub cells: u64,
    pub failed: u64,
    pub legal: bool,
    pub sam: f64,
}

impl LayerTrace {
    /// Sum of the layers' self times: everything the traced loop timed.
    pub fn self_time(&self) -> Duration {
        self.build
            + self.ordering
            + us(self.extract_first_us.sum())
            + us(self.extract_expand_us.sum())
            + us(self.fop_us.sum())
            + self.plan_commit
            + self.apply
            + us(self.fallback_us.sum())
            + self.verify
    }
}

fn us(v: f64) -> Duration {
    Duration::from_secs_f64(v / 1e6)
}

/// Legalize `design` in place the way `MglLegalizer::legalize` does, timing every call.
/// Supports the sliding-window ordering of the default configuration.
pub fn traced_legalize(design: &mut Design, cfg: &MglConfig) -> LayerTrace {
    assert_eq!(
        cfg.ordering,
        OrderingStrategy::SlidingWindowDensity,
        "the traced loop mirrors the default sliding-window ordering"
    );
    let mut tr = LayerTrace::default();
    let wall = Instant::now();

    let t = Instant::now();
    design.pre_move();
    let segmap = SegmentMap::build(design);
    let mut index = LegalizedIndex::build(design);
    let density = DensityMap::build(design, cfg.density_bin_sites, cfg.density_bin_rows);
    tr.build = t.elapsed();

    let t = Instant::now();
    let targets = design.movable_ids();
    let mut orderer = SlidingWindowOrderer::new(
        design,
        &targets,
        cfg.sliding_window,
        cfg.window_half_sites,
        cfg.window_half_rows,
    );
    tr.ordering += t.elapsed();

    let mut scratch = FopScratch::new();
    loop {
        let t = Instant::now();
        let next = orderer.next(design, &density);
        let picked = Instant::now();
        tr.ordering += picked - t;
        let Some(target) = next else { break };
        tr.cells += 1;
        if !place_traced(
            design,
            &segmap,
            &mut index,
            cfg,
            target,
            &mut scratch,
            &mut tr,
        ) {
            tr.failed += 1;
        }
        tr.cell_us.push_us(picked.elapsed());
    }

    let t = Instant::now();
    tr.legal = check_legality_with(design, true).is_legal();
    tr.sam = displacement_stats(design).average;
    tr.verify = t.elapsed();
    tr.wall = wall.elapsed();
    tr
}

/// One target: expanding windows of extract → FOP → commit planning, then the fallback
/// scan. Returns whether the cell was placed.
fn place_traced(
    design: &mut Design,
    segmap: &SegmentMap,
    index: &mut LegalizedIndex,
    cfg: &MglConfig,
    target: flex_placement::cell::CellId,
    scratch: &mut FopScratch,
    tr: &mut LayerTrace,
) -> bool {
    let c = design.cell(target);
    let spec = TargetSpec {
        width: c.width,
        height: c.height,
        gx: c.gx,
        gy: c.gy,
        parity: c.row_parity,
    };
    for expansion in 0..=cfg.max_window_expansions {
        let t = Instant::now();
        let window = target_window(
            design,
            target,
            cfg.window_half_sites << expansion,
            cfg.window_half_rows << expansion,
        );
        let region = LocalRegion::extract_indexed(design, segmap, target, window, index);
        let oversize = region.cells.len() > cfg.max_region_cells;
        let hostable = !oversize && region.can_host(spec.width, spec.height, spec.parity);
        let dt = t.elapsed();
        if expansion == 0 {
            tr.extract_first_us.push_us(dt);
        } else {
            tr.extract_expand_us.push_us(dt);
        }
        tr.region_cells.push(region.cells.len() as f64);
        if oversize {
            tr.oversize_regions += 1;
            break;
        }
        if !hostable {
            continue;
        }

        let t = Instant::now();
        let outcome = find_optimal_position_with(&region, &spec, cfg, &mut tr.op_stats, scratch);
        tr.fop_us.push_us(t.elapsed());
        tr.points += outcome.work.insertion_points;
        tr.feasible_points += outcome.work.feasible_points;
        tr.breakpoints += outcome.work.breakpoints;
        tr.subcell_visits += outcome.work.subcell_visits;
        let Some(best) = outcome.best else { continue };
        tr.fop_hits += 1;

        let t = Instant::now();
        let plan = plan_commit_with(&region, &best, &spec, cfg, scratch);
        tr.plan_commit += t.elapsed();
        tr.plan_calls += 1;
        match plan {
            Some(plan) => {
                let t = Instant::now();
                // the write rectangles are part of the program's per-cell work
                let mut writes = Vec::new();
                plan_write_rects(design, &plan, &mut writes);
                std::hint::black_box(&writes);
                apply_commit(design, &plan);
                index.insert(design, target);
                tr.apply += t.elapsed();
                return true;
            }
            None => tr.plan_rejects += 1,
        }
    }

    let t = Instant::now();
    let found = find_fallback_position(design, index, target, &spec);
    if let Some((x, row)) = found {
        std::hint::black_box(vec![Rect::new(x, row, x + spec.width, row + spec.height)]);
        let cell = design.cell_mut(target);
        cell.x = x;
        cell.y = row;
        cell.legalized = true;
        index.insert(design, target);
    }
    tr.fallback_us.push_us(t.elapsed());
    found.is_some()
}

/// Least share of the traced loop's wall time its timed calls must account for.
pub const MIN_SELF_COVERAGE: f64 = 0.95;

/// The traced phase: an untraced serial reference run, the traced loop on the same
/// input, a second untraced run, and one 2-thread run for the parallel engine's wall time
/// and schedule counters. Gates: the traced placement equals the reference bit for bit
/// (x, y, legalized and S_am), its timed calls cover at least [`MIN_SELF_COVERAGE`] of its
/// wall time, and the 2-thread placement equals the reference too.
pub fn traced_phase(base: &Design, cfg: &MglConfig, report: &mut Report) -> Design {
    let (reference, result, untraced_wall) = serial(base, cfg);
    check_legalized(base, &result, report);

    let mut traced = base.clone();
    let tr = traced_legalize(&mut traced, cfg);
    let diff = placement_diff(&reference, &traced);
    let sam_same = tr.sam.to_bits() == result.average_displacement.to_bits();
    report.gate(
        "bulk.traced_equals_legalizer",
        diff.is_none() && sam_same && tr.legal && tr.failed == result.failed.len() as u64,
        diff.unwrap_or_else(|| format!("S_am {} vs {}", tr.sam, result.average_displacement)),
    );
    let coverage = tr.self_time().as_secs_f64() / tr.wall.as_secs_f64();
    report.gate(
        "bulk.trace_coverage",
        coverage >= MIN_SELF_COVERAGE,
        format!("timed calls cover {coverage:.3} of the traced wall"),
    );

    // a second untraced run after the traced one, so the overhead estimate is not biased
    // by which run came first in the process
    let (_, _, untraced_after) = serial(base, cfg);
    let untraced_wall = (untraced_wall + untraced_after) / 2;

    let mut par = base.clone();
    let t = Instant::now();
    let par_result = ParallelMglLegalizer::new(PAR_THREADS, cfg.clone()).legalize(&mut par);
    let par_wall = t.elapsed();
    let diff = placement_diff(&reference, &par);
    report.gate(
        "bulk.par2_equals_serial",
        diff.is_none(),
        diff.unwrap_or_else(|| "identical".into()),
    );

    report.layer("legalize_par2_s", par_wall.as_secs_f64(), "s");
    publish_layers(&tr, &par_result.shards, untraced_wall, report);
    reference
}

fn publish_layers(tr: &LayerTrace, shards: &ShardStats, untraced: Duration, r: &mut Report) {
    let s = |d: Duration| d.as_secs_f64();
    let sum_s = |v: &Samples| v.sum() / 1e6;
    let cells = tr.cells.max(1) as f64;
    r.layer("placement.build_s", s(tr.build), "s");
    r.layer("placement.verify_s", s(tr.verify), "s");
    r.layer("mgl.ordering.next_s", s(tr.ordering), "s");

    r.layer(
        "mgl.region.extract_first_s",
        sum_s(&tr.extract_first_us),
        "s",
    );
    r.layer(
        "mgl.region.extract_first_calls",
        tr.extract_first_us.len() as f64,
        "count",
    );
    r.layer(
        "mgl.region.extract_first_p50_us",
        tr.extract_first_us.median(),
        "us",
    );
    r.layer(
        "mgl.region.extract_expand_s",
        sum_s(&tr.extract_expand_us),
        "s",
    );
    r.layer(
        "mgl.region.extract_expand_calls",
        tr.extract_expand_us.len() as f64,
        "count",
    );
    r.layer(
        "mgl.region.extract_expand_p99_us",
        tr.extract_expand_us.percentile(99.0),
        "us",
    );
    r.layer(
        "mgl.region.cells_per_region_mean",
        tr.region_cells.mean(),
        "count",
    );
    r.layer(
        "mgl.region.oversize_regions",
        tr.oversize_regions as f64,
        "count",
    );
    r.layer(
        "mgl.place.expansions_per_cell",
        tr.extract_expand_us.len() as f64 / cells,
        "count",
    );

    let fop_total_ns = tr.fop_us.sum() * 1e3;
    r.layer("mgl.fop.s", sum_s(&tr.fop_us), "s");
    r.layer("mgl.fop.calls", tr.fop_us.len() as f64, "count");
    r.layer("mgl.fop.p50_us", tr.fop_us.median(), "us");
    r.layer("mgl.fop.p99_us", tr.fop_us.percentile(99.0), "us");
    r.layer(
        "mgl.fop.hit_frac",
        tr.fop_hits as f64 / tr.fop_us.len().max(1) as f64,
        "frac",
    );
    r.layer("mgl.fop.points", tr.points as f64, "count");
    r.layer(
        "mgl.fop.feasible_points",
        tr.feasible_points as f64,
        "count",
    );
    r.layer("mgl.fop.breakpoints", tr.breakpoints as f64, "count");
    r.layer("mgl.fop.subcell_visits", tr.subcell_visits as f64, "count");
    let ops = &tr.op_stats;
    let named = ops.cell_shift_ns + ops.presort_ns + ops.fwd_traverse_ns + ops.bwd_traverse_ns;
    for (name, ns) in [
        ("mgl.fop.op.cell_shift_s", ops.cell_shift_ns),
        ("mgl.fop.op.presort_s", ops.presort_ns),
        ("mgl.fop.op.fwd_traverse_s", ops.fwd_traverse_ns),
        ("mgl.fop.op.bwd_traverse_s", ops.bwd_traverse_ns),
        ("mgl.fop.op.other_s", ops.total_ns() - named),
    ] {
        r.layer(name, ns as f64 / 1e9, "s");
    }
    r.layer(
        "mgl.fop.op_coverage",
        ops.total_ns() as f64 / fop_total_ns.max(1.0),
        "frac",
    );

    r.layer("mgl.legalize.plan_commit_s", s(tr.plan_commit), "s");
    r.layer(
        "mgl.legalize.plan_commit_reject_frac",
        tr.plan_rejects as f64 / tr.plan_calls.max(1) as f64,
        "frac",
    );
    r.layer("mgl.legalize.apply_s", s(tr.apply), "s");
    r.layer("mgl.legalize.fallback_s", sum_s(&tr.fallback_us), "s");
    r.layer(
        "mgl.legalize.fallback_calls",
        tr.fallback_us.len() as f64,
        "count",
    );
    r.layer(
        "mgl.legalize.fallback_p99_us",
        tr.fallback_us.percentile(99.0),
        "us",
    );
    r.layer(
        "mgl.legalize.fallback_frac",
        tr.fallback_us.len() as f64 / cells,
        "frac",
    );

    r.layer("mgl.place.cell_p50_us", tr.cell_us.median(), "us");
    r.layer("mgl.place.cell_p99_us", tr.cell_us.percentile(99.0), "us");
    r.layer("mgl.place.cell_max_us", tr.cell_us.max(), "us");

    r.layer(
        "mgl.parallel.speculative_frac",
        shards.speculative_fraction(),
        "frac",
    );
    r.layer(
        "mgl.parallel.cross_batch_invalidated",
        shards.cross_batch_invalidated as f64,
        "count",
    );
    r.layer(
        "mgl.parallel.dirty_recomputes",
        shards.dirty_recomputes as f64,
        "count",
    );
    r.layer(
        "mgl.parallel.serial_inline",
        shards.serial_inline as f64,
        "count",
    );
    r.layer("mgl.parallel.batches", shards.batches as f64, "count");

    r.layer(
        "trace.overhead_frac",
        tr.wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        "frac",
    );
    r.layer(
        "trace.self_coverage",
        tr.self_time().as_secs_f64() / tr.wall.as_secs_f64(),
        "frac",
    );
    // against separately timed runs, so it carries their run-to-run noise
    r.layer(
        "trace.untraced_coverage",
        tr.self_time().as_secs_f64() / untraced.as_secs_f64(),
        "frac",
    );
    r.meta("traced_wall_s", tr.wall.as_secs_f64());
    r.meta("untraced_wall_s", untraced.as_secs_f64());
}
