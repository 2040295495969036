//! Regenerate the paper's **figures** (the data series; plotting is left to the reader):
//!
//! * Fig. 2(a) — multi-threaded CPU legalization time vs. thread count (saturation at ~8T),
//! * Fig. 2(b) — share of the DATE'22 GPU time spent in device synchronization,
//! * Fig. 2(c) — maximum region-level parallelism vs. the GPU's CUDA core count,
//! * Fig. 2(g) — share of FOP runtime spent in cell shifting (original algorithm),
//! * Fig. 6(g) — share of FOP runtime spent in SACS pre-sorting,
//! * Fig. 8   — normalized speedup of the FPGA-side FOP with each optimization step,
//! * Fig. 9   — SACS architecture ablation vs. the fraction of cells taller than three rows,
//! * Fig. 10  — task-assignment ablation (step (e) on CPU vs. on FPGA),
//! * Sec. 5.4 — FOP-PE scaling.
//!
//! Engine sweeps go through the unified `Legalizer` API (`EngineKind::build`); figures that
//! read an engine's own result (GPU sync share, FPGA timings, operator stats, work traces)
//! call that concrete engine's inherent `legalize`, which returns its result type.
//!
//! Run with `cargo run --release -p flex-bench --bin report_figures`.
//!
//! With `--fop-json` the binary instead runs the FOP-kernel perf comparison (the arena
//! scratch path vs. the allocating `fop::reference` baseline on the synthetic
//! crowded/sparse/tall regions). It alternates the two sides five times per case and writes
//! each side's median and min–max range, with the core count, to `BENCH_fop.json` (path
//! overridable via `FLEX_BENCH_FOP_OUT`), so the kernel's perf trajectory is tracked in
//! the repository.
//!
//! With `--metrics-json` it measures the observability layer itself: enabled-vs-disabled
//! span overhead as the median of alternating paired ratios of a parallel run (gated at
//! `FLEX_BENCH_OBS_MAX_OVERHEAD`%, default 3), byte-identical placements, and a Chrome
//! trace-event export proving speculation/commit overlap — written to `BENCH_obs.json`
//! and `BENCH_obs_trace.json` (`FLEX_BENCH_OBS_OUT` / `FLEX_BENCH_OBS_TRACE`).
//!
//! With `--recovery-json` it measures the crash-safety machinery of the ECO service:
//! journaled vs. journal-less `MoveCell` p50 (gated at
//! `FLEX_BENCH_RECOVERY_MAX_OVERHEAD`%, default 25) and recovery time as a function of
//! journal length — written to `BENCH_recovery.json` (`FLEX_BENCH_RECOVERY_OUT`).

use flex_baselines::cpu_gpu::CpuGpuLegalizer;
use flex_core::accelerator::FlexAccelerator;
use flex_core::config::{FlexConfig, SacsArchConfig, TaskAssignment};
use flex_core::sacs_arch::SacsPeModel;
use flex_core::session::EngineKind;
use flex_core::timing::SoftwareBreakdown;
use flex_mgl::api::LegalizeReport;
use flex_mgl::config::MglConfig;
use flex_mgl::legalize::MglLegalizer;
use flex_placement::benchmark::{generate, tall_cell_spec, BenchmarkSpec};
use flex_placement::iccad2017;
use flex_placement::metrics::tall_cell_fraction;

fn medium_spec(seed: u64) -> BenchmarkSpec {
    BenchmarkSpec::medium("figures", seed).scaled(flex_bench::scale_from_env() * 25.0)
}

/// Run one engine kind on a fresh design generated from `spec`.
fn run_kind(kind: EngineKind, cfg: &FlexConfig, spec: &BenchmarkSpec) -> LegalizeReport {
    let mut d = generate(spec);
    kind.build(cfg).legalize(&mut d)
}

fn fig2a() {
    println!("--- Fig. 2(a): multi-threaded CPU legalization time vs. threads ---");
    let spec = medium_spec(1);
    let mut base = None;
    for threads in [1usize, 2, 4, 8, 10] {
        let cfg = FlexConfig::flex().with_host_threads(threads);
        let report = run_kind(EngineKind::CpuMgl, &cfg, &spec);
        let t = report.seconds();
        if base.is_none() {
            base = Some(t);
        }
        println!(
            "  {:>2}T: {:>8.3} s   speedup {:>4.2}x   (paper: 1T=1x … 8T≈1.8x, saturating)",
            threads,
            t,
            base.unwrap() / t
        );
    }
}

fn fig2bc() {
    println!("--- Fig. 2(b)/(c): DATE'22 GPU synchronization share and usable parallelism ---");
    let spec = medium_spec(2);
    // the concrete engine, so the printed CUDA core count is the model that actually ran
    let legalizer = CpuGpuLegalizer::default();
    let mut d = generate(&spec);
    let res = legalizer.legalize(&mut d);
    println!(
        "  sync share of GPU time: {:.0}%   (paper: 31–40% on the superblue cases)",
        res.sync_fraction() * 100.0
    );
    let cells = d.num_movable();
    let avg_parallel =
        cells as f64 * (1.0 - res.tough_cells as f64 / cells as f64) / res.batches.max(1) as f64;
    println!(
        "  avg parallelizable regions per batch: {:.0}  vs  {} CUDA cores (GTX 1660 Ti)",
        avg_parallel, legalizer.gpu.cuda_cores
    );
    println!("  → adding cores cannot help once regions, not cores, are the limit (Fig. 2(c))");
}

fn fig2g_and_6g() {
    println!("--- Fig. 2(g) / Fig. 6(g): FOP operator breakdown ---");
    let spec = medium_spec(3);
    // original algorithm: cell shifting dominates
    let orig = MglLegalizer::new(MglConfig::original()).legalize(&mut generate(&spec));
    println!(
        "  original MGL: cell shifting = {:.0}% of FOP time (paper: >60%)",
        orig.op_stats.cell_shift_fraction() * 100.0
    );
    // SACS: pre-sorting overhead
    let sacs = MglLegalizer::new(MglConfig::flex()).legalize(&mut generate(&spec));
    println!(
        "  SACS:        pre-sorting  = {:.1}% of FOP time (paper: ≈10%)",
        sacs.op_stats.presort_fraction() * 100.0
    );
}

fn fig8() {
    println!("--- Fig. 8: normalized FPGA-side speedup per optimization step ---");
    let spec = medium_spec(4);
    let configs = [
        ("Normal-Pipeline", FlexConfig::normal_pipeline_baseline()),
        ("SACS", FlexConfig::with_sacs_only()),
        (
            "Multi-Granularity-Pipeline",
            FlexConfig::with_multi_granularity(),
        ),
        ("2Paral-FOP PEs", FlexConfig::flex()),
    ];
    let mut baseline = None;
    for (label, cfg) in configs {
        let out = FlexAccelerator::new(cfg).legalize(&mut generate(&spec));
        let t = out.timing.fpga_time.as_secs_f64();
        if baseline.is_none() {
            baseline = Some(t);
        }
        println!("  {:<28} {:>6.2}x", label, baseline.unwrap() / t);
    }
    println!("  (paper: 1x → 2-3x → 3.4-5x → ~5.8-8.5x cumulative)");
}

fn fig9() {
    println!("--- Fig. 9: SACS optimization steps vs. fraction of cells taller than 3 rows ---");
    println!(
        "  {:<22} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "case", "tall%", "SACS", "SACS-Ar", "ImpBW", "Paral"
    );
    let mut cases: Vec<(String, BenchmarkSpec)> = vec![
        (
            "des_perf_a_md1".into(),
            iccad2017::spec(iccad2017::case("des_perf_a_md1").unwrap(), 0.01, 9),
        ),
        (
            "pci_b_a_md2".into(),
            iccad2017::spec(iccad2017::case("pci_b_a_md2").unwrap(), 0.04, 9),
        ),
    ];
    for (i, tall) in [(0usize, 0.02f64), (1, 0.06), (2, 0.10)] {
        cases.push((
            format!("synthetic tall {:.0}%", tall * 100.0),
            tall_cell_spec(&format!("tall{i}"), tall, 9),
        ));
    }
    for (name, spec) in cases {
        let mut d = generate(&spec);
        let tallf = tall_cell_fraction(&d, 3);
        // collect the work trace once with the FLEX configuration
        let result = MglLegalizer::new(FlexConfig::flex().mgl_config()).legalize(&mut d);
        let trace = result.trace.unwrap_or_default();
        let steps = [
            (
                "SACS",
                SacsArchConfig {
                    pipelined: false,
                    improved_bandwidth: false,
                    parallel_phases: false,
                },
            ),
            (
                "SACS-Ar",
                SacsArchConfig {
                    pipelined: true,
                    improved_bandwidth: false,
                    parallel_phases: false,
                },
            ),
            (
                "SACS-ImpBW",
                SacsArchConfig {
                    pipelined: true,
                    improved_bandwidth: true,
                    parallel_phases: false,
                },
            ),
            ("SACS-Paral", SacsArchConfig::full()),
        ];
        let cycles: Vec<f64> = steps
            .iter()
            .map(|(_, arch)| {
                let pe = SacsPeModel::new(*arch);
                trace
                    .regions
                    .iter()
                    .map(|w| pe.region_cycles(w).count())
                    .sum::<u64>() as f64
            })
            .collect();
        println!(
            "  {:<22} {:>6.1}% {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x",
            name,
            tallf * 100.0,
            1.0,
            cycles[0] / cycles[1],
            cycles[0] / cycles[2],
            cycles[0] / cycles[3],
        );
    }
    println!("  (paper: ImpBW only helps when cells taller than 3 rows exist; Paral ≈ 2.5-3.2x)");
}

fn fig10() {
    println!("--- Fig. 10: task assignment — step (d) on FPGA vs. (d)+(e) on FPGA ---");
    let spec = medium_spec(6);
    let total = |cfg: FlexConfig| {
        FlexAccelerator::new(cfg)
            .legalize(&mut generate(&spec))
            .timing
            .total
    };
    let flex_total = total(FlexConfig::flex());
    let alt_total = total(FlexConfig::flex().with_assignment(TaskAssignment::FopAndUpdateOnFpga));
    let ratio = alt_total.as_secs_f64() / flex_total.as_secs_f64();
    println!(
        "  assign (d) on FPGA (FLEX):      {:>9.4} s",
        flex_total.as_secs_f64()
    );
    println!(
        "  assign (d) and (e) on FPGA:     {:>9.4} s",
        alt_total.as_secs_f64()
    );
    println!(
        "  FLEX assignment advantage:      {:>9.2}x   (paper: ≈1.2x average)",
        ratio
    );
}

fn scalability() {
    println!("--- Sec. 5.4: FOP-PE scaling ---");
    let spec = medium_spec(7);
    let res = MglLegalizer::new(FlexConfig::flex().mgl_config()).legalize(&mut generate(&spec));
    let sw = SoftwareBreakdown::from_result(&res);
    let trace = res.trace.unwrap_or_default();
    let mut base = None;
    for pes in [1u64, 2, 3, 4] {
        let cfg = FlexConfig::flex().with_pes(pes);
        let t = flex_core::timing::estimate(&cfg, &trace, &sw);
        let fpga = t.fpga_time.as_secs_f64();
        if base.is_none() {
            base = Some(fpga);
        }
        println!(
            "  {} PE(s): fpga time {:>9.4} s   speedup {:>4.2}x   (paper: 2 PEs ≈ 1.7x)",
            pes,
            fpga,
            base.unwrap() / fpga
        );
    }
}

/// One measured FOP-kernel case: reference vs. scratch wall time, one mean per repeat.
struct FopBenchRow {
    name: &'static str,
    cells: usize,
    insertion_points: u64,
    reference_ms: Vec<f64>,
    scratch_ms: Vec<f64>,
}

impl FopBenchRow {
    fn speedup(&self) -> f64 {
        median(&self.reference_ms) / median(&self.scratch_ms).max(1e-9)
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// First quartile, median and third quartile of a non-empty sample (linear interpolation).
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// `{"median": …, "min": …, "max": …}` of a non-empty sample.
fn spread_json(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{{\"median\": {:.4}, \"min\": {:.4}, \"max\": {:.4}}}",
        median(xs),
        min,
        max
    )
}

/// Mean wall-clock milliseconds of `f` over `iters` runs (after one warm-up).
fn time_ms(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Repeats per side of every `--fop-json` case; reference and scratch alternate, so a drift
/// in machine speed lands on both sides.
const FOP_REPEATS: usize = 5;

/// `--fop-json`: measure the FOP kernel (arena scratch vs. allocating reference) on the
/// synthetic regions and write `BENCH_fop.json`.
fn fop_json() {
    use flex_mgl::fop::{self, FopScratch};
    use flex_mgl::stats::FopOpStats;

    let cfg = flex_mgl::config::MglConfig::default();
    let mut rows = Vec::new();
    for case in flex_bench::fop_cases::all() {
        let mut scratch = FopScratch::new();
        let mut points = 0u64;
        // fewer iterations on the heavy crowded case keep the mode quick but stable
        let iters = if case.name == "crowded" { 12 } else { 40 };
        let mut reference_ms = Vec::with_capacity(FOP_REPEATS);
        let mut scratch_ms = Vec::with_capacity(FOP_REPEATS);
        for _ in 0..FOP_REPEATS {
            reference_ms.push(time_ms(iters, || {
                let mut stats = FopOpStats::default();
                let out = fop::reference::find_optimal_position(
                    &case.region,
                    &case.target,
                    &cfg,
                    &mut stats,
                );
                points = out.work.insertion_points;
            }));
            scratch_ms.push(time_ms(iters, || {
                let mut stats = FopOpStats::default();
                let out = fop::find_optimal_position_with(
                    &case.region,
                    &case.target,
                    &cfg,
                    &mut stats,
                    &mut scratch,
                );
                points = out.work.insertion_points;
            }));
        }
        rows.push(FopBenchRow {
            name: case.name,
            cells: case.region.cells.len(),
            insertion_points: points,
            reference_ms,
            scratch_ms,
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"fop_kernel\",\n  \"unit\": \"ms per find_optimal_position call\",\n  \"repeats\": {FOP_REPEATS},\n  \"available_parallelism\": {cores},\n  \"cases\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"cells\": {}, \"insertion_points\": {}, \"reference_ms\": {}, \"scratch_ms\": {}, \"speedup\": {:.2}}}{}\n",
            r.name,
            r.cells,
            r.insertion_points,
            spread_json(&r.reference_ms),
            spread_json(&r.scratch_ms),
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("FLEX_BENCH_FOP_OUT").unwrap_or_else(|_| "BENCH_fop.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_fop.json");
    println!(
        "--- FOP kernel: arena scratch vs. allocating reference (median of {FOP_REPEATS} alternating repeats, {cores} cores) ---"
    );
    for r in &rows {
        println!(
            "  {:<8} {:>4} cells {:>4} points   reference {:>9.3} ms   scratch {:>9.3} ms   {:>5.2}x",
            r.name,
            r.cells,
            r.insertion_points,
            median(&r.reference_ms),
            median(&r.scratch_ms),
            r.speedup()
        );
    }
    println!("  wrote {path}");
}

/// `--eco-json`: measure the resident incremental ECO engine's per-delta latency on the
/// acceptance-scale design and write `BENCH_eco.json`. The gate is the paper-motivated
/// service bound: a `MoveCell` ECO on a 50k-cell design must re-legalize in under 1 ms at
/// the median, and the design must stay legal.
fn eco_json() {
    use flex_eco::{DeltaKind, EcoDelta, EcoEngine};
    use flex_placement::benchmark::BenchmarkSpec;
    use flex_placement::cell::CellId;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    let cells: usize = std::env::var("FLEX_BENCH_ECO_CELLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    let deltas: usize = std::env::var("FLEX_BENCH_ECO_DELTAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let spec = BenchmarkSpec {
        num_cells: cells,
        ..BenchmarkSpec::medium("eco-latency", 42)
    }
    .with_density(0.45);

    println!("--- resident ECO engine: per-delta latency ({cells} cells, {deltas} deltas) ---");
    let design = generate(&spec);
    let sites = design.num_sites_x;
    let rows = design.num_rows;
    let start = std::time::Instant::now();
    let mut engine =
        EcoEngine::legalize_and_build(design, MglConfig::default()).expect("bootstrap legalize");
    let warmup_s = start.elapsed().as_secs_f64();
    println!("  bootstrap legalize + warm structures: {warmup_s:.2} s");

    // live-id tracking keeps every generated delta valid, so the latency samples measure
    // re-legalization work, not validation rejections
    let mut live: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mut lat: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..deltas {
        let gx = rng.random::<f64>() * sites as f64;
        let gy = rng.random::<f64>() * rows as f64;
        let at = rng.next_below(live.len() as u64) as usize;
        let roll = rng.next_below(100);
        let delta = if roll < 80 {
            EcoDelta::MoveCell {
                id: live[at],
                gx,
                gy,
            }
        } else if roll < 88 {
            EcoDelta::InsertCell {
                width: 2 + rng.next_below(6) as i64,
                height: 1 + rng.next_below(2) as i64,
                gx,
                gy,
            }
        } else if roll < 96 {
            EcoDelta::ResizeCell {
                id: live[at],
                width: 2 + rng.next_below(6) as i64,
                height: 1 + rng.next_below(2) as i64,
            }
        } else {
            EcoDelta::RemoveCell { id: live[at] }
        };
        let kind = delta.kind();
        let report = engine
            .apply(std::slice::from_ref(&delta))
            .expect("valid delta");
        lat[kind.index()].push(report.micros());
        match delta {
            EcoDelta::RemoveCell { .. } => {
                live.swap_remove(at);
            }
            EcoDelta::InsertCell { .. } => {
                let o = &report.outcomes[0];
                if o.placed != flex_eco::PlacedKind::Failed {
                    live.push(o.cell);
                }
            }
            _ => {}
        }
    }

    let pct = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    };
    let legal_after = engine.check_legal();
    let mut kinds_json = String::new();
    let mut move_p50 = 0.0f64;
    for kind in DeltaKind::ALL {
        let samples = &mut lat[kind.index()];
        samples.sort_by(|a, b| a.total_cmp(b));
        let (p50, p99) = (pct(samples, 0.50), pct(samples, 0.99));
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        if kind == DeltaKind::Move {
            move_p50 = p50;
        }
        println!(
            "  {:<7} n={:<6} p50={p50:>9.1} us   p99={p99:>9.1} us   mean={mean:>9.1} us",
            kind.name(),
            samples.len()
        );
        kinds_json.push_str(&format!(
            "    {{\"kind\": \"{}\", \"count\": {}, \"p50_us\": {p50:.2}, \"p99_us\": {p99:.2}, \"mean_us\": {mean:.2}}}{}\n",
            kind.name(),
            samples.len(),
            if kind == DeltaKind::Remove { "" } else { "," }
        ));
    }
    println!("  legal_after={legal_after}");

    assert!(legal_after, "design must stay legal after the delta stream");
    assert!(
        move_p50 < 1000.0,
        "MoveCell p50 must stay under 1 ms at {cells} cells (got {move_p50:.1} us)"
    );

    let json = format!(
        "{{\n  \"bench\": \"eco_latency\",\n  \"unit\": \"microseconds per delta\",\n  \"cells\": {cells},\n  \"deltas\": {deltas},\n  \"bootstrap_seconds\": {warmup_s:.3},\n  \"legal_after\": {legal_after},\n  \"kinds\": [\n{kinds_json}  ]\n}}\n"
    );
    let path = std::env::var("FLEX_BENCH_ECO_OUT").unwrap_or_else(|_| "BENCH_eco.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_eco.json");
    println!("  wrote {path}");
}

/// `--metrics-json`: measure the observability layer itself on a parallel legalization
/// and write `BENCH_obs.json`. Two figures are recorded and gated:
///
/// * **disabled overhead** — instrumentation compiled in but switched off must be free:
///   over `FLEX_BENCH_OBS_REPEATS` pairs (default 120) of an enabled and a disabled run of a
///   `FLEX_BENCH_OBS_CELLS`-cell parallel legalization (default 4,000), alternating which
///   runs first, the median of the per-pair enabled/disabled ratios must stay within
///   `FLEX_BENCH_OBS_MAX_OVERHEAD` percent (default 3%) of 1, and every pair's placements
///   must be byte-identical (spans observe, never perturb). A paired ratio cancels the
///   machine's speed drift that separate minima of each mode do not, and the median of
///   many small runs does not flip on one slow run;
/// * **pipeline overlap** — the Chrome trace exported from the last enabled run must show
///   speculation (`par.speculate_batch`, runner thread) overlapping commits
///   (`par.commit_batch`, coordinator thread) in wall-clock time, i.e. the spans prove
///   the deep-speculation pipeline actually pipelines. The trace must hold that run whole:
///   one speculate and one commit span per batch.
fn obs_json() {
    use flex_mgl::parallel::ParallelMglLegalizer;
    use flex_placement::benchmark::BenchmarkSpec;

    let cells: usize = std::env::var("FLEX_BENCH_OBS_CELLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000);
    let pairs: usize = std::env::var("FLEX_BENCH_OBS_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
        .max(1);
    let max_overhead_pct: f64 = std::env::var("FLEX_BENCH_OBS_MAX_OVERHEAD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let threads = std::env::var("FLEX_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(4, |n| n.max(1));
    let spec = BenchmarkSpec {
        num_cells: cells,
        ..BenchmarkSpec::medium("obs-overhead", 42)
    }
    .with_density(0.45);

    // The coordinator thread records per-cell `mgl.*` spans besides its `par.commit_batch`
    // spans, about one per cell: size the rings before the first enabled span so the last
    // enabled run fits whole up to 50k cells (32 bytes per slot, 4 MiB per ring).
    flex_obs::set_ring_capacity(1 << 17);

    println!(
        "--- observability overhead: enabled vs. disabled spans ({cells} cells, {threads}T) ---"
    );
    let run = |enabled: bool| -> (f64, u64, usize) {
        flex_obs::set_enabled(enabled);
        let engine = ParallelMglLegalizer::new(threads, MglConfig::default());
        let mut d = generate(&spec);
        let start = std::time::Instant::now();
        let out = engine.legalize(&mut d);
        let seconds = start.elapsed().as_secs_f64();
        assert!(out.result.legal, "run must be legal");
        (
            seconds,
            out.result.average_displacement.to_bits(),
            out.shards.batches,
        )
    };

    // Alternate which mode runs first, so a drift in machine speed lands on both modes, and
    // decide on the median of the per-pair ratios.
    let mut runs = Vec::with_capacity(pairs); // (disabled s, enabled s, enabled ran first)
    let mut batches = 0;
    for i in 0..pairs {
        let enabled_first = i % 2 == 1;
        let mut pair = [(0.0, 0u64); 2];
        for enabled in [enabled_first, !enabled_first] {
            if enabled && i + 1 == pairs {
                // the trace below covers the last enabled run alone
                flex_obs::clear_spans();
            }
            let (seconds, bits, run_batches) = run(enabled);
            pair[usize::from(enabled)] = (seconds, bits);
            if enabled {
                batches = run_batches;
            }
        }
        let [(d_s, d_bits), (e_s, e_bits)] = pair;
        assert_eq!(
            d_bits, e_bits,
            "instrumentation must not perturb the placement (pair {i}: displacement bits differ)"
        );
        println!(
            "  pair {i:>2} ({} first): disabled {d_s:>7.3} s   enabled {e_s:>7.3} s   ratio {:.4}",
            if enabled_first { "enabled" } else { "disabled" },
            e_s / d_s
        );
        runs.push((d_s, e_s, enabled_first));
    }
    flex_obs::set_enabled(false);
    let ratios: Vec<f64> = runs.iter().map(|&(d, e, _)| e / d).collect();
    let (q1, ratio, q3) = quartiles(&ratios);
    let overhead_pct = (ratio - 1.0) * 100.0;
    println!(
        "  median enabled/disabled ratio {ratio:.4} (quartiles {q1:.4}–{q3:.4}, {pairs} pairs)   overhead {overhead_pct:+.2}%  (gate: ≤ {max_overhead_pct}%)"
    );

    // the spans of the last enabled run are in the per-thread rings: export them as a
    // Chrome trace and verify the pipeline overlap they exist to show
    let events = flex_obs::collect_spans();
    let rings = flex_obs::thread_rings();
    let speculate: Vec<&flex_obs::SpanEvent> = events
        .iter()
        .filter(|e| e.name == "par.speculate_batch")
        .collect();
    let commit: Vec<&flex_obs::SpanEvent> = events
        .iter()
        .filter(|e| e.name == "par.commit_batch")
        .collect();
    let overlaps = speculate
        .iter()
        .filter(|s| {
            commit.iter().any(|c| {
                c.tid != s.tid
                    && s.start_ns < c.start_ns + c.dur_ns
                    && c.start_ns < s.start_ns + s.dur_ns
            })
        })
        .count();
    println!(
        "  trace: {} spans, {} speculate / {} commit spans of {batches} batches, {} speculate∥commit overlaps",
        events.len(),
        speculate.len(),
        commit.len(),
        overlaps
    );
    let trace_path = std::env::var("FLEX_BENCH_OBS_TRACE")
        .unwrap_or_else(|_| "BENCH_obs_trace.json".to_string());
    std::fs::write(
        &trace_path,
        flex_obs::export::chrome_trace_json_with_threads(&events, &rings),
    )
    .expect("write Chrome trace");
    println!("  wrote {trace_path} (open via chrome://tracing or ui.perfetto.dev)");

    assert!(
        speculate.len() == batches && commit.len() == batches,
        "the trace must hold one speculate and one commit span per batch of the last enabled run \
         ({} speculate, {} commit, {batches} batches): a span ring wrapped",
        speculate.len(),
        commit.len()
    );
    assert!(
        overlaps > 0,
        "pipelined run must show speculation overlapping a commit on another thread"
    );
    let pair_json: Vec<String> = runs
        .iter()
        .map(|&(d, e, enabled_first)| {
            format!(
                "    {{\"disabled_s\": {d:.4}, \"enabled_s\": {e:.4}, \"ratio\": {:.4}, \"first\": \"{}\"}}",
                e / d,
                if enabled_first { "enabled" } else { "disabled" }
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"unit\": \"seconds per parallel legalization\",\n  \"cells\": {cells},\n  \"threads\": {threads},\n  \"available_parallelism\": {},\n  \"verdict\": \"median of per-pair enabled/disabled ratios\",\n  \"ratio_median\": {ratio:.4},\n  \"ratio_q1\": {q1:.4},\n  \"ratio_q3\": {q3:.4},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"gate_pct\": {max_overhead_pct},\n  \"placements_bit_identical\": true,\n  \"pairs\": [\n{}\n  ],\n  \"spans\": {},\n  \"batches\": {batches},\n  \"speculate_batches\": {},\n  \"commit_batches\": {},\n  \"speculate_commit_overlaps\": {},\n  \"trace\": \"{trace_path}\"\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pair_json.join(",\n"),
        events.len(),
        speculate.len(),
        commit.len(),
        overlaps
    );
    let path = std::env::var("FLEX_BENCH_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_obs.json");
    println!("  wrote {path}");
    assert!(
        overhead_pct <= max_overhead_pct,
        "disabled-instrumentation overhead {overhead_pct:.2}% (median of {pairs} paired ratios) exceeds the {max_overhead_pct}% gate"
    );
}

/// `--recovery-json`: measure what durability costs and what recovery buys, and write
/// `BENCH_recovery.json`. Two figures are recorded and gated:
///
/// * **journal overhead** — the write-ahead journal (append + CRC + kernel write before
///   every apply) must cost at most `FLEX_BENCH_RECOVERY_MAX_OVERHEAD` percent (default
///   25%) over the journal-less `MoveCell` p50 on the same warm engine;
/// * **recovery time vs. journal length** — the directory is checkpointed at several
///   points of the delta stream and recovered from each copy; recovery must reproduce
///   a legal engine at the exact checkpoint sequence, and the (replayed batches,
///   recovery ms) curve goes in the report.
fn recovery_json() {
    use flex_eco::journal::{recover_engine, Journal, JournalConfig};
    use flex_eco::{EcoDelta, EcoEngine};
    use flex_placement::benchmark::BenchmarkSpec;
    use flex_placement::cell::CellId;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    let cells: usize = std::env::var("FLEX_BENCH_RECOVERY_CELLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let deltas: usize = std::env::var("FLEX_BENCH_RECOVERY_DELTAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let max_overhead_pct: f64 = std::env::var("FLEX_BENCH_RECOVERY_MAX_OVERHEAD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let spec = BenchmarkSpec {
        num_cells: cells,
        ..BenchmarkSpec::medium("eco-recovery", 42)
    }
    .with_density(0.45);

    println!("--- crash-safe ECO service: journal overhead + recovery time ({cells} cells, {deltas} moves per phase) ---");
    let design = generate(&spec);
    let sites = design.num_sites_x;
    let rows = design.num_rows;
    let start = std::time::Instant::now();
    let mut engine =
        EcoEngine::legalize_and_build(design, MglConfig::default()).expect("bootstrap legalize");
    println!(
        "  bootstrap legalize + warm structures: {:.2} s",
        start.elapsed().as_secs_f64()
    );
    let live: Vec<CellId> = engine
        .design()
        .cells
        .iter()
        .filter(|c| !c.fixed)
        .map(|c| c.id)
        .collect();

    let random_move = |rng: &mut StdRng| -> EcoDelta {
        EcoDelta::MoveCell {
            id: live[rng.next_below(live.len() as u64) as usize],
            gx: rng.random::<f64>() * sites as f64,
            gy: rng.random::<f64>() * rows as f64,
        }
    };
    let pct = |sorted: &[f64], p: f64| -> f64 {
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    };

    // phase 1 — journal-less baseline: the same warm engine, the same move mix
    let mut rng = StdRng::seed_from_u64(7);
    let mut plain: Vec<f64> = Vec::with_capacity(deltas);
    for _ in 0..deltas {
        let delta = random_move(&mut rng);
        let t = std::time::Instant::now();
        engine
            .apply(std::slice::from_ref(&delta))
            .expect("valid move");
        plain.push(t.elapsed().as_secs_f64() * 1e6);
    }
    plain.sort_by(|a, b| a.total_cmp(b));

    // phase 2 — journaled: append (CRC + kernel write, no fsync) before every apply,
    // checkpointing the directory for the recovery curve (a byte-copy of the directory
    // at batch k is exactly what a crash right after acking batch k leaves behind)
    let dir = std::env::temp_dir().join(format!("flex-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal_cfg = JournalConfig::new(&dir);
    journal_cfg.snapshot_every = 0; // one generation: the whole stream replays
    let mut journal =
        Journal::create(journal_cfg, engine.design(), engine.stats(), 0).expect("create journal");
    let checkpoints = [deltas / 4, deltas / 2, deltas];
    let mut copies: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let mut journaled: Vec<f64> = Vec::with_capacity(deltas);
    for i in 1..=deltas {
        let delta = random_move(&mut rng);
        let batch = std::slice::from_ref(&delta);
        let t = std::time::Instant::now();
        journal.append(batch).expect("journal append");
        engine.apply(batch).expect("valid move");
        journaled.push(t.elapsed().as_secs_f64() * 1e6);
        if checkpoints.contains(&i) {
            let copy = dir.with_extension(format!("ck{i}"));
            let _ = std::fs::remove_dir_all(&copy);
            std::fs::create_dir_all(&copy).expect("checkpoint dir");
            for entry in std::fs::read_dir(&dir).expect("read journal dir").flatten() {
                std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("checkpoint copy");
            }
            copies.push((i as u64, copy));
        }
    }
    journaled.sort_by(|a, b| a.total_cmp(b));

    let (plain_p50, plain_p99) = (pct(&plain, 0.50), pct(&plain, 0.99));
    let (j_p50, j_p99) = (pct(&journaled, 0.50), pct(&journaled, 0.99));
    let overhead_pct = (j_p50 - plain_p50) / plain_p50 * 100.0;
    println!("  move p50: journal-less {plain_p50:>8.1} us   journaled {j_p50:>8.1} us   overhead {overhead_pct:+.1}%  (gate: ≤ {max_overhead_pct}%)");
    println!(
        "  move p99: journal-less {plain_p99:>8.1} us   journaled {j_p99:>8.1} us   wal bytes {}",
        journal.wal_bytes()
    );

    // phase 3 — recovery time vs. journal length, from the checkpoint copies
    let mut points_json = String::new();
    for (idx, (batches, copy)) in copies.iter().enumerate() {
        let t = std::time::Instant::now();
        let (recovered, rec_journal, report) =
            recover_engine(JournalConfig::new(copy), MglConfig::default())
                .expect("recovery io")
                .expect("checkpoint must recover");
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            rec_journal.seq(),
            *batches,
            "recovery must reach the checkpoint"
        );
        assert_eq!(report.replayed, *batches, "every journaled batch replays");
        assert!(recovered.check_legal(), "recovered engine must be legal");
        println!(
            "  recover @ {batches:>6} batches: {recover_ms:>8.1} ms  ({:.0} batches/s)",
            *batches as f64 / (recover_ms / 1e3)
        );
        points_json.push_str(&format!(
            "    {{\"replayed_batches\": {batches}, \"recover_ms\": {recover_ms:.2}}}{}\n",
            if idx + 1 == copies.len() { "" } else { "," }
        ));
        let _ = std::fs::remove_dir_all(copy);
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        overhead_pct <= max_overhead_pct,
        "journal overhead {overhead_pct:.1}% exceeds the {max_overhead_pct}% p50 gate"
    );

    let json = format!(
        "{{\n  \"bench\": \"eco_recovery\",\n  \"unit\": \"microseconds per move / milliseconds per recovery\",\n  \"cells\": {cells},\n  \"deltas_per_phase\": {deltas},\n  \"journal_less_p50_us\": {plain_p50:.2},\n  \"journal_less_p99_us\": {plain_p99:.2},\n  \"journaled_p50_us\": {j_p50:.2},\n  \"journaled_p99_us\": {j_p99:.2},\n  \"overhead_pct\": {overhead_pct:.2},\n  \"gate_pct\": {max_overhead_pct},\n  \"wal_bytes\": {},\n  \"recovery\": [\n{points_json}  ]\n}}\n",
        journal.wal_bytes()
    );
    let path = std::env::var("FLEX_BENCH_RECOVERY_OUT")
        .unwrap_or_else(|_| "BENCH_recovery.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_recovery.json");
    println!("  wrote {path}");
}

fn main() {
    flex_obs::init_from_env();
    match std::env::args().nth(1).as_deref() {
        Some("--fop-json") => fop_json(),
        Some("--recovery-json") => recovery_json(),
        Some("--eco-json") => eco_json(),
        Some("--metrics-json") => obs_json(),
        Some(other) => {
            eprintln!(
                "report_figures: unknown argument {other}; modes are --fop-json, \
                 --recovery-json, --eco-json and --metrics-json, or none for the figures"
            );
            std::process::exit(2);
        }
        None => figures(),
    }
}

fn figures() {
    println!(
        "=== Figure reproductions (scale factor {}) ===\n",
        flex_bench::scale_from_env()
    );
    fig2a();
    println!();
    fig2bc();
    println!();
    fig2g_and_6g();
    println!();
    fig8();
    println!();
    fig9();
    println!();
    fig10();
    println!();
    scalability();
}
