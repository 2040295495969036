//! The benchmark of the MGL legalizer and the ECO service.
//!
//! A run repeats one round until `--seconds` have passed (at least [`MIN_ROUNDS`] times).
//! A round is what a user does with one design: generate it, legalize it with serial
//! `MglLegalizer::legalize`, then serve the legalized design over a Unix socket (journal on,
//! default supervision) for one episode of [`eco::EPISODE_DELTAS`] single-delta applies
//! from a closed-loop writer, beside an open-loop `stats` reader. Every round of a run does
//! the same work on the same input, so rounds differ only by the machine's speed while they
//! ran. The legalized designs of all rounds must be identical, and every served engine must
//! equal an in-process replay of the same deltas.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced run (`--trace 1`)
//! first drives the legalizer cell by cell, timing each call, then makes the same rounds and
//! replays the deltas delta by delta, and reports the per-layer metrics. `README.md` next to
//! this crate describes the workloads.

pub mod bulk;
pub mod eco;
pub mod report;
pub mod stats;

use flex_eco::EcoEngine;
use flex_mgl::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::layout::Design;
use flex_placement::metrics::displacement_stats;
use report::Report;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A named workload: the design every round generates, legalizes and serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,200 clustered cells at density 0.45: many cells need window doublings.
    BulkClustered,
    /// 5,000 wider cells at density 0.30 on a squarer die: FOP-bound to legalize.
    EcoStream,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BulkClustered, Workload::EcoStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkClustered => "bulk-clustered",
            Workload::EcoStream => "eco-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator spec of the workload's skeleton, with `cells` movable cells (the
    /// workload's own size when `None`).
    pub fn spec(self, cells: Option<usize>) -> BenchmarkSpec {
        let base = BenchmarkSpec::medium(self.name(), SKELETON_SEED).with_density(0.45);
        let spec = match self {
            Workload::BulkClustered => BenchmarkSpec {
                num_cells: 1200,
                ..base
            },
            Workload::EcoStream => BenchmarkSpec {
                num_cells: 5000,
                min_width: 4,
                max_width: 16,
                density: 0.30,
                aspect: 1.5,
                ..base
            },
        };
        BenchmarkSpec {
            num_cells: cells.unwrap_or(spec.num_cells),
            ..spec
        }
    }

    fn is_bulk(self) -> bool {
        self != Workload::EcoStream
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Override of the workload's cell count (the self-test uses tiny designs).
    pub cells: Option<usize>,
    /// Directory for the journal and the socket; created, and removed afterwards.
    pub work_dir: PathBuf,
}

/// Fewest rounds a run makes, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// The skeleton of every workload's design (die, macros, cell clusters) comes from this
/// generator seed.
pub const SKELETON_SEED: u64 = 1;

/// Share of bulk-clustered's movable cells whose desired x the seed moves.
pub const JITTER_FRACTION: f64 = 0.01;

/// Largest seeded shift of a moved cell's desired x, in sites.
pub const JITTER_SITES: f64 = 0.05;

/// The design of a workload for `seed`. bulk-clustered's is the skeleton with the desired
/// x of a seeded [`JITTER_FRACTION`] of its cells moved by up to [`JITTER_SITES`]: a seed
/// changes the legalizer's input, while the clusters, and the cost of legalizing them, stay
/// put. eco-stream's design is the skeleton itself; its seed drives the delta stream.
pub fn make_design(w: Workload, seed: u64, cells: Option<usize>) -> Design {
    let mut design = generate(&w.spec(cells));
    if !w.is_bulk() {
        return design;
    }
    let mut rng = stats::Rng::new(seed);
    let sites = design.num_sites_x as f64;
    for c in design.cells.iter_mut().filter(|c| !c.fixed) {
        let moved = rng.unit() < JITTER_FRACTION;
        let dx = JITTER_SITES * (2.0 * rng.unit() - 1.0);
        if moved {
            c.gx = (c.gx + dx).clamp(0.0, sites - c.width as f64);
        }
    }
    design
}

/// Run one workload and collect every metric, gate and count.
pub fn run(p: &Params) -> std::io::Result<Report> {
    let result = run_in(p);
    let _ = std::fs::remove_dir_all(&p.work_dir);
    if let Some(parent) = p.work_dir.parent() {
        // only succeeds once no other run is using it
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn engine(design: Design, cfg: &MglConfig) -> std::io::Result<EcoEngine> {
    EcoEngine::new(design, cfg.clone()).map_err(|e| std::io::Error::other(e.to_string()))
}

fn run_in(p: &Params) -> std::io::Result<Report> {
    let mut r = Report::default();
    let cfg = MglConfig::default();
    let bulk = p.workload.is_bulk();
    let design = make_design(p.workload, p.seed, p.cells);
    record_meta(&mut r, p, &design);
    if p.trace {
        bulk::traced_phase(&design, &cfg, &mut r);
    }

    // the rounds; set-up is generating the design, and for eco-stream also the serial
    // legalization, `EcoEngine::new`, the journal and the server up to its first `info`
    let (mut setup_s, mut legalize_s) = (Samples::default(), Samples::default());
    let mut episodes = Vec::new();
    let mut legalized = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(p.seconds);
    while episodes.len() < MIN_ROUNDS || start.elapsed() < budget {
        let t = Instant::now();
        let design = make_design(p.workload, p.seed, p.cells);
        let generated = t.elapsed();
        let (round_legalized, result, legalize) = bulk::serial(&design, &cfg);
        bulk::check_legalized(&design, &result, &mut r);
        legalize_s.push(legalize.as_secs_f64());
        let first = legalized.get_or_insert_with(|| round_legalized.clone());
        let diff = bulk::placement_diff(first, &round_legalized);
        r.gate(
            "bulk.rounds_identical",
            diff.is_none(),
            diff.unwrap_or_else(|| "identical".into()),
        );

        let t = Instant::now();
        let dir = p.work_dir.join(format!("round{}", episodes.len()));
        let served = eco::serve(engine(round_legalized, &cfg)?, &dir)?;
        let bootstrap = legalize + t.elapsed();
        let setup = if bulk {
            generated
        } else {
            generated + bootstrap
        };
        setup_s.push(setup.as_secs_f64());

        let mut gen = eco::DeltaGen::new(first, p.seed);
        let stream = eco::stream(served, &mut gen, eco::EPISODE_DELTAS)?;
        std::fs::remove_dir_all(&dir)?;
        eco::check_stream(&stream, &mut r);
        episodes.push(stream);
    }
    let legalized = legalized.expect("at least one round");
    let stream_failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let sent: u64 = episodes.iter().map(|e| e.sent.len() as u64).sum();
    r.meta("rounds", episodes.len());
    r.meta("eco_deltas", sent);
    r.meta("setup_s_rounds", setup_s.list());
    r.meta("legalize_s_rounds", legalize_s.list());
    eco::record_meta(&episodes, &mut r);

    // every episode sends the same deltas to the same design: each served engine must equal
    // one in-process replay of them
    let mut replayed = engine(legalized.clone(), &cfg)?;
    let journal_dir = p.work_dir.join("replay-journal");
    let replay = eco::replay(
        &mut replayed,
        &episodes[0].sent,
        p.trace.then_some(journal_dir.as_path()),
    )?;
    let diff = episodes
        .iter()
        .find_map(|e| eco::engine_diff(&e.engine, &replayed));
    r.gate(
        "eco.served_equals_replay",
        diff.is_none(),
        diff.unwrap_or_else(|| "identical".into()),
    );

    // the final placement: the legalized design, or for eco-stream the served one
    let final_stats = displacement_stats(if bulk { &legalized } else { replayed.design() });
    if p.trace {
        // the largest displacement swings with where one cell lands, too much to carry a
        // bound
        r.layer("max_disp", final_stats.max, "row");
        eco::publish_layers(&episodes, &replay, &mut r);
        // failures over attempts: cells on bulk-clustered, deltas on eco-stream; a failed
        // gate counts as one more
        let (failed, attempted) = if bulk {
            (r.failed - stream_failed, r.attempted - sent)
        } else {
            (stream_failed, sent)
        };
        let gates_failed = r.gates.iter().filter(|g| !g.passed).count() as u64;
        r.layer(
            "failed_frac",
            (failed + gates_failed) as f64 / attempted.max(1) as f64,
            "frac",
        );
    } else {
        r.e2e("setup_s", setup_s.median(), "s");
        // the rounds legalize the same design: the fastest is the steady figure
        r.e2e("legalize_s", legalize_s.min(), "s");
        r.e2e("sam", final_stats.average, "row");
        eco::publish_end_to_end(&episodes, &mut r);
    }
    Ok(r)
}

/// Run metadata: enough to recognise a noisy run or a different machine.
fn record_meta(r: &mut Report, p: &Params, design: &Design) {
    r.meta("workload", p.workload.name());
    r.meta("seed", p.seed);
    r.meta("trace", p.trace);
    r.meta("seconds", p.seconds);
    r.meta("cells", design.num_movable());
    r.meta("die", format!("{}x{}", design.num_sites_x, design.num_rows));
    r.meta(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
}

/// A fresh per-process work directory under `root`. Kept relative, so the socket path
/// stays far below the platform's length limit wherever the checkout lives.
pub fn work_dir(root: &Path) -> PathBuf {
    root.join(format!("run-{}", std::process::id()))
}
