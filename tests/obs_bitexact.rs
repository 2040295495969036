//! The observability layer's contract: spans **observe, never perturb**.
//!
//! The serial oracle and the parallel engine must produce bit-identical placements with
//! instrumentation enabled and disabled — enabling spans changes wall-clock only, never a
//! single coordinate or a stats bit. These tests run each engine both ways on the same
//! seeded design and compare placements exactly (integer coordinates, f64 stats by bits).
//!
//! The tests share the process-global enable flag, so they serialize on a mutex and
//! restore the disabled default before releasing it.

use flex::baselines::CpuLegalizer;
use flex::mgl::parallel::ParallelMglLegalizer;
use flex::mgl::{MglConfig, MglLegalizer};
use flex::placement::benchmark::{generate, BenchmarkSpec};
use flex::placement::layout::Design;
use std::sync::Mutex;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Every bit of placement state that an instrumentation bug could plausibly disturb.
#[derive(PartialEq, Debug)]
struct Placement {
    positions: Vec<(i64, i64)>,
    avg_displacement_bits: u64,
    legal: bool,
}

fn capture(design: &Design, avg_displacement: f64, legal: bool) -> Placement {
    Placement {
        positions: design.cells.iter().map(|c| (c.x, c.y)).collect(),
        avg_displacement_bits: avg_displacement.to_bits(),
        legal,
    }
}

fn run_serial(spec: &BenchmarkSpec) -> Placement {
    let mut d = generate(spec);
    let result = MglLegalizer::new(MglConfig::default()).legalize(&mut d);
    capture(&d, result.average_displacement, result.legal)
}

fn run_parallel(spec: &BenchmarkSpec) -> Placement {
    let mut d = generate(spec);
    let out = ParallelMglLegalizer::new(4, MglConfig::default()).legalize(&mut d);
    capture(&d, out.result.average_displacement, out.result.legal)
}

fn assert_observation_free(label: &str, run: impl Fn() -> Placement) {
    let _guard = FLAG_LOCK.lock().unwrap();
    flex_obs::set_enabled(false);
    let disabled = run();
    flex_obs::set_enabled(true);
    let enabled = run();
    flex_obs::set_enabled(false);
    assert!(disabled.legal, "{label}: disabled run must be legal");
    assert_eq!(
        disabled, enabled,
        "{label}: enabling spans must not change a single placement bit"
    );
}

#[test]
fn serial_oracle_is_bit_identical_with_spans_enabled() {
    let spec = BenchmarkSpec::tiny("obs-bitexact-serial", 17);
    assert_observation_free("serial", || run_serial(&spec));
}

#[test]
fn parallel_pipelined_is_bit_identical_with_spans_enabled() {
    let spec = BenchmarkSpec::tiny("obs-bitexact-par", 17);
    assert_observation_free("parallel", || run_parallel(&spec));
}

/// The cross-engine oracle equivalence (serial ≡ parallel, byte for byte) must survive
/// instrumentation in BOTH states — the pairing the golden Table 1 test pins with spans
/// disabled, re-checked here with spans enabled.
#[test]
fn serial_equals_parallel_with_spans_enabled() {
    let _guard = FLAG_LOCK.lock().unwrap();
    flex_obs::set_enabled(true);
    let spec = BenchmarkSpec::tiny("obs-bitexact-cross", 23);
    let serial = run_serial(&spec);
    let parallel = run_parallel(&spec);
    flex_obs::set_enabled(false);
    assert!(serial.legal);
    assert_eq!(
        serial, parallel,
        "serial and parallel must stay byte-identical with spans enabled"
    );
}

/// The rayon shim spawns fresh worker threads for every batch, and a thread keeps the span
/// ring it registers on its first span for the life of the process. Pool workers run the
/// spanned window step (`plan_window`), so they must record no spans: with spans on, one
/// run of either region-parallel engine may register at most the calling thread's ring and
/// the MGL engine's speculation runner's ring, however many batches it runs.
#[test]
fn speculation_workers_register_no_span_rings() {
    let _guard = FLAG_LOCK.lock().unwrap();
    // small rings for any thread that registers here, so a regression stays cheap to detect
    flex_obs::set_ring_capacity(256);
    flex_obs::set_enabled(true);
    let spec = BenchmarkSpec {
        num_cells: 900,
        ..BenchmarkSpec::tiny("obs-rings", 29)
    };
    let mut runs = Vec::new();
    for engine in ["mgl-parallel", "mgl-parallel", "tcad22-cpu"] {
        let before = flex_obs::thread_rings().len();
        let mut d = generate(&spec);
        let batches = if engine == "tcad22-cpu" {
            CpuLegalizer::new(4).legalize(&mut d).batches
        } else {
            ParallelMglLegalizer::new(4, MglConfig::default())
                .legalize(&mut d)
                .shards
                .batches
        };
        runs.push((engine, batches, flex_obs::thread_rings().len() - before));
    }
    flex_obs::set_enabled(false);
    flex_obs::set_ring_capacity(flex_obs::spans::DEFAULT_RING_CAPACITY);
    for (engine, batches, rings) in runs {
        assert!(
            batches >= 50,
            "{engine}: the run must take at least 50 batches, got {batches}"
        );
        assert!(
            rings <= 2,
            "{engine}: a {batches}-batch 4-thread run registered {rings} span rings"
        );
    }
}
