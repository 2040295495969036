//! Tiny-scale self-test of the benchmark: every metric `BENCHMARK.json` names is emitted,
//! with its unit and a finite value, on every workload; every gate passes on correct
//! output; and the gate checks trip on a perturbed placement or a mismatched ECO replay.

use flex_eco::json::Json;
use flex_eco::{EcoDelta, EcoEngine};
use flex_mgl::MglConfig;
use flex_perfbench::{bulk, eco, make_design, run, Params, Workload};
use std::path::PathBuf;

/// `(name, unit)` of every metric of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        cells: Some(250),
        work_dir: PathBuf::from(".perfbench_tmp").join(format!(
            "selftest-{}-{}",
            workload.name(),
            trace as u8
        )),
    }
}

fn check_emits_declared(trace: bool) {
    let list = if trace { "per_layer" } else { "end_to_end" };
    let want = declared(list);
    assert!(!want.is_empty());
    for workload in Workload::ALL {
        let report = run(&tiny(workload, trace)).expect("tiny run");
        let failed: Vec<_> = report.gates.iter().filter(|g| !g.passed).collect();
        assert!(
            failed.is_empty(),
            "{}: gates failed: {failed:?}",
            workload.name()
        );
        assert!(report.attempted > 0 && report.failed == 0);
        let got = if trace {
            &report.per_layer
        } else {
            &report.end_to_end
        };
        for (name, unit) in &want {
            let m = got
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("{}: {list} metric {name} missing", workload.name()));
            assert_eq!(m.unit, unit, "{}: unit of {name}", workload.name());
            assert!(
                m.value.is_finite(),
                "{}: {name} = {}",
                workload.name(),
                m.value
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "{}: undeclared metrics",
            workload.name()
        );
        let line = report.result_json(trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    check_emits_declared(false);
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    check_emits_declared(true);
}

#[test]
fn a_perturbed_placement_trips_the_placement_gates() {
    let design = make_design(Workload::BulkClustered, 5, Some(200));
    let (legalized, result, _) = bulk::serial(&design, &MglConfig::default());
    assert!(result.legal);
    assert_eq!(bulk::placement_diff(&legalized, &legalized.clone()), None);

    let mut traced = design.clone();
    let trace = bulk::traced_legalize(&mut traced, &MglConfig::default());
    assert_eq!(bulk::placement_diff(&legalized, &traced), None);
    assert_eq!(trace.sam.to_bits(), result.average_displacement.to_bits());

    let mut perturbed = legalized.clone();
    let id = perturbed.movable_ids()[17];
    perturbed.cell_mut(id).x += 1;
    let diff = bulk::placement_diff(&legalized, &perturbed).expect("diff detected");
    assert!(diff.contains(&id.to_string()), "{diff}");
}

#[test]
fn a_mismatched_eco_replay_trips_the_replay_gate() {
    let design = make_design(Workload::EcoStream, 5, Some(200));
    let (legalized, _, _) = bulk::serial(&design, &MglConfig::default());
    let engine = || EcoEngine::new(legalized.clone(), MglConfig::default()).expect("legal");
    let (mut a, mut b) = (engine(), engine());

    let mut gen = eco::DeltaGen::new(&legalized, 9);
    let deltas: Vec<EcoDelta> = (0..40).map(|_| gen.next_delta()).collect();
    eco::replay(&mut a, &deltas, None).expect("replay");
    eco::replay(&mut b, &deltas, None).expect("replay");
    assert_eq!(eco::engine_diff(&a, &b), None);

    // one move more on one side: the engines must no longer compare equal
    let id = b.design().movable_ids()[3];
    let c = b.design().cell(id);
    let extra = EcoDelta::MoveCell {
        id,
        gx: c.gx + 6.0,
        gy: c.gy,
    };
    eco::replay(&mut b, &[extra], None).expect("replay");
    assert!(eco::engine_diff(&a, &b).is_some());
}
