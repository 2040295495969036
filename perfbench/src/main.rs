//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two lines on standard output: the run metadata
//! (`{"meta": {...}}`, including every correctness gate) and, last, the result
//! (`{"correct", "attempted", "failed", "metrics"}`). Untraced runs report the end-to-end
//! metrics, traced runs the per-layer ones. Exits non-zero if a gate fails.

use flex_perfbench::{run, work_dir, Params, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 45.0, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let load_before = load_average();
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        cells: None,
        work_dir: work_dir(Path::new(".perfbench_tmp")),
    };
    let mut report = match run(&params) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.meta("load_before", load_before);
    report.meta("load_after", load_average());
    report.meta("git_rev", git_rev());
    report.meta("rustc", command_line("rustc", &["-V"]));
    for gate in report.gates.iter().filter(|g| !g.passed) {
        eprintln!("perfbench: gate {} failed: {}", gate.name, gate.detail);
    }
    println!("{}", report.meta_json());
    println!("{}", report.result_json(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured, if this is a git checkout (git does not search above the
/// current directory).
fn git_rev() -> String {
    let here = std::env::current_dir().unwrap_or_default();
    let ceiling = here
        .parent()
        .unwrap_or(&here)
        .to_string_lossy()
        .into_owned();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

/// The 1-, 5- and 15-minute load averages.
fn load_average() -> String {
    let mut loads = [0f64; 3];
    // SAFETY: `loads` is a valid, writable buffer of exactly the 3 doubles requested, and
    // getloadavg writes at most `nelem` elements.
    let n = unsafe { getloadavg(loads.as_mut_ptr(), 3) };
    if n < 3 {
        return "unknown".to_string();
    }
    format!("{:.2} {:.2} {:.2}", loads[0], loads[1], loads[2])
}
