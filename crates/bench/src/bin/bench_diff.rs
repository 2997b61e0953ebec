//! Compare two run artifacts (see `artifact::RunArtifact`) into a
//! speedup table, summarize one, or gate one against a pinned baseline.
//!
//! Usage:
//!
//! ```text
//! bench_diff BASELINE.json IMPROVED.json   # speedup table (base/improved)
//! bench_diff ARTIFACT.json                 # one-artifact summary
//! bench_diff --gate BASELINE.json CURRENT.json [--tol KIND=REL]...
//! bench_diff --host BENCH_host.json        # host-time trajectory check
//! ```
//!
//! Series are paired by exact label first (the same tool re-run across
//! two revisions), then by label-without-algorithm (thrust vs CF-Merge
//! inside one artifact); points are matched by `n`.
//!
//! `--gate` runs the perf-regression gate: every modeled number in the
//! pinned baseline must match the freshly regenerated artifact exactly
//! (the simulator is deterministic), except metrics granted a relative
//! tolerance via `--tol` (e.g. `--tol seconds=0.02`). Exits nonzero on
//! any drift or coverage loss.
//!
//! `--host` reads the host-time trajectory and prints each entry's
//! change/parent `keys_per_host_s` ratio per workload, flagging (and
//! exiting nonzero on) any ratio below `1 − bound`. The bound and the
//! workloads come from the `BENCHMARK.json` next to the trajectory (see
//! `cfmerge_bench::trajectory`).

use cfmerge_bench::artifact::{
    certificates_table, diff_table, dropped_conflicts_table, recovery_table, service_table,
    summary_table, tuning_table, RunArtifact,
};
use cfmerge_bench::gate::{gate_artifacts, GateConfig};
use cfmerge_bench::trajectory::HostTrajectory;
use cfmerge_json::Json;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &str) -> Result<RunArtifact, ExitCode> {
    RunArtifact::load(Path::new(path)).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn print_aux_tables(name: &str, art: &RunArtifact) {
    if let Some(t) = recovery_table(art) {
        println!("\n=== fault injection / recovery ({name}: {}) ===\n", art.tool);
        println!("{t}");
    }
    if let Some(t) = service_table(art) {
        println!("\n=== service resilience ({name}: {}) ===\n", art.tool);
        println!("{t}");
    }
    if let Some(t) = dropped_conflicts_table(art) {
        println!("\n=== conflict-trace retention ({name}: {}) ===\n", art.tool);
        println!("{t}");
    }
    if let Some(t) = certificates_table(art) {
        println!("\n=== kernel certification coverage ({name}: {}) ===\n", art.tool);
        println!("{t}");
    }
    if let Some(t) = tuning_table(art) {
        println!("\n=== auto-tuner ladder coverage ({name}: {}) ===\n", art.tool);
        println!("{t}");
    }
}

fn run_gate(args: &[String]) -> ExitCode {
    let mut cfg = GateConfig::exact();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tol" {
            let Some(spec) = it.next() else {
                eprintln!("error: --tol needs a KIND=REL argument");
                return ExitCode::FAILURE;
            };
            if let Err(e) = cfg.parse_tolerance_arg(spec) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            paths.push(arg);
        }
    }
    let [base, current] = paths.as_slice() else {
        eprintln!("usage: bench_diff --gate BASELINE.json CURRENT.json [--tol KIND=REL]...");
        return ExitCode::FAILURE;
    };
    let (base, current) = match (load(base), load(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    println!("=== perf gate: {} (pinned) vs {} (current) ===\n", base.tool, current.tool);
    let report = gate_artifacts(&base, &current, &cfg);
    print!("{}", report.render());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_host(args: &[String]) -> ExitCode {
    let [trajectory] = args else {
        eprintln!("usage: bench_diff --host BENCH_host.json");
        return ExitCode::FAILURE;
    };
    let trajectory = Path::new(trajectory);
    let benchmark = trajectory.with_file_name("BENCHMARK.json");
    let parse = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let host = match (parse(trajectory), parse(&benchmark)) {
        (Ok(t), Ok(b)) => HostTrajectory::read(&t, &b),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let host = match host {
        Ok(host) => host,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("=== host keys_per_host_s, change / parent (! below {:.2}) ===\n", 1.0 - host.bound);
    println!("{}", host.render());
    match host.flagged() {
        0 => ExitCode::SUCCESS,
        n => {
            eprintln!("{n} ratio(s) below 1 - {} ({})", host.bound, benchmark.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--gate") => return run_gate(&args[1..]),
        Some("--host") => return run_host(&args[1..]),
        _ => {}
    }
    match args.as_slice() {
        [one] => {
            let art = match load(one) {
                Ok(a) => a,
                Err(code) => return code,
            };
            println!(
                "=== {} (schema v{}, device {}) ===\n",
                art.tool, art.schema_version, art.device.name
            );
            println!("{}", summary_table(&art));
            if let Some(t) = recovery_table(&art) {
                println!("\n=== fault injection / recovery ===\n");
                println!("{t}");
            }
            if let Some(t) = service_table(&art) {
                println!("\n=== service resilience ===\n");
                println!("{t}");
            }
            if let Some(t) = dropped_conflicts_table(&art) {
                println!("\n=== conflict-trace retention ===\n");
                println!("{t}");
            }
            if let Some(t) = certificates_table(&art) {
                println!("\n=== kernel certification coverage ===\n");
                println!("{t}");
            }
            if let Some(t) = tuning_table(&art) {
                println!("\n=== auto-tuner ladder coverage ===\n");
                println!("{t}");
            }
            if let Some(snap) = &art.telemetry {
                println!("\n(telemetry: {} metrics embedded)", snap.metrics.len());
            }
            ExitCode::SUCCESS
        }
        [base, improved] => {
            let (base, improved) = match (load(base), load(improved)) {
                (Ok(b), Ok(i)) => (b, i),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            println!("=== speedup: {} (baseline) vs {} (improved) ===\n", base.tool, improved.tool);
            println!("{}", diff_table(&base, &improved));
            for (name, art) in [("baseline", &base), ("improved", &improved)] {
                print_aux_tables(name, art);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: bench_diff BASELINE.json [IMPROVED.json]\n       bench_diff --gate BASELINE.json CURRENT.json [--tol KIND=REL]...\n       bench_diff --host BENCH_host.json"
            );
            ExitCode::FAILURE
        }
    }
}
