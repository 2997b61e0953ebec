//! `host_bench`: end-to-end and per-layer host-time benchmark of the
//! sort simulator, the service and the cluster.
//!
//! Modeled GPU time is what the paper reports and what the exact gates
//! pin; this benchmark measures *host* time, what the simulator costs to
//! run. On one thread it runs four seeded workloads, each in a process of
//! its own (see `README.md` next to this file for why each exists), times every
//! call into a layer's public entry point from outside, checks every
//! output against `std`'s sort, and prints each end-to-end metric with
//! its unit. The traced run (`--trace 1`) records spans around those
//! calls, runs per-layer probes, and prints the per-layer metrics.
//!
//! ```text
//! host_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--smoke] [--out DIR]
//! host_bench --compare PARENT.json... -- CHANGE.json...
//! host_bench --bless
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Result files go to
//! `--out` (default `target/host_bench`).

mod compare;
mod fingerprint;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workload;

use cfmerge_json::Json;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{OpResult, Scale, Workload};

const USAGE: &str = "usage: host_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--smoke] [--out DIR]\n       host_bench --compare PARENT.json... -- CHANGE.json...\n       \
host_bench --bless\nworkloads: fig5_worst, thrust_random, service_closed, cluster_failover";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Length of an untraced run's timed loop when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Failure messages a result keeps; `failed` counts them all.
const MAX_FAILURES_KEPT: usize = 20;

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: PathBuf,
}

enum Command {
    Run(Opts),
    Compare(Vec<String>, Vec<String>),
    Bless,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        scale: Scale::Full,
        out: PathBuf::from("target/host_bench"),
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => opts.traced = true,
            "--smoke" => opts.scale = Scale::Smoke,
            "--out" => opts.out = PathBuf::from(value()?),
            "--bless" => return Ok(Command::Bless),
            "--compare" => {
                let rest: Vec<String> = it.cloned().collect();
                let split = rest.iter().position(|a| a == "--").ok_or("--compare needs `--`")?;
                let (parent, change) = (rest[..split].to_vec(), rest[split + 1..].to_vec());
                if parent.is_empty() || change.is_empty() {
                    return Err("--compare needs result files on both sides of `--`".to_string());
                }
                return Ok(Command::Compare(parent, change));
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    // A traced run's per-layer numbers come from its first rep and its
    // probes, so by default it does not spend a measuring window on more.
    opts.seconds = seconds.unwrap_or(if opts.traced { 0.0 } else { DEFAULT_SECONDS });
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(parent, change)) => compare::run(&parent, &change),
        Ok(Command::Bless) => match fingerprint::bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("host_bench --bless: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("host_bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload's measured result.
struct WorkloadResult {
    workload: Workload,
    wall_s: f64,
    reps: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    fingerprint: u64,
    pinned: Option<u64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// catalogue order.
    metrics: Vec<(&'static str, f64)>,
    /// End-to-end metrics before scaling to the speed reference.
    raw: Vec<(&'static str, f64)>,
    reference: host::ReferenceTimes,
    /// Distinct ops in a rep: the samples the percentiles are taken over.
    ops_per_rep: usize,
    tail_pct: u32,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn unit(&self, name: &str) -> &'static str {
        metrics::end_to_end(name).map_or_else(|| metrics::per_layer_unit(name), |m| m.unit)
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|&(name, value)| {
            (name, Json::obj([("value", Json::from(value)), ("unit", Json::from(self.unit(name)))]))
        }))
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("wall_s", Json::from(self.wall_s)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("failed_ratio", Json::from(self.failed_ratio())),
            ("failures", Json::arr(self.failures.iter().map(|f| Json::from(f.as_str())))),
            ("reps", Json::from(self.reps)),
            ("ops_per_rep", Json::from(self.ops_per_rep)),
            ("tail_pct", Json::from(self.tail_pct)),
            (
                "fingerprint",
                Json::obj([
                    ("value", Json::from(fingerprint::hex(self.fingerprint))),
                    ("pinned", self.pinned.map_or(Json::Null, |p| Json::from(fingerprint::hex(p)))),
                ]),
            ),
            (
                "reference",
                Json::obj([
                    ("median_s", Json::from(self.reference.median_s)),
                    ("samples", Json::from(self.reference.samples)),
                ]),
            ),
            ("raw_metrics", Json::obj(self.raw.iter().map(|&(n, v)| (n, Json::from(v))))),
            ("metrics", self.metrics_json()),
        ])
    }
}

fn run(opts: &Opts) -> ExitCode {
    match opts.workloads.as_slice() {
        &[w] => run_one(w, opts),
        all => run_each(all, opts),
    }
}

/// The last line of standard output: the outcome and metrics of a run.
fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

/// Measure one workload in this process.
fn run_one(w: Workload, opts: &Opts) -> ExitCode {
    let host = host::descriptor(opts.seed, opts.seconds, opts.scale == Scale::Smoke);
    let (r, spans) = measure(w, opts);
    print_result(&r, opts);
    let written = write_result(opts, host, &r).and_then(|()| {
        if opts.traced {
            write_trace(opts, w, &spans)
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("host_bench: cannot write results under {}: {e}", opts.out.display());
    }
    println!("{}", result_line(r.attempted, r.failed, r.metrics_json()));
    ExitCode::SUCCESS
}

/// Measure several workloads one after another, each in a child process
/// of its own, and print their metrics under their names. A process's
/// peak RSS counts everything it ever held, and the heap keeps memory a
/// finished workload freed, so only a fresh process gives each workload
/// its own `peak_rss_mib`. Each child also writes its own result files,
/// the same as a one-workload run.
fn run_each(workloads: &[Workload], opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("host_bench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for &w in workloads {
        let child = std::process::Command::new(&exe)
            .args(child_args(opts, w))
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("host_bench: cannot run the {} workload: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let text = stdout.trim_end();
        let (report, last) = text.rsplit_once('\n').unwrap_or(("", text));
        let line = Json::parse(last).ok().filter(|_| out.status.success());
        let Some(line) = line else {
            print!("{stdout}");
            eprintln!("host_bench: the {} workload's run failed: {}", w.name(), out.status);
            return ExitCode::FAILURE;
        };
        println!("{report}");
        attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += line.get("failed").and_then(Json::as_u64).unwrap_or(0);
        metrics.push((w.name(), line.get("metrics").cloned().unwrap_or(Json::Null)));
    }
    println!("{}", result_line(attempted, failed, Json::obj(metrics)));
    ExitCode::SUCCESS
}

/// The arguments that make a child process measure `w` as `opts` asks.
fn child_args(opts: &Opts, w: Workload) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if opts.traced { "1" } else { "0" },
        "--out",
        &opts.out.to_string_lossy(),
    ]
    .map(String::from)
    .to_vec();
    if opts.scale == Scale::Smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn measure(w: Workload, opts: &Opts) -> (WorkloadResult, Spans) {
    let wall = Instant::now();
    // Every timed interval, set-up or op, has a reference sample just
    // before and just after it, which give its scale (see
    // `host::SpeedReference`).
    let mut reference = host::SpeedReference::new(match opts.scale {
        Scale::Full => host::REFERENCE_KEYS,
        Scale::Smoke => 1 << 10,
    });
    // `(raw, scaled)` seconds of each set-up; a traced run reports no
    // `setup_s`, so it sets up once.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut before = reference.sample();
    for _ in 0..if opts.traced { 1 } else { SETUP_REPS } {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(workload::setup(w, opts.scale, opts.seed));
        let raw = t.elapsed().as_secs_f64();
        let after = reference.sample();
        setup_s.push((raw, raw * host::scale(before, after)));
        before = after;
    }
    let p = prepared.expect("at least one set-up ran");
    p.warm_up();

    let per_rep = p.ops_per_rep();
    let mut spans = Spans::new(opts.traced);
    let root = spans.open(w.name(), None);
    // The first rep's results, whose counts and modeled outputs every
    // later rep must repeat, and each op's `(raw, scaled)` seconds. Later
    // reps keep no results, so what the loop holds barely grows with its
    // length and `peak_rss_mib` does not depend on it.
    let mut first_rep: Vec<OpResult> = Vec::new();
    let mut op_s: Vec<(f64, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    // Host seconds spent recording op spans, for the tracing overhead.
    let mut recording_s = 0.0;
    let start = Instant::now();
    let mut reps = 0;
    before = reference.sample();
    while reps == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let rep_id = spans.open("rep", root);
        let mut rep = p.new_rep();
        for i in 0..per_rep {
            let mut r = p.run_op(&mut rep, i);
            let t = Instant::now();
            for &(name, t0, t1) in &r.calls {
                spans.record(name, rep_id, i, t0, t1);
            }
            recording_s += t.elapsed().as_secs_f64();
            if reps > 0 && r.fingerprint != first_rep[i].fingerprint {
                r.failure.get_or_insert(format!("op {i}: modeled output differs from rep 0"));
            }
            let after = reference.sample();
            op_s.push((r.host_s, r.host_s * host::scale(before, after)));
            before = after;
            if let Some(why) = r.failure.take() {
                failed += 1;
                if failures.len() < MAX_FAILURES_KEPT {
                    failures.push(why);
                }
            }
            if reps == 0 {
                first_rep.push(r);
            }
        }
        spans.close(rep_id);
        reps += 1;
    }

    let fingerprints: Vec<u64> = first_rep.iter().map(|r| r.fingerprint).collect();
    let fingerprint = fingerprint::combine(&fingerprints);
    let pinned = match opts.scale {
        Scale::Full => fingerprint::pinned(w, opts.seed),
        Scale::Smoke => None,
    };
    let attempted = op_s.len() as u64;
    if pinned.is_some_and(|p| p != fingerprint) {
        failures.insert(0, "modeled fingerprint differs from the pinned one".to_string());
        failed = attempted;
    }

    let reference = reference.finish();
    let (raw_s, scaled_s): (Vec<f64>, Vec<f64>) = op_s.into_iter().unzip();
    let (raw, tail_pct, metrics) = if opts.traced {
        // Spans are recorded just after each op's timed window. Had they
        // been recorded inside it, the ops would have taken this much
        // longer: untraced over traced throughput.
        let total_s: f64 = raw_s.iter().sum();
        let overhead = (total_s + recording_s) / total_s;
        let (layer, probe_failures) = probes::run(&p, &first_rep, &mut spans, root, overhead);
        failed = (failed + probe_failures.len() as u64).min(attempted);
        failures.extend(probe_failures);
        let metrics = metrics::PER_LAYER
            .iter()
            .filter_map(|m| layer.iter().find(|(n, _)| *n == m.0).copied())
            .collect();
        (Vec::new(), 0, metrics)
    } else {
        let (raw_setup, scaled_setup): (Vec<f64>, Vec<f64>) = setup_s.into_iter().unzip();
        let (raw, _) = end_to_end(&first_rep, &raw_s, &raw_setup);
        let (metrics, tail_pct) = end_to_end(&first_rep, &scaled_s, &scaled_setup);
        (raw, tail_pct, metrics)
    };
    spans.close(root);
    failures.truncate(MAX_FAILURES_KEPT);
    let result = WorkloadResult {
        workload: w,
        wall_s: wall.elapsed().as_secs_f64(),
        reps,
        attempted,
        failed,
        failures,
        fingerprint,
        pinned,
        metrics,
        raw,
        reference,
        ops_per_rep: per_rep,
        tail_pct,
    };
    (result, spans)
}

/// The end-to-end metrics in catalogue order, from the first rep's
/// results, every op's host seconds `times` (raw or scaled, rep after
/// rep) and the set-ups' `setup_s`, and the percentile the tail metric
/// reports. A rep is a fixed list of distinct
/// ops, so each op position is first reduced to its median time over the
/// reps: interference from other load only ever adds time, and the
/// median drops those bursts. Throughput and percentiles are then taken
/// across the positions, so the tail is the slowest kind of op, not the
/// unluckiest sample.
fn end_to_end(
    first_rep: &[OpResult],
    times: &[f64],
    setup_s: &[f64],
) -> (Vec<(&'static str, f64)>, u32) {
    let per_rep = first_rep.len();
    let positions: Vec<(&OpResult, f64)> = first_rep
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let samples: Vec<f64> = times.iter().skip(i).step_by(per_rep).copied().collect();
            (op, stats::median(&samples))
        })
        .collect();
    let secs: f64 = positions.iter().map(|p| p.1).sum();
    let sum = |f: fn(&OpResult) -> u64| positions.iter().map(|p| f(p.0)).sum::<u64>() as f64;
    let ns_per_key: Vec<f64> = positions.iter().map(|(o, s)| s * 1e9 / o.keys as f64).collect();
    let (tail_pct, tail) = stats::tail(&ns_per_key);
    let modeled_us: f64 = positions.iter().map(|p| p.0.modeled_s).sum::<f64>() * 1e6;
    let values = [
        stats::median(setup_s),
        sum(|o| o.keys) / secs,
        stats::median(&ns_per_key),
        tail,
        sum(|o| o.smem_requests) / secs,
        host::peak_rss_mib(),
        sum(|o| o.modeled_keys) / modeled_us,
    ];
    (metrics::END_TO_END.iter().map(|m| m.name).zip(values).collect(), tail_pct)
}

fn print_result(r: &WorkloadResult, opts: &Opts) {
    println!(
        "== {} (seed {}, {} reps, {} ops, {:.1} s wall{}) ==",
        r.workload.name(),
        opts.seed,
        r.reps,
        r.attempted,
        r.wall_s,
        if opts.traced { ", traced" } else { "" }
    );
    for &(name, value) in &r.metrics {
        let note =
            if name == "ns_per_key_tail" { format!("  (p{})", r.tail_pct) } else { String::new() };
        println!("  {name:<40} {value:>16.6} {}{note}", r.unit(name));
    }
    let fp = match r.pinned {
        Some(p) if p == r.fingerprint => "matches the pinned value".to_string(),
        Some(p) => format!("DIFFERS from pinned {}", fingerprint::hex(p)),
        None => "not pinned for this seed and scale".to_string(),
    };
    let (ratio, failed, attempted) = (r.failed_ratio(), r.failed, r.attempted);
    println!("  {:<40} {ratio:>16.6} fraction  ({failed}/{attempted} ops)", "failed_ratio");
    println!("  fingerprint {} {fp}", fingerprint::hex(r.fingerprint));
    if !opts.traced {
        println!(
            "  speed reference {:.3} ms (median of {}); each time is scaled by the samples around it",
            r.reference.median_s * 1e3,
            r.reference.samples,
        );
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

fn write_result(opts: &Opts, host: Json, r: &WorkloadResult) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let mode = if opts.traced { "traced" } else { "untraced" };
    let doc = Json::obj([
        ("host", host),
        ("traced", Json::from(opts.traced)),
        ("workloads", Json::arr([r.to_json()])),
    ]);
    let file = opts.out.join(format!("{mode}_{}_seed{}.json", r.workload.name(), opts.seed));
    std::fs::write(file, doc.to_string_pretty())
}

fn write_trace(opts: &Opts, w: Workload, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let name = w.name();
    std::fs::write(
        opts.out.join(format!("trace_{name}.json")),
        spans.to_json(name).to_string_compact(),
    )?;
    std::fs::write(opts.out.join(format!("host_{name}.folded")), spans.folded())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<Json> {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section).and_then(Json::as_arr).expect("section is a list").to_vec()
    }

    fn name(m: &Json) -> &str {
        m.get("name").and_then(Json::as_str).expect("metric has a name")
    }

    fn smoke_opts(traced: bool) -> Opts {
        Opts {
            workloads: Workload::ALL.to_vec(),
            seed: 3,
            seconds: 0.0,
            traced,
            scale: Scale::Smoke,
            out: PathBuf::new(),
        }
    }

    /// A run of several workloads gives each child process exactly the
    /// settings a one-workload run of it would have.
    #[test]
    fn each_child_runs_one_workload_with_the_parents_settings() {
        let parent = Opts { out: PathBuf::from("some/dir"), ..smoke_opts(true) };
        for w in Workload::ALL {
            let Ok(Command::Run(child)) = parse_args(&child_args(&parent, w)) else {
                panic!("{}: child arguments rejected", w.name())
            };
            assert_eq!(child.workloads, vec![w]);
            assert_eq!(
                (child.seed, child.seconds, child.traced, child.scale, &child.out),
                (parent.seed, parent.seconds, parent.traced, parent.scale, &parent.out)
            );
        }
    }

    /// All four workloads at tiny scale, untraced and traced: nothing
    /// fails, the cluster crash migrates work, and every metric name in
    /// `BENCHMARK.json` is emitted.
    #[test]
    fn smoke_run_emits_every_listed_metric() {
        for traced in [false, true] {
            let opts = smoke_opts(traced);
            let section = if traced { "per_layer" } else { "end_to_end" };
            let wanted: Vec<Json> = listed(section);
            for w in Workload::ALL {
                let (r, _) = measure(w, &opts);
                assert_eq!(r.failed, 0, "{} traced={traced}: {:?}", w.name(), r.failures);
                let emitted: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let names: Vec<&str> = wanted.iter().map(name).collect();
                assert_eq!(emitted, names, "{} traced={traced}", w.name());
                if traced && w == Workload::ClusterFailover {
                    let migrations = r.metrics.iter().find(|m| m.0 == "cluster.migrations");
                    assert!(migrations.is_some_and(|m| m.1 >= 1.0), "no migration");
                }
            }
        }
    }

    /// `BENCHMARK.json` and the metric catalogue agree on units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let better = |m: &Json| m.get("better").and_then(Json::as_str) == Some("higher");
        let unit = |m: &Json| m.get("unit").and_then(Json::as_str).map(str::to_string);
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (m, def) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(name(m), def.name);
            assert_eq!(unit(m).as_deref(), Some(def.unit));
            assert_eq!(better(m), def.higher_is_better, "{}", def.name);
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound), "{}", def.name);
        }
        let layer = listed("per_layer");
        assert_eq!(layer.len(), metrics::PER_LAYER.len());
        for (m, def) in layer.iter().zip(&metrics::PER_LAYER) {
            assert_eq!((name(m), unit(m).as_deref(), better(m)), (def.0, Some(def.1), def.2));
        }
        let workloads: Vec<String> =
            listed("workloads").iter().map(|w| name(w).to_string()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    /// The benchmark's own package builds with the workspace's release
    /// profile, so `BENCHMARK.json`'s command measures the same build as
    /// `cargo run --release -p cfmerge-bench --bin host_bench`.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |manifest: &'static str| -> Vec<&'static str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let ours = profile(include_str!("Cargo.toml"));
        assert_eq!(ours, profile(include_str!("../../../../../Cargo.toml")));
    }

    #[test]
    fn benchmark_command_arguments_parse() {
        let args: Vec<String> = "--workload thrust_random --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Command::Run(o)) = parse_args(&args) else {
            panic!("the benchmark command's arguments were rejected")
        };
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.traced),
            (vec![Workload::ThrustRandom], 7, 10.0, true)
        );
        let default_seconds = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let Ok(Command::Run(o)) = parse_args(&args) else { panic!("{args:?} rejected") };
            o.seconds
        };
        assert_eq!(default_seconds(&[]), DEFAULT_SECONDS);
        assert_eq!(default_seconds(&["--traced"]), 0.0);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--compare".into(), "a.json".into()]).is_err());
    }
}
