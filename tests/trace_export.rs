//! Trace-event schema validation and a golden-file pin for the Perfetto
//! exporter: every event a traced pipeline emits must be well-formed
//! (known `ph`, numeric `ts`/`dur`/`pid`/`tid`, non-negative durations,
//! per-thread monotone timestamps), and a small deterministic trace must
//! serialize byte-for-byte to the committed golden file.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort_traced, SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::banks::BankModel;
use cfmerge::gpu_sim::block::BlockSim;
use cfmerge::gpu_sim::profiler::PhaseClass;
use cfmerge::gpu_sim::trace::{BlockTracer, KernelTrace, SortTrace};
use cfmerge_json::Json;
use std::collections::HashMap;

/// Structural checks on one exported trace document.
fn validate_trace_document(doc: &Json) {
    let events = doc.req("traceEvents").unwrap().as_arr().expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    assert_eq!(doc.req("displayTimeUnit").unwrap().as_str(), Some("ms"));

    // Last-seen end time per (pid, tid) lane, to check monotonicity.
    let mut lane_clock: HashMap<(u64, u64), f64> = HashMap::new();

    for ev in events {
        let ph = ev.req("ph").unwrap().as_str().expect("ph is a string");
        let pid = ev.req("pid").unwrap().as_u64().expect("pid is an integer");
        match ph {
            "M" => {
                // Metadata: names a process or thread.
                let name = ev.req("name").unwrap().as_str().unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name}"
                );
                assert!(ev.req("args").unwrap().get("name").is_some());
            }
            "X" => {
                // Complete event: a barrier-delimited phase span.
                let tid = ev.req("tid").unwrap().as_u64().expect("tid is an integer");
                let ts = ev.req("ts").unwrap().as_f64().expect("ts is a number");
                let dur = ev.req("dur").unwrap().as_f64().expect("dur is a number");
                assert!(ts >= 0.0, "negative timestamp {ts}");
                assert!(dur >= 0.0, "negative duration {dur}");
                let name = ev.req("name").unwrap().as_str().unwrap();
                assert!(
                    PhaseClass::from_label(name).is_some(),
                    "span name {name} is not a phase class"
                );
                let clock = lane_clock.entry((pid, tid)).or_insert(0.0);
                assert!(
                    ts + 1e-9 >= *clock,
                    "span {name} at ts={ts} overlaps lane clock {clock} (pid={pid} tid={tid})"
                );
                *clock = ts + dur;
            }
            "i" => {
                // Instant event: one conflicted round.
                assert_eq!(ev.req("cat").unwrap().as_str(), Some("conflict"));
                assert!(ev.req("ts").unwrap().as_f64().is_some());
                let args = ev.req("args").unwrap();
                let degree = args.req("degree").unwrap().as_u64().unwrap();
                assert!(degree >= 2, "a conflict round must have degree ≥ 2");
                let banks = args.req("banks").unwrap().as_arr().unwrap();
                let addrs = args.req("addrs").unwrap().as_arr().unwrap();
                assert_eq!(banks.len(), addrs.len(), "banks/addrs multisets must align");
            }
            other => panic!("unexpected event type {other:?}"),
        }
    }
}

#[test]
fn pipeline_trace_export_is_schema_valid() {
    let cfg = SortConfig::with_params(SortParams::new(15, 128));
    let input = InputSpec::WorstCase { w: 32, e: 15, u: 128 }.generate(4 * 15 * 128);
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let traced = simulate_sort_traced(&input, algo, &cfg);
        let doc = Json::parse(&traced.trace.to_perfetto_string()).expect("exporter emits JSON");
        validate_trace_document(&doc);
    }
    // And the negative control: the Thrust trace must actually show
    // conflict instants, otherwise "schema-valid" is vacuous.
    let thrust = simulate_sort_traced(&input, SortAlgorithm::ThrustMergesort, &cfg);
    let doc = Json::parse(&thrust.trace.to_perfetto_string()).unwrap();
    let events = doc.req("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events.iter().any(|e| e.req("ph").unwrap().as_str() == Some("i")),
        "worst-case Thrust trace shows no conflict events"
    );
}

/// Build a tiny fully-deterministic trace: one kernel, one block, two
/// phases, one engineered 4-way conflict. `seconds` is chosen so one tick
/// scales to exactly 1 µs, keeping every exported number an integer.
fn tiny_trace() -> SortTrace {
    let w = 8u32;
    let mut block = BlockSim::<u32, _>::with_observer(
        BankModel::new(w),
        8,
        64,
        BlockTracer::new(BankModel::new(w)),
    );
    block.phase(PhaseClass::LoadTile, |tid, lane| {
        lane.st(tid, tid as u32); // unit stride: conflict-free
    });
    block.phase(PhaseClass::Merge, |tid, lane| {
        let _ = lane.ld((tid % 4) * 8); // banks {0,8,16,24} mod 8 → 4-way on bank 0
    });
    let (_, tracer) = block.finish();
    let ticks = tracer.ticks();
    SortTrace {
        label: "golden/tiny".into(),
        num_banks: w,
        kernels: vec![KernelTrace {
            name: "tiny-kernel".into(),
            grid_blocks: 1,
            seconds: ticks as f64 * 1e-6,
            blocks: vec![tracer],
        }],
    }
}

#[test]
fn tiny_trace_matches_the_golden_file() {
    let got = tiny_trace().to_perfetto_string();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tiny_trace.perfetto.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).expect("bless golden file");
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path}: {e} (run with UPDATE_GOLDEN=1 to create it)")
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "Perfetto exporter output drifted from the golden file; if the\n\
         change is intentional, regenerate tests/golden/tiny_trace.perfetto.json"
    );
    // The golden trace itself must be schema-valid too.
    validate_trace_document(&Json::parse(&got).unwrap());
}
