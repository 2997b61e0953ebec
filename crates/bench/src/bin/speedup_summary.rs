//! The Section 5.1 headline numbers in one table: CF-Merge's speedup on
//! worst-case inputs (average / mean / max over the sweep) per parameter
//! set, CF-vs-Thrust parity on random inputs, and the zero-conflict
//! `nvprof` check.

use cfmerge_bench::artifact::{emit, RunArtifact};
use cfmerge_bench::report::speedup_summary;
use cfmerge_bench::sweep::{default_exponents, full_exponents, full_flag, run_panel};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::metrics::format_table;
use cfmerge_core::params::SortParams;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::{Json, ToJson};

fn main() {
    let full = full_flag();
    let mut art = RunArtifact::new("speedup_summary", Device::rtx2080ti());
    let mut rows = Vec::new();
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let exps = if full { full_exponents(params.u) } else { default_exponents(params.u) };
        eprintln!("running E={}, u={} …", params.e, params.u);
        let worst = InputSpec::worst_case(params);
        let random = InputSpec::UniformRandom { seed: 0x5eed };

        let [tw, cw] = run_panel(params, worst, exps.clone());
        let [tr, cr] = run_panel(params, random, exps);

        let sw = speedup_summary(
            &tw.points.iter().map(|p| p.seconds).collect::<Vec<_>>(),
            &cw.points.iter().map(|p| p.seconds).collect::<Vec<_>>(),
        )
        .expect("worst-case sweeps are paired, non-empty, and positive");
        let sr = speedup_summary(
            &tr.points.iter().map(|p| p.seconds).collect::<Vec<_>>(),
            &cr.points.iter().map(|p| p.seconds).collect::<Vec<_>>(),
        )
        .expect("random sweeps are paired, non-empty, and positive");
        let cf_conflicts: u64 = cw.points.iter().chain(&cr.points).map(|p| p.merge_conflicts).sum();
        rows.push(vec![
            format!("E={},u={}", params.e, params.u),
            format!("{:.2}/{:.2}/{:.2}", sw.average, sw.mean, sw.max),
            if params.e == 15 { "1.37/1.45/1.47".into() } else { "1.17/1.23/1.25".into() },
            format!("{:.3}", sr.mean),
            cf_conflicts.to_string(),
        ]);
        art.add_summary(
            &format!("e{}_u{}", params.e, params.u),
            Json::obj([
                ("worst_case_speedup", sw.to_json()),
                ("random_speedup", sr.to_json()),
                ("cf_merge_conflicts", Json::from(cf_conflicts)),
            ]),
        );
        art.series.extend([tw, cw, tr, cr]);
    }
    println!("\n=== Section 5.1 summary ===\n");
    println!(
        "{}",
        format_table(
            &[
                "params",
                "CF speedup worst (avg/mean/max)",
                "paper",
                "CF speedup random (mean)",
                "CF merge conflicts"
            ],
            &rows
        )
    );
    println!("(random-input speedup ≈ 1.0 = the paper's \"virtually the same time\";\n CF merge conflicts must be 0 — the nvprof check.)");
    emit(&art);
}
