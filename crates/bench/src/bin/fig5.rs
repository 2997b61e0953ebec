//! Figure 5: throughput (elements/µs) of Thrust vs CF-Merge on the
//! constructed worst-case inputs, for both software parameter sets,
//! sweeping `n = 2^i·E`.
//!
//! `--full` extends the sweep (slower). The paper reports, on this data:
//! CF speedups of avg/mean/max ≈ 1.37/1.45/1.47 at `E=15,u=512` and
//! 1.17/1.23/1.25 at `E=17,u=256`.

use cfmerge_bench::artifact::{emit, RunArtifact};
use cfmerge_bench::report::speedup_summary;
use cfmerge_bench::sweep::{default_exponents, full_exponents, full_flag, run_panel, series_table};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::ToJson;

fn main() {
    let full = full_flag();
    let mut art = RunArtifact::new("fig5", Device::rtx2080ti());
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let exps = if full { full_exponents(params.u) } else { default_exponents(params.u) };
        let input = InputSpec::worst_case(params);
        eprintln!("running E={}, u={} (i = {:?}) …", params.e, params.u, exps);
        let [thrust, cf] = run_panel(params, input, exps);

        println!(
            "\n=== Figure 5 panel: E = {}, u = {} (worst-case inputs) ===",
            params.e, params.u
        );
        println!("{}", series_table(&[thrust.clone(), cf.clone()]));
        let base: Vec<f64> = thrust.points.iter().map(|p| p.seconds).collect();
        let impr: Vec<f64> = cf.points.iter().map(|p| p.seconds).collect();
        let s = speedup_summary(&base, &impr)
            .expect("fig5 sweeps are paired, non-empty, and have positive runtimes");
        println!(
            "CF speedup over Thrust: average {:.2}, mean {:.2}, max {:.2} (paper: {})",
            s.average,
            s.mean,
            s.max,
            if params.e == 15 { "1.37 / 1.45 / 1.47" } else { "1.17 / 1.23 / 1.25" }
        );
        art.add_summary(&format!("speedup_e{}_u{}", params.e, params.u), s.to_json());
        art.series.push(thrust);
        art.series.push(cf);
    }
    emit(&art);
}
