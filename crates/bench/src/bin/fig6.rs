//! Figure 6: throughput of Thrust vs CF-Merge on *both* worst-case and
//! uniform-random inputs — one panel per software parameter set.
//!
//! The headline claims this reproduces: (i) CF ≈ Thrust on random inputs
//! (the gather's overhead is ~2–3 extra shared accesses per element);
//! (ii) Thrust drops sharply on worst-case inputs while CF is input-
//! independent.

use cfmerge_bench::artifact::{emit, RunArtifact};
use cfmerge_bench::sweep::{default_exponents, full_exponents, full_flag, run_panel, series_table};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::Json;

fn main() {
    let full = full_flag();
    let mut art = RunArtifact::new("fig6", Device::rtx2080ti());
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let exps = if full { full_exponents(params.u) } else { default_exponents(params.u) };
        let worst = InputSpec::worst_case(params);
        let random = InputSpec::UniformRandom { seed: 0xF16 };
        eprintln!("running E={}, u={} (i = {:?}) …", params.e, params.u, exps);
        let [thrust_worst, cf_worst] = run_panel(params, worst, exps.clone());
        let [thrust_random, cf_random] = run_panel(params, random, exps);
        let series = vec![thrust_worst, thrust_random, cf_worst, cf_random];
        println!(
            "\n=== Figure 6 panel: E = {}, u = {} (worst-case and random inputs) ===",
            params.e, params.u
        );
        println!("{}", series_table(&series));

        // The two CF curves must coincide (input independence), and the
        // CF curves must track thrust/random.
        let last = series[0].points.len() - 1;
        let t_rand = series[1].points[last].throughput;
        let cf_worst = series[2].points[last].throughput;
        let cf_rand = series[3].points[last].throughput;
        println!(
            "at the largest n: cf-worst/cf-random = {:.3} (input independence), \
             cf-random/thrust-random = {:.3} (parity on random)",
            cf_worst / cf_rand,
            cf_rand / t_rand
        );
        art.add_summary(
            &format!("ratios_e{}_u{}", params.e, params.u),
            Json::obj([
                ("cf_input_independence", Json::from(cf_worst / cf_rand)),
                ("cf_random_parity", Json::from(cf_rand / t_rand)),
            ]),
        );
        art.series.extend(series);
    }
    emit(&art);
}
