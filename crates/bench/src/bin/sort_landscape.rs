//! The sorting landscape around CF-Merge: throughput of the two
//! merge-path mergesorts, bitonic sort, and LSD radix sort on the same
//! simulated device — the context for the paper's "fastest
//! comparison-based" framing.
//!
//! Expected shape: the mergesorts beat bitonic (whose `log² n` work
//! grows) with a widening gap; CF-Merge ≈ Thrust on random inputs; the
//! *direct-scatter* radix sort trails them all — its per-pass scattered
//! stores blow up the sector count, which is exactly why production
//! radix sorts (Merrill & Grimshaw, cited \[32\]) bin keys through shared
//! memory before writing. The simulator makes that design pressure
//! visible.

use cfmerge_algos::bitonic::bitonic_sort;
use cfmerge_algos::radix::{radix_sort, radix_sort_with, ScatterKind};
use cfmerge_bench::artifact::{emit, RunArtifact, RunRecord};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::metrics::format_table;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge_gpu_sim::device::Device;
use cfmerge_gpu_sim::timing::TimingModel;
use cfmerge_json::Json;

fn main() {
    let device = Device::rtx2080ti();
    let timing = TimingModel::rtx2080ti_like();
    let cfg = SortConfig::with_params(SortParams::e15_u512());
    let mut art = RunArtifact::new("sort_landscape", device.clone());
    let mut landscape = Vec::new();
    let mut rows = Vec::new();
    for i in [12u32, 14, 16, 18, 20] {
        let n = 1usize << i;
        let input = InputSpec::UniformRandom { seed: u64::from(i) }.generate(n);
        let thrust = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &cfg);
        let cf = simulate_sort(&input, SortAlgorithm::CfMerge, &cfg);
        let bit = bitonic_sort(&input, 256, &device, &timing, true);
        let rad = radix_sort(&input, 256, &device, &timing, true);
        let radb = radix_sort_with(&input, 256, &device, &timing, true, ScatterKind::Binned);
        let mut sorted = input.clone();
        sorted.sort_unstable();
        assert_eq!(thrust.output, sorted);
        assert_eq!(cf.output, sorted);
        assert_eq!(bit.output, sorted);
        assert_eq!(rad.output, sorted);
        assert_eq!(radb.output, sorted);
        art.runs.push(RunRecord::from_run(
            format!("thrust/random/n=2^{i}"),
            SortAlgorithm::ThrustMergesort,
            &thrust,
        ));
        art.runs.push(RunRecord::from_run(
            format!("cf-merge/random/n=2^{i}"),
            SortAlgorithm::CfMerge,
            &cf,
        ));
        landscape.push(Json::obj([
            ("n", Json::from(n)),
            ("thrust", Json::from(thrust.throughput())),
            ("cf_merge", Json::from(cf.throughput())),
            ("bitonic", Json::from(bit.throughput())),
            ("radix_direct", Json::from(rad.throughput())),
            ("radix_binned", Json::from(radb.throughput())),
        ]));
        rows.push(vec![
            format!("2^{i}"),
            format!("{:.0}", thrust.throughput()),
            format!("{:.0}", cf.throughput()),
            format!("{:.0}", bit.throughput()),
            format!("{:.0}", rad.throughput()),
            format!("{:.0}", radb.throughput()),
            format!(
                "{:.1}x/{:.1}x",
                rad.profile.total().global_st_sectors as f64
                    / (rad.n as f64 / 8.0 * f64::from(32 / cfmerge_algos::radix::RADIX_BITS)),
                radb.profile.total().global_st_sectors as f64
                    / (radb.n as f64 / 8.0 * f64::from(32 / cfmerge_algos::radix::RADIX_BITS))
            ),
        ]);
    }
    println!("=== Sorting landscape (uniform random u32, elements/µs) ===\n");
    println!(
        "{}",
        format_table(
            &[
                "n",
                "thrust merge",
                "cf-merge",
                "bitonic",
                "radix direct",
                "radix binned",
                "scatter blowup (direct/binned)"
            ],
            &rows
        )
    );
    println!(
        "bitonic pays the Θ(log²n) factor plus 2-way shared conflicts at small\n\
         strides; direct-scatter radix pays the sector blow-up in the last column,\n\
         which Merrill-style shared-memory binning removes — the binned variant is\n\
         the non-comparison sort the paper's 'comparison-based' qualifier concedes to."
    );
    art.add_summary("throughput", Json::Arr(landscape));
    emit(&art);
}
