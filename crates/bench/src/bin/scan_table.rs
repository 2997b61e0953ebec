//! The scan case study (the paper's citation \[18\] context): bank
//! conflicts of three block-scan variants, measured exactly.

use cfmerge_algos::scan::{block_exclusive_scan, ScanKind};
use cfmerge_bench::artifact::{emit, RunArtifact};
use cfmerge_core::metrics::format_table;
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::Json;
use rand::{Rng, SeedableRng};

fn main() {
    let mut art = RunArtifact::new("scan_table", Device::rtx2080ti());
    let mut variants = Vec::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5CA7);
    let mut rows = Vec::new();
    for u in [128usize, 512, 1024] {
        let input: Vec<u32> = (0..u).map(|_| rng.gen_range(0..1000)).collect();
        for kind in [ScanKind::HillisSteele, ScanKind::Blelloch, ScanKind::BlellochPadded] {
            let (_, profile) = block_exclusive_scan(BankModel::nvidia(), &input, kind);
            let t = profile.total();
            variants.push(Json::obj([
                ("u", Json::from(u)),
                ("variant", Json::from(kind.label())),
                ("alu_ops", Json::from(t.alu_ops)),
                ("shared_requests", Json::from(t.shared_requests())),
                ("shared_transactions", Json::from(t.shared_transactions())),
                ("bank_conflicts", Json::from(t.bank_conflicts())),
            ]));
            rows.push(vec![
                u.to_string(),
                kind.label().to_string(),
                t.alu_ops.to_string(),
                t.shared_requests().to_string(),
                t.shared_transactions().to_string(),
                t.bank_conflicts().to_string(),
            ]);
        }
    }
    println!("=== Block prefix-sum variants: work vs bank conflicts ===\n");
    println!(
        "{}",
        format_table(
            &["u", "variant", "adds", "smem requests", "smem transactions", "conflicts"],
            &rows
        )
    );
    println!(
        "Hillis-Steele: conflict-free but Θ(u log u) adds. Blelloch: Θ(u) adds but\n\
         power-of-two tree strides serialize up to {}-way. Padding (one word per {}\n\
         — Dotsenko et al. [18] / GPU Gems 3) removes every conflict at the same\n\
         request count: the same trade-space CF-Merge navigates for merging.",
        32, 32
    );
    art.add_summary("variants", Json::Arr(variants));
    emit(&art);
}
