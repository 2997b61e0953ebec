//! `host_bench --compare PARENT.json… -- CHANGE.json…`: per (workload,
//! end-to-end metric), the medians and quartiles of two sets of untraced
//! result files and a verdict against the metric's bound.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use cfmerge_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The run-to-run spread exceeds the bound: the data cannot tell.
    Unresolved,
    /// An exact (modeled) metric differs at a seed both sets ran.
    Changed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "CHANGED",
        }
    }
}

/// One run's value of a metric, with the seed it ran at.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub seed: u64,
    pub value: f64,
}

pub fn verdict(m: &EndToEnd, parent: &[Sample], change: &[Sample]) -> Verdict {
    if m.exact {
        // Modeled numbers repeat exactly per seed, so compare seed by
        // seed; different seeds legitimately differ.
        let shared: Vec<bool> = parent
            .iter()
            .flat_map(|p| {
                change
                    .iter()
                    .filter(move |c| c.seed == p.seed)
                    .map(move |c| c.value.to_bits() == p.value.to_bits())
            })
            .collect();
        if shared.contains(&false) {
            return Verdict::Changed;
        }
        if !shared.is_empty() {
            return Verdict::Unchanged;
        }
    }
    let (pv, cv) = (values(parent), values(change));
    let (pm, cm) = (median(&pv), median(&cv));
    let rel_iqr = |v: &[f64], m: f64| {
        let [q1, _, q3] = quartiles(v);
        if m == 0.0 {
            0.0
        } else {
            ((q3 - q1) / m).abs()
        }
    };
    let parent_spread = rel_iqr(&pv, pm);
    let spread = parent_spread.max(rel_iqr(&cv, cm));
    let better = |c: f64, p: f64| if m.higher_is_better { c > p } else { c < p };
    // Positive: the change's median is worse than the parent's.
    let worse_by = if pm == 0.0 {
        0.0
    } else if m.higher_is_better {
        (pm - cm) / pm
    } else {
        (cm - pm) / pm
    };
    let pairs = pv.len() * cv.len();
    let wins = cv.iter().map(|&c| pv.iter().filter(|&&p| better(c, p)).count()).sum::<usize>();
    if pairs > 0 && wins == pairs {
        return Verdict::Better;
    }
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    if worse_by > m.bound && (cm - pm).abs() > m.floor {
        return Verdict::Worse;
    }
    if -worse_by > parent_spread && wins * 10 >= pairs * 9 {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// Per (workload, metric) samples, plus `(failed, attempted)` ops per
/// workload summed over the set's files.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, String), Vec<Sample>>,
    ops: BTreeMap<String, (u64, u64)>,
}

/// Whether the change failed a larger share of its ops than the parent.
/// Shares, not counts: the two sets may hold different numbers of files
/// and runs of different lengths.
fn failures_rose((pf, pa): (u64, u64), (cf, ca): (u64, u64)) -> bool {
    u128::from(cf) * u128::from(pa.max(1)) > u128::from(pf) * u128::from(ca.max(1))
}

fn load(files: &[String]) -> Result<Set, String> {
    let mut set = Set::default();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{f}: {e}"))?;
        if doc.get("traced").and_then(Json::as_bool) == Some(true) {
            return Err(format!("{f}: a traced result; compare untraced results"));
        }
        let seed = doc.get("host").and_then(|h| h.get("seed")).and_then(Json::as_u64).unwrap_or(0);
        let workloads =
            doc.get("workloads").and_then(Json::as_arr).ok_or(format!("{f}: no workloads"))?;
        for w in workloads {
            let name =
                w.get("workload").and_then(Json::as_str).ok_or(format!("{f}: unnamed workload"))?;
            let ops = set.ops.entry(name.to_string()).or_default();
            ops.0 += w.get("failed").and_then(Json::as_u64).unwrap_or(0);
            ops.1 += w.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            for (metric, v) in w.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    let key = (name.to_string(), metric.clone());
                    set.values.entry(key).or_default().push(Sample { seed, value });
                }
            }
        }
    }
    Ok(set)
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e5 || x.abs() < 1e-2) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn summary(s: &[Sample]) -> String {
    let [q1, med, q3] = quartiles(&values(s));
    format!("{} [{}, {}]", fmt(med), fmt(q1), fmt(q3))
}

pub fn run(parent_files: &[String], change_files: &[String]) -> ExitCode {
    let (parent, change) = match (load(parent_files), load(change_files)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("host_bench --compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} parent vs {} change result file(s); median [q1, q3] per set\n",
        parent_files.len(),
        change_files.len()
    );
    println!(
        "{:<17} {:<25} {:<36} {:<36} {:>8}  verdict",
        "workload", "metric", "parent", "change", "delta"
    );
    let mut blocking = 0;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let key = (w.name().to_string(), m.name.to_string());
            let (Some(p), Some(c)) = (parent.values.get(&key), change.values.get(&key)) else {
                continue;
            };
            let v = verdict(m, p, c);
            blocking += usize::from(matches!(v, Verdict::Worse | Verdict::Changed));
            let (pm, cm) = (median(&values(p)), median(&values(c)));
            let delta = if pm == 0.0 { 0.0 } else { 100.0 * (cm - pm) / pm };
            println!(
                "{:<17} {:<25} {:<36} {:<36} {:>+7.2}%  {}",
                w.name(),
                m.name,
                summary(p),
                summary(c),
                delta,
                v.label()
            );
        }
        if let (Some(&p), Some(&c)) = (parent.ops.get(w.name()), change.ops.get(w.name())) {
            if failures_rose(p, c) {
                let ((pf, pa), (cf, ca)) = (p, c);
                println!("{:<17} failed ops rose from {pf}/{pa} to {cf}/{ca}", w.name());
                blocking += 1;
            }
        }
    }
    if blocking > 0 {
        println!("\n{blocking} blocking finding(s): a bound was exceeded, a modeled number changed, or ops failed");
        ExitCode::FAILURE
    } else {
        println!("\nno metric worse than its bound");
        ExitCode::SUCCESS
    }
}

fn values(s: &[Sample]) -> Vec<f64> {
    s.iter().map(|x| x.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn runs(values: &[f64]) -> Vec<Sample> {
        values.iter().enumerate().map(|(i, &value)| Sample { seed: i as u64 + 1, value }).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let kps = end_to_end("keys_per_host_s").unwrap();
        let parent = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            verdict(kps, &parent, &runs(&[100.2, 99.8, 100.1, 99.9, 100.0])),
            Verdict::Unchanged
        );
        assert_eq!(verdict(kps, &parent, &runs(&[75.0, 76.0, 74.0, 75.5, 74.5])), Verdict::Worse);
        assert_eq!(
            verdict(kps, &parent, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5])),
            Verdict::Better
        );
        let noisy = runs(&[50.0, 150.0, 100.0, 60.0, 140.0]);
        assert_eq!(verdict(kps, &parent, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_flag_any_change_at_a_shared_seed() {
        let modeled = end_to_end("modeled_elems_per_us").unwrap();
        let parent = runs(&[10.0, 11.0]);
        assert_eq!(verdict(modeled, &parent, &runs(&[10.0, 11.0])), Verdict::Unchanged);
        assert_eq!(verdict(modeled, &parent, &runs(&[10.0, 11.000001])), Verdict::Changed);
    }

    #[test]
    fn failures_compare_as_shares_of_attempted_ops() {
        // Two parent runs against ten change runs: more failures in total
        // at a lower rate is no rise.
        assert!(!failures_rose((2, 2000), (5, 10_000)));
        // Ten parent runs against two change runs: fewer failures in
        // total at a higher rate is a rise.
        assert!(failures_rose((5, 10_000), (4, 2000)));
        assert!(!failures_rose((10, 10_000), (2, 2000)));
        assert!(failures_rose((0, 10_000), (1, 2000)));
        assert!(!failures_rose((0, 0), (0, 0)));
    }

    #[test]
    fn setup_floor_absorbs_small_absolute_changes() {
        let setup = end_to_end("setup_s").unwrap();
        let parent = runs(&[0.010, 0.0101, 0.0099]);
        assert_eq!(verdict(setup, &parent, &runs(&[0.0150, 0.0151, 0.0149])), Verdict::Unchanged);
    }
}
