//! The host-time trajectory check behind `bench_diff --host`.
//!
//! `BENCH_host.json` records, per performance-relevant change, the
//! `host_bench` `keys_per_host_s` medians of the parent and the change
//! (`[parent, change]`, in millions) for each workload, or only their
//! ratio (`change_over_parent_median`). The check reads each entry's
//! change/parent ratio per workload and flags every ratio below
//! `1 − bound`, where `bound` is the `keys_per_host_s` bound of the
//! benchmark declaration (`BENCHMARK.json`'s `end_to_end` list) whose
//! `workloads` order the columns.

use cfmerge_core::metrics::format_table;
use cfmerge_json::Json;

/// The metric the trajectory records.
const METRIC: &str = "keys_per_host_s";

/// One trajectory entry's ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct HostEntry {
    /// The change's number.
    pub pr: String,
    /// Change/parent ratio per workload, in the declaration's order;
    /// `None` where the entry recorded no number.
    pub ratios: Vec<Option<f64>>,
}

/// The trajectory read against the declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTrajectory {
    /// The declaration's workloads, in its order.
    pub workloads: Vec<String>,
    /// The declaration's relative bound on `keys_per_host_s`.
    pub bound: f64,
    /// Every entry, in trajectory order.
    pub entries: Vec<HostEntry>,
}

impl HostTrajectory {
    /// Read `trajectory` (`BENCH_host.json`) against `benchmark`
    /// (`BENCHMARK.json`).
    ///
    /// # Errors
    /// Names the first field either file lacks.
    pub fn read(trajectory: &Json, benchmark: &Json) -> Result<Self, String> {
        let workloads = (benchmark.get("workloads").and_then(Json::as_arr))
            .ok_or("the benchmark declares no workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("a benchmark workload has no name")?;
        let bound = (benchmark.get("end_to_end").and_then(Json::as_arr))
            .and_then(|metrics| {
                metrics.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(METRIC))
            })
            .and_then(|m| m.get("bound")?.as_f64())
            .ok_or(format!("the benchmark declares no bound on {METRIC}"))?;
        let entries = (trajectory.get("entries").and_then(Json::as_arr))
            .ok_or("the trajectory has no entries")?
            .iter()
            .map(|entry| read_entry(entry, &workloads))
            .collect::<Result<_, _>>()?;
        Ok(Self { workloads, bound, entries })
    }

    /// Whether `ratio` lies below `1 − bound`.
    #[must_use]
    pub fn flags(&self, ratio: f64) -> bool {
        ratio < 1.0 - self.bound
    }

    /// How many ratios are flagged.
    #[must_use]
    pub fn flagged(&self) -> usize {
        let ratios = self.entries.iter().flat_map(|e| e.ratios.iter().flatten());
        ratios.filter(|&&r| self.flags(r)).count()
    }

    /// One row per entry, one column per workload: the ratio, marked `!`
    /// when flagged, or `-` where the entry recorded none.
    #[must_use]
    pub fn render(&self) -> String {
        let mut headers = vec!["pr"];
        headers.extend(self.workloads.iter().map(String::as_str));
        let rows: Vec<Vec<String>> = (self.entries.iter())
            .map(|entry| {
                let cells = entry.ratios.iter().map(|ratio| match ratio {
                    Some(r) if self.flags(*r) => format!("{r:.3} !"),
                    Some(r) => format!("{r:.3}"),
                    None => "-".to_string(),
                });
                std::iter::once(entry.pr.clone()).chain(cells).collect()
            })
            .collect();
        format_table(&headers, &rows)
    }
}

/// One entry's ratios, from its `[parent, change]` pairs or its recorded
/// ratios.
fn read_entry(entry: &Json, workloads: &[String]) -> Result<HostEntry, String> {
    let pr = match entry.get("pr") {
        Some(Json::Str(s)) => s.clone(),
        Some(pr) => pr.as_f64().map(|n| format!("{n}")).ok_or("an entry's pr is not a number")?,
        None => return Err("an entry has no pr".into()),
    };
    let pairs = entry.get(METRIC).filter(|j| !matches!(j, Json::Null));
    let ratios = entry.get("change_over_parent_median").filter(|j| !matches!(j, Json::Null));
    let ratio = |workload: &str| -> Result<Option<f64>, String> {
        if let Some(pair) = pairs.and_then(|p| p.get(workload)) {
            let pair =
                pair.as_arr().and_then(|p| Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?)));
            let (parent, change) =
                pair.ok_or(format!("pr {pr} {workload}: not [parent, change]"))?;
            return Ok(Some(change / parent));
        }
        Ok(ratios.and_then(|r| r.get(workload)?.as_f64()))
    };
    let ratios = workloads.iter().map(|w| ratio(w)).collect::<Result<_, _>>()?;
    Ok(HostEntry { pr, ratios })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "fast"}, {"name": "slow"}],
        "end_to_end": [
            {"name": "setup_s", "bound": 0.25},
            {"name": "keys_per_host_s", "bound": 0.2}
        ]
    }"#;

    const TRAJECTORY: &str = r#"{
        "entries": [
            {"pr": 1, "keys_per_host_s": {"fast": [1.0, 1.5], "slow": [2.0, 1.5]}},
            {"pr": 2, "keys_per_host_s": null, "change_over_parent_median": {"fast": 0.79}},
            {"pr": 3, "keys_per_host_s": null}
        ]
    }"#;

    fn read() -> HostTrajectory {
        let parse = |text| Json::parse(text).expect("fixture parses");
        HostTrajectory::read(&parse(TRAJECTORY), &parse(BENCHMARK)).expect("fixture reads")
    }

    #[test]
    fn ratios_are_change_over_parent_and_flagged_below_the_bound() {
        let t = read();
        assert_eq!(t.workloads, ["fast", "slow"]);
        assert_eq!(t.bound, 0.2);
        let ratios: Vec<_> = t.entries.iter().map(|e| (e.pr.as_str(), e.ratios.clone())).collect();
        assert_eq!(
            ratios,
            [
                ("1", vec![Some(1.5), Some(0.75)]),
                ("2", vec![Some(0.79), None]),
                ("3", vec![None, None])
            ]
        );
        // 0.75 and 0.79 lie below 1 − 0.2; 0.8 itself would not.
        assert_eq!(t.flagged(), 2);
        assert!(!t.flags(0.8));
        let table = t.render();
        assert!(table.contains("1.500") && table.contains("0.750 !"), "{table}");
        assert!(table.contains("0.790 !") && table.contains('-'), "{table}");
    }

    #[test]
    fn missing_fields_are_named() {
        let parse = |text| Json::parse(text).expect("fixture parses");
        let no_bound = parse(r#"{"workloads": [{"name": "fast"}], "end_to_end": []}"#);
        let err = HostTrajectory::read(&parse(TRAJECTORY), &no_bound).unwrap_err();
        assert!(err.contains("keys_per_host_s"), "{err}");
        let bad_pair = parse(r#"{"entries": [{"pr": 4, "keys_per_host_s": {"fast": [1.0]}}]}"#);
        let err = HostTrajectory::read(&bad_pair, &parse(BENCHMARK)).unwrap_err();
        assert!(err.contains("pr 4 fast"), "{err}");
    }
}
