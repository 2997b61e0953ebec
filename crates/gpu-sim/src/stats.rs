//! Conflict-degree histograms for the experiment harness.

use cfmerge_json::{FromJson, Json, JsonError, ToJson};

/// Histogram of per-round transaction degrees (1 = conflict-free round,
/// `w` = fully serialized). Used to reproduce Karsin et al.'s "2–3 bank
/// conflicts per step on random inputs" observation with full
/// distributional detail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    counts: Vec<u64>,
}

impl DegreeHistogram {
    /// Histogram able to record degrees `0..=max_degree`.
    #[must_use]
    pub fn new(max_degree: u32) -> Self {
        Self { counts: vec![0; max_degree as usize + 1] }
    }

    /// Record one round with the given transaction degree.
    pub fn record(&mut self, degree: u32) {
        if self.counts.is_empty() {
            self.counts.resize(degree as usize + 1, 0);
        }
        if (degree as usize) >= self.counts.len() {
            self.counts.resize(degree as usize + 1, 0);
        }
        self.counts[degree as usize] += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &DegreeHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Total rounds recorded.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total conflicts (Σ (degree − 1) · count for degree ≥ 1).
    #[must_use]
    pub fn total_conflicts(&self) -> u64 {
        self.counts.iter().enumerate().skip(1).map(|(d, &c)| (d as u64 - 1) * c).sum()
    }

    /// Mean conflicts per round — the Karsin et al. statistic.
    #[must_use]
    pub fn mean_conflicts_per_round(&self) -> f64 {
        let rounds = self.total_rounds();
        if rounds == 0 {
            0.0
        } else {
            self.total_conflicts() as f64 / rounds as f64
        }
    }

    /// Fraction of rounds that were conflict-free (degree ≤ 1).
    #[must_use]
    pub fn conflict_free_fraction(&self) -> f64 {
        let rounds = self.total_rounds();
        if rounds == 0 {
            return 1.0;
        }
        let free =
            self.counts.first().copied().unwrap_or(0) + self.counts.get(1).copied().unwrap_or(0);
        free as f64 / rounds as f64
    }

    /// Raw bucket counts, index = degree.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Highest degree observed, if any round was recorded.
    #[must_use]
    pub fn max_degree(&self) -> Option<u32> {
        self.counts.iter().rposition(|&c| c > 0).map(|d| d as u32)
    }
}

impl ToJson for DegreeHistogram {
    fn to_json(&self) -> Json {
        // Trailing zero buckets carry no information; trimming them keeps
        // equal histograms textually equal regardless of capacity.
        let last = self.counts.iter().rposition(|&c| c > 0).map_or(0, |d| d + 1);
        Json::obj([("buckets", self.counts[..last].to_json())])
    }
}

impl FromJson for DegreeHistogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self { counts: v.field("buckets")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_conflict_math() {
        let mut h = DegreeHistogram::new(32);
        // 10 conflict-free rounds, 5 rounds of degree 3, 1 round of 32.
        for _ in 0..10 {
            h.record(1);
        }
        for _ in 0..5 {
            h.record(3);
        }
        h.record(32);
        assert_eq!(h.total_rounds(), 16);
        assert_eq!(h.total_conflicts(), 5 * 2 + 31);
        assert!((h.mean_conflicts_per_round() - 41.0 / 16.0).abs() < 1e-12);
        assert!((h.conflict_free_fraction() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(h.max_degree(), Some(32));
    }

    #[test]
    fn histogram_merge_and_growth() {
        let mut a = DegreeHistogram::new(4);
        a.record(2);
        let mut b = DegreeHistogram::new(8);
        b.record(8);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.total_rounds(), 3);
        assert_eq!(a.buckets()[2], 2);
        assert_eq!(a.buckets()[8], 1);
        // Recording past the current size grows the histogram.
        a.record(20);
        assert_eq!(a.max_degree(), Some(20));
    }

    #[test]
    fn empty_histogram_is_conflict_free() {
        let h = DegreeHistogram::new(32);
        assert_eq!(h.mean_conflicts_per_round(), 0.0);
        assert_eq!(h.conflict_free_fraction(), 1.0);
        assert_eq!(h.max_degree(), None);
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = DegreeHistogram::new(8);
        h.record(1);
        h.record(3);
        h.record(8);
        let back =
            DegreeHistogram::from_json(&Json::parse(&h.to_json().to_string_compact()).unwrap())
                .unwrap();
        assert_eq!(back, h);
        // An empty histogram serializes to empty buckets regardless of
        // capacity (trailing zeros are trimmed).
        let empty = DegreeHistogram::new(32).to_json();
        assert_eq!(empty.to_string_compact(), r#"{"buckets":[]}"#);
    }
}
