//! Host-time spans recorded from outside the program, around each call
//! into a layer. Spans are kept in memory and written when a workload
//! ends: `trace_<workload>.json` (every span) and `host_<workload>.folded`
//! (self time per stack, flamegraph input).

use cfmerge_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    /// Op index within the rep, for op spans.
    pub op: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder for one workload. A disabled recorder (the untraced
/// run's) records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        self.enabled.then(|| self.push(name, parent, None, Instant::now(), None))
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a finished span from timestamps the caller already took.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: usize,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.push(name, parent, Some(op), start, Some(end));
        }
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: Option<usize>,
        start: Instant,
        end: Option<Instant>,
    ) -> usize {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        self.spans.push(Span { parent, name: name.to_string(), op, start_ns, end_ns });
        self.spans.len() - 1
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::from(id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name.as_str())),
                ("workload", Json::from(workload)),
                ("op", s.op.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ])
        });
        Json::obj([("workload", Json::from(workload)), ("spans", Json::arr(spans))])
    }

    /// Self time per stack in the folded-stack format flamegraph tools
    /// read: `root;child;leaf <ns>`, one line per distinct stack, sorted.
    pub fn folded(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            *stacks.entry(self.stack(id)).or_default() += self_ns;
        }
        stacks.into_iter().map(|(stack, ns)| format!("{stack} {ns}\n")).collect()
    }

    fn stack(&self, mut id: usize) -> String {
        let mut names = vec![self.spans[id].name.as_str()];
        while let Some(p) = self.spans[id].parent {
            names.push(&self.spans[p].name);
            id = p;
        }
        names.reverse();
        names.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn folded_reports_self_time_per_stack() {
        let mut s = Spans::new(true);
        let t = s.epoch;
        let ms = |n| t + Duration::from_millis(n);
        let root = s.push("w", None, None, ms(0), Some(ms(10)));
        let rep = s.push("rep", Some(root), None, ms(1), Some(ms(9)));
        s.record("op:f", Some(rep), 0, ms(2), ms(5));
        s.record("op:f", Some(rep), 1, ms(5), ms(8));
        assert_eq!(s.folded(), "w 2000000\nw;rep 2000000\nw;rep;op:f 6000000\n");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("w", None);
        s.record("op:f", id, 0, Instant::now(), Instant::now());
        s.close(id);
        assert!(s.folded().is_empty());
    }
}
