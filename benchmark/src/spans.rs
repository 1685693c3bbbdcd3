//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are kept in memory (`name, start, end, parent`, plus one trace id
//! per step or per job) and written out once, when the pass ends. They are
//! opened only from the benchmark's files, around the calls into each
//! layer; the program's existing `obs` hub is attached through its public
//! `set_obs` and its spans are imported afterwards as children of ours
//! ([`Spans::adopt`]), unmodified. A layer's *self time* is its span minus
//! the part of that interval its children cover.

use obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Step or job the span belongs to; spans of one request share it.
    pub trace: u64,
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

/// Open a span if a recorder is present (the untraced pass has none).
pub fn open(
    spans: &mut Option<Spans>,
    name: &str,
    parent: Option<SpanId>,
    trace: u64,
) -> Option<SpanId> {
    spans.as_mut().map(|s| s.begin(name, parent, trace))
}

/// Close a span [`open`] returned.
pub fn close(spans: &mut Option<Spans>, id: Option<SpanId>) {
    if let (Some(s), Some(id)) = (spans.as_mut(), id) {
        s.end(id);
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since creation — the clock every span is stamped with.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, trace: u64) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, trace)
    }

    /// Close a span now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span whose interval is already known.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        trace: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            trace,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Import the program's hub spans. `offset_ns` is the hub tracer's
    /// creation time on this recorder's clock. A top-level hub span is
    /// parented by `parent_of(span, job)`, where `job` is its `job` arg if
    /// it carries one; nested hub spans keep the nesting the hub recorded.
    /// Returns how many spans were adopted.
    pub fn adopt(
        &mut self,
        events: &[obs::TraceEvent],
        offset_ns: u64,
        parent_of: impl Fn(&Span, Option<u64>) -> Option<SpanId>,
    ) -> usize {
        let mut open: BTreeMap<u64, Vec<SpanId>> = BTreeMap::new();
        let mut adopted = 0;
        for e in events {
            let at = offset_ns + e.ts_us * 1000;
            let stack = open.entry(e.tid).or_default();
            match e.ph {
                'B' => {
                    let job = e
                        .args
                        .iter()
                        .find(|(k, _)| k == "job")
                        .and_then(|(_, v)| v.parse().ok());
                    let name = format!("{}:{}", e.cat, e.name);
                    let (parent, trace) = match stack.last() {
                        Some(&p) => (Some(p), self.spans[p].trace),
                        None => {
                            let probe = Span {
                                name: name.clone(),
                                start_ns: at,
                                end_ns: at,
                                parent: None,
                                trace: job.unwrap_or(0),
                            };
                            let p = parent_of(&probe, job);
                            (p, p.map_or(probe.trace, |p| self.spans[p].trace))
                        }
                    };
                    stack.push(self.push(&name, at, at, parent, trace));
                    adopted += 1;
                }
                'E' => {
                    if let Some(id) = stack.pop() {
                        self.spans[id].end_ns = at;
                    }
                }
                _ => {}
            }
        }
        adopted
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span, so overlapping or
    /// overhanging children are never subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let par = &self.spans[p];
                let (a, b) = (s.start_ns.max(par.start_ns), s.end_ns.min(par.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| {
                k.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in k.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per span name, in nanoseconds, with counts.
    pub fn by_name(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// `{"spans": [...], "by_name": {...}}`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj(vec![
                    ("id", Value::int(i as u64)),
                    ("name", Value::str(s.name.as_str())),
                    ("start_ns", Value::int(s.start_ns)),
                    ("end_ns", Value::int(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::int(p as u64)),
                    ),
                    ("trace", Value::int(s.trace)),
                ])
            })
            .collect();
        let by_name = self
            .by_name()
            .into_iter()
            .map(|(name, (count, total, own))| {
                let row = Value::obj(vec![
                    ("count", Value::int(count)),
                    ("total_ns", Value::int(total)),
                    ("self_ns", Value::int(own)),
                ]);
                (name, row)
            })
            .collect();
        Value::obj(vec![
            ("spans", Value::Arr(spans)),
            ("by_name", Value::Obj(by_name)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut s = Spans::new();
        let root = s.push("step", 0, 100, None, 1);
        let kernel = s.push("kernel", 10, 60, Some(root), 1);
        s.push("phase", 20, 40, Some(kernel), 1);
        let own = s.self_times_ns();
        assert_eq!(own, [50, 30, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let mut s = Spans::new();
        let root = s.push("job", 100, 200, None, 7);
        s.push("a", 110, 150, Some(root), 7);
        s.push("b", 140, 170, Some(root), 7); // overlaps a by 10
        s.push("c", 190, 260, Some(root), 7); // overhangs the parent by 60
        s.push("d", 120, 130, Some(root), 7); // inside a
        s.push("e", 20, 90, Some(root), 7); // entirely outside
        assert_eq!(s.self_times_ns()[root], 100 - 60 - 10);
    }

    #[test]
    fn hub_spans_nest_under_ours_and_keep_their_own_nesting() {
        let ev = |ph, name: &str, ts_us, tid, job: Option<u64>| obs::TraceEvent {
            ph,
            name: name.to_string(),
            cat: "k".to_string(),
            ts_us,
            tid,
            args: job
                .map(|j| vec![("job".to_string(), j.to_string())])
                .unwrap_or_default(),
        };
        let mut s = Spans::new();
        let ours = s.push("step:mr-p", 1_000, 9_000, None, 42);
        let events = [
            ev('B', "launch", 2, 1, None),
            ev('B', "phase", 3, 1, None),
            ev('B', "other-thread", 3, 2, Some(5)),
            ev('E', "phase", 4, 1, None),
            ev('E', "other-thread", 5, 2, None),
            ev('E', "launch", 6, 1, None),
        ];
        let n = s.adopt(&events, 0, |sp, job| match job {
            Some(_) => None,
            None => (sp.start_ns >= 1_000).then_some(ours),
        });
        assert_eq!(n, 3);
        let launch = s.get(1);
        assert_eq!((launch.parent, launch.trace), (Some(ours), 42));
        assert_eq!((launch.start_ns, launch.end_ns), (2_000, 6_000));
        assert_eq!(s.get(2).parent, Some(1));
        assert_eq!((s.get(3).parent, s.get(3).trace), (None, 5));
        assert_eq!(s.self_times_ns()[ours], 8_000 - 4_000);
        assert!(obs::json::parse(&s.to_json().to_json()).is_ok());
    }
}
