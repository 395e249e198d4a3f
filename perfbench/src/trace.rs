//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! harness (the wrapped `sample`, each journal append, the evaluate,
//! shard, merge, serialization and report calls); nothing is traced
//! inside the program under test. Spans stay in memory and are written
//! out when the process ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one evaluation process.
    pub run: String,
}

/// Collects spans from any thread of one process.
pub struct Trace {
    epoch: Instant,
    run: String,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(run: String) -> Trace {
        Trace {
            epoch: Instant::now(),
            run,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Record a finished interval.
    pub fn record(&self, name: &str, parent: Option<usize>, start: Instant, end: Instant) {
        let span = Span {
            name: name.to_string(),
            start: self.secs(start),
            end: self.secs(end),
            parent,
            run: self.run.clone(),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }

    /// Run `f` inside a span named `name`; `f` receives the span's index
    /// so it can parent spans of its own.
    pub fn time<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span list poisoned by a panicking thread");
            let start = self.secs(Instant::now());
            spans.push(Span {
                name: name.to_string(),
                start,
                end: start,
                parent,
                run: self.run.clone(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.secs(Instant::now());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")[id]
            .end = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }
}

/// Time `f` under `trace` when tracing is on, or just run it.
pub fn timed<R>(
    trace: Option<&Trace>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match trace {
        Some(t) => t.time(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// A span's self time is its duration minus the part of its interval
/// that its children cover (children on different threads may overlap
/// each other; their union is what counts).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                children[p].push((s.start, s.end));
            }
        }
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end - s.start).max(0.0);
        let covered = covered_within(&mut children[i], s.start, s.end);
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += dur;
        t.self_s += (dur - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            run: "t".into(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("evaluate", 0.0, 10.0, None),
            span("sample", 1.0, 3.0, Some(0)),
            span("sample", 2.0, 4.0, Some(0)),
            span("append", 8.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        // Children cover [1,4] and [8,10] of the parent: 5 of 10 s.
        assert!((t["evaluate"].self_s - 5.0).abs() < 1e-12);
        assert_eq!(t["sample"].count, 2);
        assert!((t["sample"].total_s - 4.0).abs() < 1e-12);
        assert!((t["append"].self_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nested_time_calls_parent_their_children() {
        let tr = Trace::new("run".into());
        tr.time("outer", None, |id| tr.time("inner", Some(id), |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
