//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into the program (the program itself is not instrumented). They stay
//! in memory and are written once, at the end, as Chrome trace-event
//! JSON — the same format `EngineReport::chrome_trace_json` emits — so
//! one viewer opens both.

use rpdbscan_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Lane of the thread that recorded a span (`tid` in the trace).
pub const MAIN: u32 = 0;
/// Lane of the stream writer thread.
pub const WRITER: u32 = 1;

/// One finished span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    /// Request id, for spans that belong to one classify request.
    pub req: Option<u64>,
    pub lane: u32,
}

/// The benchmark's one clock read: every timestamp it takes comes from
/// here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(determinism-time): the benchmark measures wall time; no reading feeds a clustering result
}

/// Span recorder. When disabled every call is a no-op that returns
/// `None`, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Self time of all spans sharing one name.
#[derive(Debug, Clone)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn alloc(&self) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        // sync: ids only need to be unique; no other data is ordered by them.
        Some(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The span list; a recorder that panicked mid-push leaves it whole,
    /// so a poisoned lock is still usable.
    fn list(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, span: Span) {
        self.list().push(span);
    }

    /// Records an already-finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        lane: u32,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        let id = self.alloc()?;
        self.push(Span {
            id,
            name,
            start: self.secs(start),
            end: self.secs(end),
            parent,
            req,
            lane,
        });
        Some(id)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so that nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        lane: u32,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let id = self.alloc();
        let start = now();
        let out = f(id);
        if let Some(id) = id {
            let end = now();
            self.push(Span {
                id,
                name,
                start: self.secs(start),
                end: self.secs(end),
                parent,
                req: None,
                lane,
            });
        }
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.list().clone()
    }
}

/// Sum of the durations of the spans without a parent on the main lane.
/// The workload keeps those sequential, so wall time minus this sum is
/// the time no span accounts for.
pub fn top_level_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.lane == MAIN)
        .map(|s| s.end - s.start)
        .sum()
}

/// Self time per span name: a span's duration minus the part of it that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |c| covered_seconds(c, s.start, s.end));
        let e = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        e.count += 1;
        e.total_s += s.end - s.start;
        e.self_s += (s.end - s.start - covered).max(0.0);
    }
    let mut out: Vec<SelfTime> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_seconds(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The spans as Chrome trace-event JSON (complete `"ph":"X"` events,
/// microsecond `ts`/`dur`, one `tid` lane per recording thread).
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut e = Value::object();
            e.insert("name", s.name);
            e.insert("cat", "bench");
            e.insert("ph", "X");
            e.insert("ts", s.start * 1e6);
            e.insert("dur", (s.end - s.start) * 1e6);
            e.insert("pid", 1i64);
            e.insert("tid", s.lane);
            let mut args = Value::object();
            args.insert("id", s.id);
            if let Some(p) = s.parent {
                args.insert("parent", p);
            }
            if let Some(r) = s.req {
                args.insert("req", r);
            }
            e.insert("args", args);
            e
        })
        .collect();
    Value::Array(events).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "top" },
            start,
            end,
            parent,
            req: None,
            lane: MAIN,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0.0, 10.0, None),
            span(2, 1.0, 4.0, Some(1)),
            span(3, 3.0, 5.0, Some(1)),
            span(4, 9.0, 12.0, Some(1)),
        ];
        let t = self_times(&spans);
        let top = t.iter().find(|s| s.name == "top").unwrap();
        // children cover [1,5] and [9,10] inside the parent: 5 s
        assert!((top.self_s - 5.0).abs() < 1e-12);
        assert!((top_level_seconds(&spans) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, MAIN, |id| id);
        assert_eq!(v, None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_back() {
        let t = Tracer::new(true);
        t.span("outer", None, MAIN, |id| {
            t.span("inner", id, MAIN, |_| ());
        });
        let v = Value::parse(&chrome_json(&t.spans())).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
    }
}
