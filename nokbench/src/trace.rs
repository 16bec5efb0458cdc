//! In-memory spans for the traced run. Spans are opened and closed by the
//! benchmark around its own calls into each module; nothing inside the
//! program is instrumented. Each thread keeps its own log, the logs are
//! merged when the run ends, and the merged spans are written out once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` is `None` for a request's root span; every
/// span of one request carries the same `request` id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique across the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by all spans of one request, query or commit.
    pub request: u64,
    /// Layer boundary, e.g. `parse` or `roundtrip`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span log. A disabled log records nothing, so untraced
/// phases run the same code without the bookkeeping.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    /// High bits of every id this log hands out, so merged logs never
    /// collide.
    base: u64,
    next: u64,
    open: Vec<(u64, Option<u64>, u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose ids start at `thread << 40`.
    pub fn new(epoch: Instant, thread: u64, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            enabled,
            base: thread << 40,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span (or as a root with a new
    /// request id). Returns the span id.
    pub fn open(&mut self, name: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = self.base | self.next;
        let (parent, request) = match self.open.last() {
            Some(&(pid, _, req, _, _)) => (Some(pid), req),
            None => (None, id),
        };
        let start = self.now_ns();
        self.open.push((id, parent, request, name, start));
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some((id, parent, request, name, start_ns)) = self.open.pop() {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns: end,
            });
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Closed spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// Per-name totals: count, total and self time (ns). Self time is a span's
/// duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Render spans and per-name self times as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"summary\":{");
    for (i, (name, (count, total, own))) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "execute", 25, 60), // overlaps parse by 5
            span(4, Some(3), "inner", 30, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["query"], (1, 100, 50)); // children cover 10..60
        assert_eq!(t["parse"], (1, 20, 20));
        assert_eq!(t["execute"], (1, 35, 25));
        assert_eq!(t["inner"], (1, 10, 10));
    }

    #[test]
    fn nested_spans_share_a_request_id_and_disabled_logs_are_empty() {
        let mut log = SpanLog::new(Instant::now(), 3, true);
        log.span("query", |l| {
            l.span("parse", |_| ());
            l.span("plan", |_| ());
        });
        log.span("query", |_| ());
        let s = log.spans();
        assert_eq!(s.len(), 4);
        let root = s.iter().find(|x| x.name == "query").unwrap();
        assert!(root.parent.is_none());
        assert_eq!(root.id >> 40, 3);
        for child in s.iter().filter(|x| x.name != "query") {
            assert_eq!(child.parent, Some(root.id));
            assert_eq!(child.request, root.request);
        }
        assert_ne!(s[3].request, root.request);
        let mut off = SpanLog::new(Instant::now(), 0, false);
        off.span("query", |l| l.span("parse", |_| ()));
        assert!(off.spans().is_empty());
        assert!(to_json(s).contains("\"parse\":{\"count\":1"));
    }
}
