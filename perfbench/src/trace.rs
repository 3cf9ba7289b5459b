//! Spans recorded in memory around each call the benchmark makes into a
//! layer of the program, and written out when the run ends. The program
//! itself carries no instrumentation for this: a span starts just before
//! a public call and ends just after it.
//!
//! Each thread owns a [`Tracer`]. A span has a name (`layer.call`), a
//! start and an end, the span open around it on the same thread (its
//! parent) and a request id shared by the spans of one request. A span's
//! self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::Reservoir;

/// Span records kept per thread for the trace file; aggregates below
/// count every span regardless.
const SPAN_CAP: usize = 100_000;
/// Durations kept per span name for quantiles.
const DURATION_SAMPLES: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub thread: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanStats {
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Reservoir,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    req: u64,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    thread: &'static str,
    origin: Instant,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<SpanRecord>,
    stats: BTreeMap<&'static str, SpanStats>,
}

impl Tracer {
    /// A tracer for one thread. `thread_ix` keeps span ids unique across
    /// threads; `origin` is the instant all threads' timestamps count
    /// from.
    pub fn new(thread: &'static str, thread_ix: u64, origin: Instant, on: bool) -> Self {
        Tracer {
            on,
            thread,
            origin,
            next_id: thread_ix << 48,
            open: Vec::new(),
            spans: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; only between requests, with no span
    /// open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, req: u64) {
        if self.on {
            self.open_at(name, req, Instant::now());
        }
    }

    pub fn exit(&mut self) {
        if self.on {
            self.close_at(Instant::now());
        }
    }

    fn open_at(&mut self, name: &'static str, req: u64, start: Instant) {
        self.next_id += 1;
        self.open.push(Open {
            name,
            id: self.next_id,
            req,
            start,
            child_ns: 0,
        });
    }

    fn close_at(&mut self, end: Instant) {
        let span = self.open.pop().expect("span exit without a matching enter");
        let dur = (end - span.start).as_nanos() as u64;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let stats = self.stats.entry(span.name).or_insert_with(|| SpanStats {
            total_ns: 0,
            self_ns: 0,
            durations_ns: Reservoir::new(DURATION_SAMPLES, span.id),
        });
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(span.child_ns);
        stats.durations_ns.push(dur as f64);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRecord {
                name: span.name,
                thread: self.thread,
                id: span.id,
                parent,
                req: span.req,
                start_ns: (span.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a span and returns its result with its wall time,
    /// which is measured whether or not tracing is on. The span shares
    /// the two clock reads of that measurement.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        if self.on {
            self.open_at(name, req, start);
        }
        let out = f();
        let end = Instant::now();
        if self.on {
            self.close_at(end);
        }
        (out, end - start)
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, theirs) in other.stats {
            match self.stats.get_mut(name) {
                None => {
                    self.stats.insert(name, theirs);
                }
                Some(ours) => {
                    ours.total_ns += theirs.total_ns;
                    ours.self_ns += theirs.self_ns;
                    for &d in theirs.durations_ns.values() {
                        ours.durations_ns.push(d);
                    }
                }
            }
        }
    }

    /// Quantile `q` of the durations of spans named `name`, in ns (0 if
    /// none was recorded).
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        self.stats
            .get(name)
            .map_or(0.0, |s| s.durations_ns.quantile(q))
    }

    /// Total self time of the spans whose name starts with `layer.`, in
    /// ns.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.stats
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Writes every kept span as JSON, ordered by start time.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"thread\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.id, parent, s.req, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut tr = Tracer::new("t", 1, Instant::now(), true);
        tr.enter("reader.read", 7);
        tr.time("walk.lookup", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tr.exit();
        let walk = &tr.stats["walk.lookup"];
        let read = &tr.stats["reader.read"];
        assert!(read.total_ns >= walk.total_ns);
        assert_eq!(read.self_ns, read.total_ns - walk.total_ns);
        let (child, parent) = (tr.spans[0], tr.spans[1]);
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!((child.req, parent.req), (7, 7));
        assert_eq!(tr.layer_self_ns("walk"), walk.self_ns);
    }

    #[test]
    fn an_idle_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new("t", 1, Instant::now(), false);
        let ((), dt) = tr.time("walk.lookup", 0, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(dt >= Duration::from_millis(1));
        assert!(tr.spans.is_empty() && tr.stats.is_empty());
    }
}
