//! In-memory span recording for the traced run.
//!
//! Spans are stamped by the benchmark around its own calls into each
//! layer (it does not instrument the library).  Each span carries its
//! name, start and end (ns since the tracer was built), its parent span
//! and the job it belongs to.  Nothing is written until the run ends.
//! A layer is the span name's prefix before the first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Span sink.  Recording is a no-op while the tracer is off, so the
/// untraced runs pay one relaxed load per would-be span.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was built.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id (0 while off: "no span").  Taken when the span
    /// opens, so children recorded earlier can name it as parent.
    pub fn id(&self) -> u64 {
        if self.on() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a closed span under a pre-taken `id` (0 = take one now).
    pub fn record(&self, id: u64, name: &'static str, job: u64, parent: u64, start: u64, end: u64) {
        if !self.on() {
            return;
        }
        let id = if id == 0 { self.id() } else { id };
        let span = Span {
            id,
            parent,
            job,
            name,
            start,
            end,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// The layer a span belongs to.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer self time in ns: each span's duration minus the part of its
/// interval covered by the union of its children.  Children of one span
/// may overlap (the pids of a force run concurrently).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered(kids, s.start, s.end))
            .unwrap_or(0);
        let e = out.entry(layer(s.name).to_string()).or_default();
        e.0 += dur.saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Write spans as JSON lines to `path` (directories created as needed).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.job, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "session.execute", 0, 100),
            span(2, 1, "core.pid", 10, 60),
            span(3, 1, "core.pid", 40, 90),
            span(4, 2, "core.barrier", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["session"], (20, 1));
        // pid spans: 50 + 50 minus the 10 ns barrier child.
        assert_eq!(t["core"], (90 + 10, 3));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.id(), 0);
        t.record(0, "serve.job", 1, 0, 0, 5);
        assert!(t.take().is_empty());
    }
}
