//! Spans recorded by the benchmark around its calls into the system's layers.
//!
//! A span is `(id, parent, name, start, end, thread)`. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer records
//! nothing and reads no clock, so untraced passes pay only a branch.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of one recorded span.
pub type SpanId = u64;

/// One finished span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// In-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id (`None` when disabled) so it can parent its own spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f(Some(id));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: THREAD_ID.with(|t| *t),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        result
    }

    /// Copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// For every span named `parent`, the summed duration in seconds of its
    /// direct children named `child`.
    pub fn child_seconds_per_parent(&self, parent: &str, child: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|p| p.name == parent)
            .map(|p| {
                spans
                    .iter()
                    .filter(|c| c.name == child && c.parent == Some(p.id))
                    .map(Span::seconds)
                    .sum()
            })
            .collect()
    }

    /// Write every span as a JSON document: `header` fields first, then the
    /// span list sorted by start time.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("{");
        for (key, value) in header {
            let _ = write!(out, "\"{key}\":\"{}\",", value.replace('"', "'"));
        }
        out.push_str("\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.thread
            );
        }
        out.push_str("\n]}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span("a", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_sum_under_their_parent() {
        let t = Tracer::new(true);
        for _ in 0..2 {
            t.span("setup", None, |p| {
                t.span("build", p, |_| ());
                t.span("build", p, |_| ());
                t.span("load", p, |_| ());
            });
        }
        assert_eq!(t.child_seconds_per_parent("setup", "build").len(), 2);
        assert_eq!(t.seconds_of("build").len(), 4);
        let spans = t.spans();
        let setup_ids: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "setup")
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == "build")
            .all(|s| setup_ids.contains(&s.parent.unwrap())));
    }
}
