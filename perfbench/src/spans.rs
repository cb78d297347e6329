//! In-memory spans for the traced run.
//!
//! A span covers one *batch* of calls into a layer (never one packet), so
//! the clock reads stay a rounding error next to the work they time. Spans
//! are kept until the run ends; a layer's self time is its span's duration
//! minus the part its direct child spans cover.

use std::time::Instant;

/// One timed interval: what ran, when, and inside which span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or stage name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus its direct children's
    /// durations), indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Summed self time of all spans named `name`.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns)
            .sum()
    }

    /// Summed wall duration of all spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Forget every recorded span (open spans must all be closed).
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }
}

/// Self time of each span: its duration minus the durations of the spans
/// whose parent it is. Children of a single-threaded span nest inside it
/// and never overlap each other, so their durations add up to the part of
/// the parent they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}
