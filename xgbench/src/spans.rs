//! In-memory spans around the benchmark's calls into the program, written
//! out once at the end of a traced run.

use crate::jstr;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are microseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed (`setup`, `run`, `campaign`, `submit`, `job`, …).
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch (equal to start for an observed event).
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job / request / repetition id shared by the spans of one request.
    pub id: String,
}

/// The span list of one run; recording is a no-op unless enabled.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new(false)
    }
}

impl Spans {
    /// An empty list whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            list: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record a finished span; returns its index (for children).
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: impl Into<String>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            id: id.into(),
        };
        self.list.push(span);
        Some(self.list.len() - 1)
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.add(name, t0, t1, parent, id);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Recorded spans.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Write the spans as a JSON array (one span per line).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.list.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"index\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \
                 \"parent\": {parent}, \"id\": {}}}{}",
                jstr(sp.name),
                sp.start_us,
                sp.end_us,
                jstr(&sp.id),
                if i + 1 < self.list.len() { "," } else { "" }
            );
        }
        s.push_str("]\n");
        std::fs::write(path, s)
    }
}
