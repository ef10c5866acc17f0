//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! a layer: name, start, end, the enclosing span, and the id of the
//! operation they belong to. Phase timings a call already returns
//! (`PhaseTimings`, `InferTimings`) are added as child spans laid end to
//! end from the call's start, so self time and the uncovered remainder
//! come out of one computation. The spans are written as Chrome
//! trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span durations inside one operation, in ms.
pub struct OpTimes {
    by_name: BTreeMap<&'static str, f64>,
}

impl OpTimes {
    pub fn of(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for a new operation. Spans an earlier operation
    /// left open (it crashed) are closed first.
    pub fn begin_op(&mut self, name: &'static str) {
        while !self.open.is_empty() {
            self.end();
        }
        self.next_op += 1;
        self.begin(name);
    }

    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.next_op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> Duration {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = self.now_ns();
        Duration::from_nanos(self.spans[i].end_ns - self.spans[i].start_ns)
    }

    /// Times `f` as a child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds phases the called code timed itself as children of the most
    /// recently closed span with `parent_name`, laid end to end from its
    /// start.
    pub fn phases(&mut self, parent_name: &'static str, phases: &[(&'static str, Duration)]) {
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let (mut at, op) = (self.spans[p].start_ns, self.spans[p].op);
        for &(name, d) in phases {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(p),
                op,
            });
            at = end;
        }
    }

    /// Durations of the spans inside the most recent operation, summed by
    /// name.
    pub fn last_op(&self) -> OpTimes {
        let root = self
            .spans
            .iter()
            .rposition(|s| s.parent.is_none())
            .expect("an operation was recorded");
        let op = self.spans[root].op;
        let mut by_name = BTreeMap::new();
        for s in self.spans[root + 1..].iter().filter(|s| s.op == op) {
            *by_name.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        OpTimes { by_name }
    }

    pub fn ops(&self) -> u64 {
        self.next_op
    }

    /// Mean self time per span name in ms: each span's duration minus
    /// the time its direct children cover, averaged over its calls. For
    /// an operation's root span, that is the part no layer span covers.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            let e = sums.entry(s.name).or_insert((0.0, 0));
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(name, (ms, n))| (name, ms / n as f64))
            .collect()
    }

    /// Writes every span as Chrome trace-event JSON (open it in Perfetto
    /// or chrome://tracing); `tid` is the operation id.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
