//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end (nanoseconds since the recorder's
//! origin), the index of its parent span and the id of the operation it
//! belongs to. Spans are recorded from the benchmark's own code, around calls
//! into the workspace's public functions; nothing inside the program is
//! instrumented. A disabled recorder records nothing, so the untraced run
//! pays one branch per boundary.
//!
//! Span names are `<layer>.<what>`; the layer prefix (`serve`, `core`,
//! `problems`, `trees`, `algorithms`, `verify`) groups self time per crate,
//! and `op` marks the root span of one end-to-end operation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent (a root span).
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Static `<layer>.<what>` name.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(u32);

/// Records spans of one thread. Nesting follows `begin`/`end` order.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes a span opened by [`Self::begin`] (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now();
        debug_assert_eq!(self.stack.last().copied(), Some(open.0));
        self.stack.pop();
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Closes a span under a name chosen once its outcome is known (a memo
    /// hit or miss, say).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        if self.on {
            self.spans[open.0 as usize].name = name;
        }
        self.end(open);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Appends another thread's spans (parent indices are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total duration (ns) of every span with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Self time per layer prefix (ns) over the span trees rooted at spans
    /// named `root`: each span's duration minus the time its direct children
    /// cover. Children run sequentially inside their parent on one thread,
    /// so their durations add without overlap. Spans outside those trees
    /// (probes timed beside an operation) are left out.
    pub fn self_ns_by_layer(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root_of = vec![""; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                root_of[i] = s.name;
            } else {
                child_ns[s.parent as usize] += s.ns();
                root_of[i] = root_of[s.parent as usize];
            }
        }
        let mut out = BTreeMap::new();
        for ((s, &covered), &r) in self.spans.iter().zip(&child_ns).zip(&root_of) {
            if r != root {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += s.ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one CSV line (`name,start_ns,end_ns,parent,op`;
    /// parent `-` for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,op")?;
        for s in &self.spans {
            if s.parent == ROOT {
                writeln!(out, "{},{},{},-,{}", s.name, s.start_ns, s.end_ns, s.op)?;
            } else {
                writeln!(
                    out,
                    "{},{},{},{},{}",
                    s.name, s.start_ns, s.end_ns, s.parent, s.op
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.begin("op", 0);
        let inner = t.begin("core.x", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(op);
        let probe = t.begin("core.y", 0);
        t.end(probe);
        let by_layer = t.self_ns_by_layer("op");
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.total_ns("op"));
        assert!(by_layer["core"] >= 2_000_000);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("op", 1);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
