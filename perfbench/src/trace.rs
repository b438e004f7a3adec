//! In-memory span recorder for the traced run.
//!
//! Each span is one call from the benchmark into a layer's public function:
//! a name whose prefix before the first `.` is the layer (`sim.issue_query`
//! belongs to `sim`), start and end in nanoseconds since the recorder was
//! made, the enclosing span, and the id of the query it served (0 for
//! set-up work). Spans are kept in memory and written out once, at the end
//! of the run. A disabled recorder records nothing and costs one branch
//! per call, so the untraced run measures the system alone.
//!
//! Span times read the recording thread's CPU clock. It does not advance
//! while the thread sleeps or blocks, so a harness loop that waits on the
//! system is charged only for the work it does itself, and it does not
//! advance while a virtual machine's CPU is taken by other guests.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::probes::thread_cpu_s;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// Start, thread CPU ns since the recorder was made.
    pub start_ns: u64,
    /// End, thread CPU ns since the recorder was made (`u64::MAX` while
    /// open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The query this span served; 0 for set-up work.
    pub query: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    cpu0: f64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            cpu0: thread_cpu_s(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off from now on (open spans still close).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        ((thread_cpu_s() - self.cpu0) * 1e9) as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let i = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent,
            query,
        });
        self.stack.push(i);
        Open(Some(i))
    }

    /// Closes `span` (spans close innermost first).
    pub fn end(&mut self, span: Open) {
        let Some(i) = span.0 else { return };
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(i), "spans must close innermost first");
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, query);
        let out = f();
        self.end(s);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Self time per layer, in seconds: each span's duration minus the part
    /// of it its child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.query
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.query", 7);
        spin(200_000);
        t.span("sim.issue_query", 7, || spin(1_000_000));
        t.span("sim.route", 7, || spin(1_000_000));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 7));
        let by_layer = t.self_time_by_layer();
        let sim = by_layer["sim"];
        let bench = by_layer["bench"];
        assert!(sim >= 0.002, "sim self {sim}");
        assert!(bench >= 0.0002 && bench < sim, "bench self {bench}");
        let total: f64 = by_layer.values().sum();
        assert!((total - spans[0].dur_ns() as f64 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn cpu_clock_excludes_sleep() {
        let mut t = Tracer::new(true);
        t.span("bench.sleep", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(30))
        });
        t.span("bench.spin", 0, || spin(30_000_000));
        let sleep = t.spans()[0].dur_ns();
        let spin_ns = t.spans()[1].dur_ns();
        assert!(sleep < 5_000_000, "sleeping is not CPU time: {sleep} ns");
        assert!(spin_ns > 5_000_000, "spinning is: {spin_ns} ns");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("sim.populate", 0);
        t.end(s);
        assert_eq!(t.span("core.x", 0, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
