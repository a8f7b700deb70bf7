//! In-memory span recorder for the traced run.
//!
//! Each thread owns a [`Recorder`]. A span wraps one call into a layer's
//! public API and records its name, start, end, parent span and op id.
//! Spans stay in memory until the run ends, when [`write_trace`] writes
//! them out. A disabled recorder runs the wrapped call and reads no clock,
//! so the untraced ops of a run pay nothing for it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use crate::{median, Args, Outcome};

/// One finished span. Times are seconds since the run's clock origin.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub thread: u32,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder of one thread.
pub struct Recorder {
    origin: Instant,
    thread: u32,
    /// Whether the current op is traced.
    on: bool,
    op: u64,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Recorder {
            origin,
            thread,
            on: false,
            op: 0,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts op `op`; its spans are recorded only when `traced`.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.op = op;
        self.on = traced;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span of this thread.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = (u64::from(self.thread) << 40) | self.next;
        self.next += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let end_s = self.origin.elapsed().as_secs_f64();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            op: self.op,
            thread: self.thread,
            start_s,
            end_s,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations of every span named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Seconds of each span's interval covered by its direct children.
fn child_secs(spans: &[Span]) -> HashMap<u64, f64> {
    let mut covered = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_insert(0.0) += s.secs();
        }
    }
    covered
}

/// Mean self time per span, by span name: a span's duration minus the
/// part of it its child spans cover.
pub fn mean_self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let covered = child_secs(spans);
    let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let own = s.secs() - covered.get(&s.id).copied().unwrap_or(0.0);
        let e = sums.entry(s.name).or_insert((0.0, 0));
        e.0 += own;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(name, (sum, n))| (name, sum / n as f64))
        .collect()
}

/// Smallest share of an op's wall time that the `layers` spans cover,
/// over every op; `None` when there are none. An op's wall time is the
/// sum of its spans named in `whole`.
pub fn min_coverage(spans: &[Span], whole: &[&str], layers: &[&str]) -> Option<f64> {
    let mut per_op: BTreeMap<(u32, u64), (f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = per_op.entry((s.thread, s.op)).or_default();
        if layers.contains(&s.name) {
            e.0 += s.secs();
        }
        if whole.contains(&s.name) {
            e.1 += s.secs();
        }
    }
    per_op
        .values()
        .filter(|&&(_, t)| t > 0.0)
        .map(|&(c, t)| c / t)
        .min_by(f64::total_cmp)
}

/// Span-derived metrics shared by every workload: layer times, self
/// times and the tracing overhead.
pub fn layer_metrics(spans: &[Span], out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    for (metric, span) in [
        ("expand.s", "expand"),
        ("compile.topo_s", "compile.topo"),
        ("compile.arenas_s", "compile.arenas"),
        ("select.s", "select"),
        ("teardown.s", "teardown"),
        ("serve.admit_s", "admit"),
        ("serve.retire_s", "retire"),
        ("serve.read_s", "read"),
        ("serve.snapshot_s", "serve.snapshot"),
    ] {
        let d = durations(spans, span);
        if !d.is_empty() {
            out.set(metric, median(&d));
        }
    }
    for (span, secs) in mean_self_secs(spans) {
        let metric = match span {
            "op" => "self.op_s",
            "setup" => "self.setup_s",
            "expand" => "self.expand_s",
            "compile.topo" => "self.compile.topo_s",
            "compile.arenas" => "self.compile.arenas_s",
            "select" => "self.select_s",
            "admit" => "self.admit_s",
            "retire" => "self.retire_s",
            "read" => "self.read_s",
            "serve.snapshot" => "self.serve.snapshot_s",
            _ => continue,
        };
        out.set(metric, secs);
    }
    out.set("trace.optimize_s", median(traced));
    out.set("trace.untraced_optimize_s", median(untraced));
    out.set("trace.overhead_s", median(traced) - median(untraced));
    out.set("trace.spans", spans.len() as f64);
}

/// Writes the traced run's spans next to this package's sources, as a
/// JSON array with one span per line.
pub fn write_trace(args: &Args, spans: &[Span]) -> Result<(), String> {
    let mut json = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            json,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"thread\": {}, \"start_s\": {}, \"end_s\": {}}}",
            s.id, s.name, s.op, s.thread, s.start_s, s.end_s
        );
        json.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    json.push_str("]\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
