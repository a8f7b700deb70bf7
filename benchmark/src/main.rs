//! End-to-end and per-layer benchmark of the MQO pipeline.
//!
//! ```text
//! mqo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `pipeline-10k-capped`, `select-uncapped`, `serve-churn`
//! (see `README.md` in this directory). The run generates its inputs from
//! the seed, measures ops for `--seconds` seconds, checks every op's
//! output outside the timed region, and prints one JSON object as its
//! last line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes its spans to
//! `out/trace-<workload>-seed<n>.json` in this directory.

#![forbid(unsafe_code)]

mod batch;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// End-to-end metrics every workload reports, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("optimize_s", "s"),
    ("read_s", "s"),
    ("plan_cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics the traced run reports, with units. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("expand.s", "s"),
    ("expand.passes", "count"),
    ("expand.candidates", "count"),
    ("expand.exprs", "count"),
    ("expand.groups", "count"),
    ("expand.yield", "ratio"),
    ("compile.topo_s", "s"),
    ("compile.arenas_s", "s"),
    ("compile.states", "count"),
    ("universe", "count"),
    ("select.s", "s"),
    ("select.opt_s", "s"),
    ("select.extract_s", "s"),
    ("select.bc_calls", "count"),
    ("select.us_per_bc", "us"),
    ("select.ranked", "count"),
    ("select.ranked_ratio", "ratio"),
    ("select.materialized", "count"),
    ("teardown.s", "s"),
    ("oracle.evals_per_s", "1/s"),
    ("oracle.full_evals", "count"),
    ("oracle.overlay_evals", "count"),
    ("oracle.overlay_ratio", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.retire_s", "s"),
    ("serve.read_s", "s"),
    ("serve.snapshot_s", "s"),
    ("serve.rounds", "count"),
    ("serve.coalesced", "count"),
    ("serve.compactions", "count"),
    ("serve.compaction_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.failed_rounds", "count"),
    ("serve.history_len", "count"),
    ("serve.admit_p50_ms", "ms"),
    ("serve.admit_p90_ms", "ms"),
    ("serve.retire_p50_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.admits_per_s", "1/s"),
    ("serve.reads_per_s", "1/s"),
    ("self.op_s", "s"),
    ("self.setup_s", "s"),
    ("self.expand_s", "s"),
    ("self.compile.topo_s", "s"),
    ("self.compile.arenas_s", "s"),
    ("self.select_s", "s"),
    ("self.admit_s", "s"),
    ("self.retire_s", "s"),
    ("self.read_s", "s"),
    ("self.serve.snapshot_s", "s"),
    ("trace.optimize_s", "s"),
    ("trace.untraced_optimize_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("selftest.checks", "count"),
    ("parallel.optimize_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Child mode (`counters` or `setup`), run by the benchmark itself.
    pub child: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 7,
            seconds: 10.0,
            trace: false,
            child: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = parse_bool(&value).ok_or_else(|| bad(&"not 0/1"))?,
                "--child" => args.child = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed or whose output was wrong.
    pub failed: u64,
    /// Failed benchmark-level checks (self-test, span coverage, probe).
    pub check_failures: Vec<String>,
    /// Every measured value by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records an op's check result.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("op {}: {e}", self.attempted);
            }
        }
    }

    /// Records a benchmark-level check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The `p`-quantile of `xs` by nearest rank. When fewer than ten samples
/// lie beyond it, falls back through p99, p90, p75 to the median;
/// returns the value and the quantile actually reported.
pub fn percentile(xs: &[f64], p: f64) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, p);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |q: f64| ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    let ladder = [0.99, 0.9, 0.75, 0.5];
    let q = ladder
        .into_iter()
        .filter(|&q| q <= p)
        .find(|&q| v.len() - 1 - rank(q) >= 10)
        .unwrap_or(0.5);
    (v[rank(q)], q)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs this benchmark again as a child process in `mode`, with `env`
/// exported, and returns the last line it prints that starts with `mode`.
pub fn run_child(args: &Args, mode: &str, env: &[(&str, String)]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", mode])
        .envs(env.iter().map(|(k, v)| (k, v)))
        .output()
        .map_err(|e| format!("spawn {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find(|l| l.starts_with(mode))
        .map(str::to_string)
        .ok_or_else(|| format!("{mode} child printed nothing"))
}

/// Seconds of one set-up in each of `n` child processes. A set-up's speed
/// varies by up to a factor of two between processes and over seconds,
/// so each run takes its set-up samples in fresh processes at several
/// points of the run.
pub fn setup_children(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let line = run_child(args, "setup", &[])?;
            line["setup".len()..]
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("setup child printed {line:?}: {e}"))
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-churn" => serve::run(args),
        other => batch::run(batch::Kind::of(other)?, args),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mqo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = &args.child {
        let done = match (mode.as_str(), args.workload.as_str()) {
            ("counters", _) => batch::print_counters(&args),
            ("setup", "serve-churn") => serve::setup_secs().map(|s| println!("setup {s}")),
            ("setup", _) => batch::setup_secs(&args).map(|s| println!("setup {s}")),
            _ => Err(format!("unknown child mode {mode:?}")),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mqo-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mqo-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let non_finite: Vec<&str> = (out.values.iter())
        .filter(|(_, v)| !v.is_finite())
        .map(|(&name, _)| name)
        .collect();
    out.check(non_finite.is_empty(), || {
        format!("non-finite metrics {non_finite:?}")
    });

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = out.values.get(name) {
            println!("{name:>26} = {v} {unit}");
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("mqo-benchmark: workload did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    let correct = out.failed == 0 && out.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
