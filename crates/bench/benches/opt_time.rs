// mqo-lint: allow-file(wall-clock) -- measurement code: raw Instant reads are this file's
// entire purpose; optimization decisions never depend on them.
//! Benchmark behind Figures 4c and 5c: optimization time of stand-alone
//! Volcano, Greedy, and MarginalGreedy per workload — plus the `extract`
//! series measuring consolidated-plan extraction off the compiled engine
//! arenas.
//!
//! The paper plots the opt-time figures in log scale to show Greedy and
//! MarginalGreedy nearly coinciding; the groups here measure the same
//! quantity (DAG construction is excluded — the paper measures the
//! node-selection phase on an already-built DAG). Every `RunReport` also
//! carries `extract_time`, the wall-clock of reading the consolidated
//! physical plan straight from the engine's dense arenas; the `extract`
//! series records it per workload.
//!
//! Set `MQO_BENCH_JSON=<path>` to record the extract series as a JSON
//! baseline (`scripts/verify.sh --bench-smoke` writes
//! `BENCH_opt_time.json` at the repo root this way). Every entry carries a
//! `threads` field — `verify.sh` refuses baselines without one.
//!
//! Both series report the phase timings the reports measure internally
//! (`opt_time`, `extract_time`) rather than closure wall-clock, so
//! neither metric contaminates the other; knobs: `MQO_BENCH_SAMPLES`
//! (zero-dependency harness, no criterion — the build is offline).

use std::time::{Duration, Instant};

use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::Strategy;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

fn build(i: usize) -> OptimizedBatch {
    let w = mqo_tpcd::batched(i, 1.0);
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .build()
}

fn samples_from_env(default: usize) -> usize {
    std::env::var("MQO_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(default)
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Times `session.run(s)` repeatedly but reports the report's own
/// `opt_time` — the node-selection phase only, the Figure 4c/5c metric
/// (each run also extracts the consolidated plan, which must not leak
/// into this series; the extraction wall-clock is the separate `extract`
/// series below).
fn bench_opt_series(
    group: &str,
    id: String,
    session: &OptimizedBatch,
    s: Strategy,
    samples: usize,
) {
    let _warmup = session.run(s);
    let mut times: Vec<Duration> = (0..samples).map(|_| session.run(s).opt_time).collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!(
        "{group}/{id}: median {} over {} sample(s)  [min {}, max {}]",
        fmt_duration(median),
        times.len(),
        fmt_duration(times[0]),
        fmt_duration(times[times.len() - 1]),
    );
}

fn bench_batched(samples: usize) {
    for i in [2usize, 4, 6] {
        let session = build(i);
        for s in [
            Strategy::Volcano,
            Strategy::Greedy,
            Strategy::MarginalGreedy,
        ] {
            bench_opt_series(
                "figure4c_opt_time",
                format!("{}/BQ{i}", s.name()),
                &session,
                s,
                samples,
            );
        }
    }
    println!();
}

fn bench_standalone(samples: usize) {
    for name in mqo_tpcd::STANDALONE_NAMES {
        let w = mqo_tpcd::standalone(name, 1.0);
        let session = Session::builder()
            .context(w.ctx)
            .queries(w.queries)
            .rules(RuleSet::default())
            .cost_model(DiskCostModel::paper())
            .build();
        for s in [
            Strategy::Volcano,
            Strategy::Greedy,
            Strategy::MarginalGreedy,
        ] {
            bench_opt_series(
                "figure5c_opt_time",
                format!("{}/{name}", s.name()),
                &session,
                s,
                samples,
            );
        }
    }
    println!();
}

struct ExtractResult {
    workload: String,
    strategy: &'static str,
    threads: usize,
    materializations: usize,
    secs: f64,
}

/// The `extract` series: per workload, the minimum observed
/// consolidated-plan extraction time (each `run` measures it internally
/// around the arena extractor only, excluding selection and engine
/// compilation).
fn bench_extract(samples: usize) -> Vec<ExtractResult> {
    let mut results = Vec::new();
    for i in [2usize, 4, 6] {
        let session = build(i);
        let threads = session.config().threads;
        for s in [Strategy::Greedy, Strategy::MarginalGreedy] {
            // Warmup run (also compiles the cached snapshot).
            let mut report = session.run(s);
            let mut best = report.extract_time;
            for _ in 0..samples {
                report = session.run(s);
                best = best.min(report.extract_time);
            }
            let r = ExtractResult {
                workload: format!("BQ{i}"),
                strategy: s.name(),
                threads,
                materializations: report.materialized.len(),
                secs: best.as_secs_f64(),
            };
            println!(
                "extract/{}/{}: {:.1} µs ({} materializations + {} query plans, best of {samples})",
                r.strategy,
                r.workload,
                r.secs * 1e6,
                r.materializations,
                report.plan.query_plans.len(),
            );
            results.push(r);
        }
    }
    println!();
    results
}

struct EvolveResult {
    workload: String,
    op: &'static str,
    threads: usize,
    secs: f64,
}

/// The `session_evolve` series: per batch BQ3..BQ6, the median time to
/// `add_query` the batch's last query onto a live session of the others,
/// to `retire_query` it again (restoring the base via the savepoint fast
/// path), and — the comparison baseline — to rebuild the full batch from
/// scratch with `Session::build` (insertion + fixpoint expansion +
/// universe computation, i.e. everything the incremental add avoids
/// repeating). An add/retire cycle leaves the session in its base state,
/// so the cycles repeat on one long-lived session, exactly the serving
/// pattern the evolvable API exists for.
fn bench_session_evolve(samples: usize) -> Vec<EvolveResult> {
    fn median(mut times: Vec<Duration>) -> f64 {
        times.sort_unstable();
        times[times.len() / 2].as_secs_f64()
    }
    let mut results = Vec::new();
    for i in [3usize, 4, 5, 6] {
        let w = mqo_tpcd::batched(i, 1.0);
        let base: Vec<_> = w.queries[..w.queries.len() - 1].to_vec();
        let last = w.queries.last().expect("non-empty batch").clone();
        let mut session = Session::builder()
            .context(w.ctx)
            .queries(base)
            .rules(RuleSet::default())
            .cost_model(DiskCostModel::paper())
            .build();
        let threads = session.config().threads;
        // Warmup cycle (also faults in the allocator's arenas).
        let t = session.add_query(last.clone());
        session.retire_query(t);
        let (mut add_times, mut retire_times) = (Vec::new(), Vec::new());
        for _ in 0..samples {
            let start = Instant::now();
            let t = session.add_query(last.clone());
            add_times.push(start.elapsed());
            let start = Instant::now();
            session.retire_query(t);
            retire_times.push(start.elapsed());
        }
        let rebuild_times: Vec<Duration> = (0..samples)
            .map(|_| {
                let w = mqo_tpcd::batched(i, 1.0);
                let start = Instant::now();
                let full = Session::builder()
                    .context(w.ctx)
                    .queries(w.queries)
                    .rules(RuleSet::default())
                    .cost_model(DiskCostModel::paper())
                    .build();
                let elapsed = start.elapsed();
                drop(full);
                elapsed
            })
            .collect();
        let (add, retire, rebuild) = (
            median(add_times),
            median(retire_times),
            median(rebuild_times),
        );
        println!(
            "session_evolve/BQ{i}: add {} retire {} rebuild {} (add is {:.1}x faster than rebuild)",
            fmt_duration(Duration::from_secs_f64(add)),
            fmt_duration(Duration::from_secs_f64(retire)),
            fmt_duration(Duration::from_secs_f64(rebuild)),
            rebuild / add.max(1e-12),
        );
        for (op, secs) in [("add", add), ("retire", retire), ("rebuild", rebuild)] {
            results.push(EvolveResult {
                workload: format!("BQ{i}"),
                op,
                threads,
                secs,
            });
        }
    }
    println!();
    results
}

fn main() {
    let samples = samples_from_env(5);
    bench_batched(samples);
    bench_standalone(samples);
    let extract = bench_extract(samples);
    let evolve = bench_session_evolve(samples);

    if let Ok(path) = std::env::var("MQO_BENCH_JSON") {
        let mut entries: Vec<String> = extract
            .iter()
            .map(|r| {
                format!(
                    "    {{\"mode\": \"extract\", \"workload\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \"materializations\": {}, \"secs\": {:.9}}}",
                    r.workload, r.strategy, r.threads, r.materializations, r.secs
                )
            })
            .collect();
        entries.extend(evolve.iter().map(|r| {
            format!(
                "    {{\"mode\": \"session_evolve\", \"workload\": \"{}\", \"op\": \"{}\", \"threads\": {}, \"secs\": {:.9}}}",
                r.workload, r.op, r.threads, r.secs
            )
        }));
        let json = format!(
            "{{\n  \"bench\": \"opt_time\",\n  \"samples\": {samples},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write MQO_BENCH_JSON baseline");
        println!("opt_time: baseline written to {path}");
    }
}
