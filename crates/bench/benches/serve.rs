// mqo-lint: allow-file(wall-clock) -- measurement code: raw Instant reads are this file's
// entire purpose; optimization decisions never depend on them.
//! Serving-layer benchmark: what does it cost to keep a live MQO service
//! hot, versus rebuilding the batch per arrival?
//!
//! Series, each at engine thread counts 1 and 4 (the `threads` field):
//!
//! - `admission` — median wall-clock of `submit_query` admitting one
//!   query into a warm BQ4-scale service: queue push, writer election,
//!   seeded incremental expansion, snapshot compile, publish. The number
//!   the serving layer exists for: it must beat `rebuild` by a wide
//!   margin (the recorded `speedup_vs_rebuild` is the gate; ≥3× at
//!   `threads: 1`).
//! - `rebuild` — the per-arrival alternative: `Session::build` over the
//!   full query set plus the first snapshot compile.
//! - `round` — seconds per optimization round under `threads` concurrent
//!   submitters hammering submit/retire cycles (flat-combining coalescing
//!   makes this diverge from `admission` under contention); the printed
//!   rounds/sec is `1/secs`.
//! - `snapshot_clone` — cost of a reader grabbing the published
//!   `Arc<EngineState>` (lock + `Arc` clone; amortized over a tight
//!   loop).
//! - `engine_spinup` — cost of turning a held snapshot into a private
//!   `BestCostEngine` handle (two base-vector copies, no DP re-solve).
//! - `degraded_round` — the fault-tolerance path: wall-clock of one
//!   admission followed by a deadline-hit `run_class(Interactive)` read
//!   (zero Interactive budget, so the optimization degrades to the
//!   certified no-sharing answer immediately). The entry also records
//!   `certified_gap`: the certified approximation ratio of a
//!   deterministic degraded run (marginal floor `f64::MAX` — one full
//!   observation round, then cut), which is machine-independent, finite,
//!   and what `verify.sh` checks against the recorded baseline.
//!
//! Set `MQO_BENCH_JSON=<path>` to record the series as a JSON baseline
//! (`scripts/verify.sh --bench-smoke` writes `BENCH_serve.json` at the
//! repo root this way). Every entry carries a `threads` field —
//! `verify.sh` refuses baselines without one. Knobs: `MQO_BENCH_SAMPLES`
//! (zero-dependency harness, no criterion — the build is offline).

use std::time::{Duration, Instant};

use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::Strategy;
use mqo_core::{MqoConfig, PriorityClass, ServeConfig};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;
use mqo_volcano::PlanNode;

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

fn median(mut times: Vec<Duration>) -> f64 {
    times.sort_unstable();
    times[times.len() / 2].as_secs_f64()
}

/// BQ4 minus its last query (the base the warm service holds), plus that
/// last query (the arrival every series admits).
fn build_base(threads: usize) -> (OptimizedBatch, PlanNode) {
    let w = mqo_tpcd::batched(4, 1.0);
    let mut queries = w.queries;
    let extra = queries.pop().expect("BQ4 is non-empty");
    let batch = Session::builder()
        .context(w.ctx)
        .queries(queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .threads(threads)
        .build();
    (batch, extra)
}

struct ServeResult {
    series: &'static str,
    threads: usize,
    secs: f64,
    /// Only set on the `admission` series: rebuild ÷ admission.
    speedup_vs_rebuild: Option<f64>,
    /// Only set on the `degraded_round` series: the certified
    /// approximation ratio of the deterministic floored run.
    certified_gap: Option<f64>,
}

fn bench_threads(threads: usize, samples: usize, results: &mut Vec<ServeResult>) {
    let (batch, extra) = build_base(threads);
    let service = batch.serve();
    // Warm cycle: faults in the snapshot cache, arenas, and allocator.
    let t = service.submit_query(extra.clone());
    service.retire_query(t);

    // admission: one arrival into the warm service (retire outside the
    // timed region restores the base for the next sample).
    let admission = median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                let t = service.submit_query(extra.clone());
                let elapsed = start.elapsed();
                service.retire_query(t);
                elapsed
            })
            .collect(),
    );

    // rebuild: the per-arrival alternative — full batch build plus the
    // first snapshot compile.
    let rebuild = median(
        (0..samples)
            .map(|_| {
                let w = mqo_tpcd::batched(4, 1.0);
                let start = Instant::now();
                let full = Session::builder()
                    .context(w.ctx)
                    .queries(w.queries)
                    .rules(RuleSet::default())
                    .cost_model(DiskCostModel::paper())
                    .threads(threads)
                    .build();
                let _ = full.snapshot();
                let elapsed = start.elapsed();
                drop(full);
                elapsed
            })
            .collect(),
    );

    // round: `threads` concurrent submitters doing submit/retire cycles;
    // flat combining coalesces them into fewer (bigger) rounds.
    let cycles_per_thread = (4 * samples).max(8);
    let rounds_before = service.stats().rounds;
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let service = &service;
            let extra = &extra;
            s.spawn(move || {
                for _ in 0..cycles_per_thread {
                    let t = service.submit_query(extra.clone());
                    service.retire_query(t);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let rounds = (service.stats().rounds - rounds_before).max(1);
    let secs_per_round = elapsed / rounds as f64;

    // snapshot_clone: amortized over a tight loop (it is an Arc clone).
    const CLONES: usize = 4096;
    let snapshot_clone = median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..CLONES {
                    std::hint::black_box(service.snapshot());
                }
                start.elapsed() / CLONES as u32
            })
            .collect(),
    );

    // engine_spinup: held snapshot → private engine handle.
    let config = MqoConfig {
        threads,
        ..MqoConfig::default()
    };
    let state = service.snapshot();
    let engine_spinup = median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(state.engine(config));
                start.elapsed()
            })
            .collect(),
    );
    let batch = service.finish();

    // degraded_round: admission plus a deadline-hit Interactive read on a
    // service with a zero Interactive budget — the latency a
    // latency-critical caller pays for a certified partial answer while
    // the batch keeps evolving.
    let service = batch.serve_with(ServeConfig {
        class_budgets: [Some(Duration::ZERO), None, None],
        ..ServeConfig::default()
    });
    let degraded_round = median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                let t = service.submit_query(extra.clone());
                let report = service.run_class(PriorityClass::Interactive);
                let elapsed = start.elapsed();
                assert!(
                    report
                        .gap_certificate
                        .is_some_and(|c| c.truncated && c.ratio >= 1.0),
                    "zero-budget read must come back certified-truncated"
                );
                service.retire_query(t);
                elapsed
            })
            .collect(),
    );
    // The machine-independent certified gap of a deterministic degraded
    // run: the floor cuts after one full observation round, so the
    // certificate is finite and bit-stable across hosts and thread
    // counts (unlike wall-clock deadline truncation).
    let floored = MqoConfig {
        threads,
        marginal_floor: f64::MAX,
        ..MqoConfig::default()
    };
    let certified_gap = {
        let cert = service
            .snapshot()
            .run(Strategy::MarginalGreedy, floored)
            .gap_certificate
            .expect("greedy strategies certify");
        assert!(cert.truncated && cert.ratio.is_finite());
        cert.ratio
    };
    drop(service.finish());

    let speedup = rebuild / admission.max(1e-12);
    println!(
        "serve/BQ4 threads={threads}: admission {} rebuild {} ({speedup:.1}x) \
         round {} ({:.0} rounds/s) snapshot_clone {} engine_spinup {}",
        fmt_duration(Duration::from_secs_f64(admission)),
        fmt_duration(Duration::from_secs_f64(rebuild)),
        fmt_duration(Duration::from_secs_f64(secs_per_round)),
        1.0 / secs_per_round.max(1e-12),
        fmt_duration(Duration::from_secs_f64(snapshot_clone)),
        fmt_duration(Duration::from_secs_f64(engine_spinup)),
    );
    println!(
        "serve/BQ4 threads={threads}: degraded_round {} (certified gap {certified_gap:.4})",
        fmt_duration(Duration::from_secs_f64(degraded_round)),
    );
    if threads == 1 && speedup < 3.0 {
        println!(
            "serve/BQ4 threads={threads}: WARNING admission speedup {speedup:.2}x \
             below the 3x acceptance bar"
        );
    }
    for (series, secs, speedup_vs_rebuild, gap) in [
        ("admission", admission, Some(speedup), None),
        ("rebuild", rebuild, None, None),
        ("round", secs_per_round, None, None),
        ("snapshot_clone", snapshot_clone, None, None),
        ("engine_spinup", engine_spinup, None, None),
        ("degraded_round", degraded_round, None, Some(certified_gap)),
    ] {
        results.push(ServeResult {
            series,
            threads,
            secs,
            speedup_vs_rebuild,
            certified_gap: gap,
        });
    }
}

fn main() {
    let samples = samples_from_env(5);
    let mut results = Vec::new();
    for threads in [1usize, 4] {
        bench_threads(threads, samples, &mut results);
    }

    if let Ok(path) = std::env::var("MQO_BENCH_JSON") {
        let entries: Vec<String> = results
            .iter()
            .map(|r| {
                let speedup = r
                    .speedup_vs_rebuild
                    .map(|s| format!(", \"speedup_vs_rebuild\": {s:.3}"))
                    .unwrap_or_default();
                let gap = r
                    .certified_gap
                    .map(|g| format!(", \"certified_gap\": {g:.6}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"series\": \"{}\", \"workload\": \"BQ4\", \"threads\": {}, \"secs\": {:.9}{speedup}{gap}}}",
                    r.series, r.threads, r.secs
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"samples\": {samples},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write MQO_BENCH_JSON baseline");
        println!("serve: baseline written to {path}");
    }
}
