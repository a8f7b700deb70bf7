// mqo-lint: allow-file(wall-clock) -- measurement code: raw Instant reads are this file's
// entire purpose; optimization decisions never depend on them.
//! Benchmark of the memo-expansion pipeline: end-to-end `BatchDag::build`
//! wall time (query insertion + rule fixpoint + shareable-universe scan)
//! and raw expansion throughput (live expressions produced per second).
//!
//! Series:
//!
//! * `build@t` on the TPCD batches BQ3 and BQ4 for `t ∈ {1, 2, 4}` —
//!   `BatchDag::build_with_threads`: the frontier fixpoint's candidate
//!   generation fanned out over `t` scoped worker threads (the commit
//!   phase is always serial and deterministic, so the resulting memo is
//!   bit-identical at every `t`; see
//!   `crates/volcano/tests/memo_differential.rs`).
//! * `build@1` on `scale-10k` ([`WorkloadSpec::scale_10k`] with generator
//!   seed 7, ~53k live expressions), in recording runs only (it takes
//!   seconds per sample).
//!
//! Every entry records the candidates that survived generation next to
//! `exprs`, so the share of rule applications pruned before commit is on
//! file beside the wall time.
//!
//! Set `MQO_BENCH_JSON=<path>` to record the results as a JSON baseline
//! (`scripts/verify.sh --bench-smoke` writes `BENCH_memo_expand.json` at
//! the repo root this way). Every entry carries a `threads` field —
//! `verify.sh` refuses baselines without one, and one without the
//! scale-10k entry or its `candidates` field.

use std::time::Instant;

use mqo_core::batch::BatchDag;
use mqo_tpcd::workloads::{generate, WorkloadSpec};
use mqo_volcano::rules::{ExpansionStats, RuleSet};
use mqo_volcano::{DagContext, PlanNode};

struct SeriesResult {
    workload: String,
    threads: usize,
    /// Live expressions in the expanded memo (throughput denominator).
    exprs: usize,
    groups: usize,
    /// Candidates that survived generation across the fixpoint's rounds.
    candidates: usize,
    secs: f64,
}

impl SeriesResult {
    fn expansions_per_sec(&self) -> f64 {
        self.exprs as f64 / self.secs.max(1e-12)
    }
}

fn run_series(
    workload: &str,
    make: impl Fn() -> (DagContext, Vec<PlanNode>),
    threads: usize,
    samples: usize,
) -> SeriesResult {
    // The context is consumed by `build`, so each sample re-creates the
    // workload outside the timed section.
    let mut best_secs = f64::INFINITY;
    let mut stats = ExpansionStats::default();
    // One untimed warmup build.
    let (ctx, queries) = make();
    std::hint::black_box(BatchDag::build_with_threads(
        ctx,
        &queries,
        &RuleSet::default(),
        threads,
    ));
    for _ in 0..samples {
        let (ctx, queries) = make();
        let t0 = Instant::now();
        let batch = BatchDag::build_with_threads(ctx, &queries, &RuleSet::default(), threads);
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        stats = *batch.expansion();
        std::hint::black_box(batch);
    }
    let r = SeriesResult {
        workload: workload.to_string(),
        threads,
        exprs: stats.exprs,
        groups: stats.groups,
        candidates: stats.candidates,
        secs: best_secs,
    };
    println!(
        "memo_expand/build@{}/{}: {:.3} ms ({} exprs, {} groups, {} candidates, {:.0} expansions/sec, best of {samples})",
        r.threads,
        r.workload,
        r.secs * 1e3,
        r.exprs,
        r.groups,
        r.candidates,
        r.expansions_per_sec()
    );
    r
}

fn main() {
    let samples: usize = std::env::var("MQO_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(5);

    let recording = std::env::var("MQO_BENCH_JSON").ok();
    let mut results: Vec<SeriesResult> = Vec::new();
    for i in [3usize, 4] {
        for threads in [1usize, 2, 4] {
            let make = || {
                let w = mqo_tpcd::batched(i, 1.0);
                (w.ctx, w.queries)
            };
            results.push(run_series(&format!("BQ{i}"), make, threads, samples));
        }
    }
    if recording.is_some() {
        let make = || {
            let w = generate(&WorkloadSpec::scale_10k(7));
            (w.ctx, w.queries)
        };
        results.push(run_series("scale-10k", make, 1, samples));
    }

    if let Some(base) = results
        .iter()
        .find(|r| r.workload == "BQ4" && r.threads == 1)
    {
        for r in results.iter().filter(|r| r.workload == "BQ4") {
            println!(
                "memo_expand/build@{}: {:.2}x over build@1 on BQ4",
                r.threads,
                base.secs / r.secs.max(1e-12)
            );
        }
    }

    if let Some(path) = recording {
        let entries: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "    {{\"mode\": \"build\", \"workload\": \"{}\", \"threads\": {}, \"exprs\": {}, \"groups\": {}, \"candidates\": {}, \"secs\": {:.6}, \"expansions_per_sec\": {:.1}}}",
                    r.workload,
                    r.threads,
                    r.exprs,
                    r.groups,
                    r.candidates,
                    r.secs,
                    r.expansions_per_sec()
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"memo_expand\",\n  \"samples\": {samples},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write MQO_BENCH_JSON baseline");
        println!("memo_expand: baseline written to {path}");
    }
}
