//! The scale-tier series: selection + extraction wall-clock as a function
//! of universe size × batch size × threads, on the seeded workload
//! generator (`mqo_tpcd::workloads`).
//!
//! Three tiers:
//!
//! * `smoke` — the four generator shapes at smoke size; the default
//!   (fast) series, exercised by `scripts/verify.sh`'s bench smoke.
//! * `mid` — a few-hundred-element chain batch, the knee between the
//!   TPCD batches and the scale tier.
//! * `scale-10k` — [`WorkloadSpec::scale_10k`]: a chain batch whose
//!   shareable universe exceeds 10 000 materialization candidates, run as
//!   a thread series (1, 2, 4) plus a Theorem 4 universe-reduction
//!   on/off pair under the materialization-cost decomposition at k = 16.
//!   Included when `MQO_BENCH_JSON` is set (a recording run must cover
//!   the flagship instance — the run *fails* if the universe falls under
//!   10k) or when `MQO_BENCH_SCALE_FULL=1`.
//!
//! Set `MQO_BENCH_JSON=<path>` to record the series as a JSON baseline
//! (`scripts/verify.sh --bench-smoke` writes `BENCH_scale.json` at the
//! repo root this way). Every entry carries a `threads` field —
//! `verify.sh` refuses baselines without one — and the run's `bc_calls`
//! and `bc_replays` (oracle calls, and how many of them cross-round cone
//! replay answered); `verify.sh` also refuses a scale-10k entry without
//! `bc_replays`. Knobs: `MQO_BENCH_SAMPLES`
//! (zero-dependency harness, no criterion — the build is offline).

use std::time::Duration;

use mqo_core::config::{DecompositionKind, MqoConfig};
use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::{RunReport, Strategy};
use mqo_tpcd::workloads::{generate, Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;

struct ScaleResult {
    mode: &'static str,
    tier: &'static str,
    shape: &'static str,
    queries: usize,
    universe: usize,
    candidates: usize,
    threads: usize,
    materializations: usize,
    bc_calls: u64,
    bc_replays: u64,
    opt_secs: f64,
    extract_secs: f64,
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

fn build(spec: &WorkloadSpec) -> OptimizedBatch {
    let w = generate(spec);
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .cost_model(DiskCostModel::paper())
        .build()
}

/// Runs `samples` measured repetitions (after one warmup) and reports the
/// median internal `opt_time` / `extract_time` — the phase timings the
/// reports measure around node selection and consolidated-plan extraction
/// only, so neither metric contaminates the other — plus the last run's
/// report, whose counters are the same on every run.
fn measure(
    session: &OptimizedBatch,
    config: MqoConfig,
    samples: usize,
) -> (Duration, Duration, RunReport) {
    let _warmup = session.run_with(Strategy::MarginalGreedy, config);
    let mut opts = Vec::with_capacity(samples);
    let mut extracts = Vec::with_capacity(samples);
    let mut report = None;
    for _ in 0..samples {
        let r = session.run_with(Strategy::MarginalGreedy, config);
        opts.push(r.opt_time);
        extracts.push(r.extract_time);
        report = Some(r);
    }
    opts.sort_unstable();
    extracts.sort_unstable();
    let report = report.expect("samples >= 1");
    (opts[opts.len() / 2], extracts[extracts.len() / 2], report)
}

fn record(
    results: &mut Vec<ScaleResult>,
    mode: &'static str,
    tier: &'static str,
    spec: &WorkloadSpec,
    session: &OptimizedBatch,
    config: MqoConfig,
    samples: usize,
) {
    let (opt, extract, report) = measure(session, config, samples);
    let r = ScaleResult {
        mode,
        tier,
        shape: spec.shape.name(),
        queries: spec.queries,
        universe: session.universe_size(),
        candidates: report.candidates,
        threads: config.threads,
        materializations: report.materialized.len(),
        bc_calls: report.bc_calls,
        bc_replays: report.bc_replays,
        opt_secs: opt.as_secs_f64(),
        extract_secs: extract.as_secs_f64(),
    };
    println!(
        "scale/{mode}/{tier}/{}/q{}/t{}: universe {} candidates {} opt {} extract {} ({} materializations, {} bc calls, {} replayed)",
        r.shape,
        r.queries,
        r.threads,
        r.universe,
        r.candidates,
        fmt_duration(opt),
        fmt_duration(extract),
        r.materializations,
        r.bc_calls,
        r.bc_replays,
    );
    results.push(r);
}

fn mid_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        shape: Shape::Chain,
        tables: 48,
        queries: 60,
        span: (6, 9),
        overlap: 0.3,
        select_prob: 0.35,
        base_rows: 500.0,
        seed,
    }
}

fn main() {
    let samples = samples_from_env(3);
    let recording = std::env::var("MQO_BENCH_JSON").is_ok();
    let full = recording || std::env::var("MQO_BENCH_SCALE_FULL").is_ok_and(|v| v == "1");
    let mut results = Vec::new();

    for shape in Shape::ALL {
        let spec = WorkloadSpec::smoke(shape, 42);
        let session = build(&spec);
        let config = session.config();
        record(
            &mut results,
            "scale",
            "smoke",
            &spec,
            &session,
            config,
            samples,
        );
    }

    {
        let spec = mid_spec(42);
        let session = build(&spec);
        let config = session.config();
        record(
            &mut results,
            "scale",
            "mid",
            &spec,
            &session,
            config,
            samples,
        );
    }

    if full {
        let spec = WorkloadSpec::scale_10k(7);
        let session = build(&spec);
        assert!(
            session.universe_size() >= 10_000,
            "the scale-10k tier must exceed 10k materialization candidates, got {}",
            session.universe_size()
        );
        // Thread series: same instance, same answer (bit-identical by
        // construction), different work distribution.
        for threads in [1usize, 2, 4] {
            let config = MqoConfig {
                threads,
                ..session.config()
            };
            record(
                &mut results,
                "scale",
                "scale-10k",
                &spec,
                &session,
                config,
                samples,
            );
        }
        // Theorem 4 universe-reduction pre-pass, on vs off, under the
        // materialization-cost decomposition at k = 16 (the pre-pass's
        // `opt_time` includes the reduction itself — end-to-end honest).
        for (mode, reduction) in [("reduction-off", false), ("reduction-on", true)] {
            let config = MqoConfig {
                decomposition: DecompositionKind::MaterializationCost,
                universe_reduction: reduction,
                max_materializations: Some(16),
                ..session.config()
            };
            record(
                &mut results,
                mode,
                "scale-10k",
                &spec,
                &session,
                config,
                samples,
            );
        }
        // The paper's capped provable workflow (Section 5.3 greedy +
        // Theorem 4 reduction under the canonical decomposition) — the
        // series the kernels are measured on across PRs, since the same
        // strategy exists in every tree.
        for (mode, reduction) in [
            ("capped-canonical-off", false),
            ("capped-canonical-on", true),
        ] {
            let config = MqoConfig {
                universe_reduction: reduction,
                max_materializations: Some(16),
                ..session.config()
            };
            record(
                &mut results,
                mode,
                "scale-10k",
                &spec,
                &session,
                config,
                samples,
            );
        }
    } else {
        println!("scale: scale-10k tier skipped (set MQO_BENCH_SCALE_FULL=1 or record with MQO_BENCH_JSON)");
    }
    println!();

    if let Ok(path) = std::env::var("MQO_BENCH_JSON") {
        let entries: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "    {{\"mode\": \"{}\", \"tier\": \"{}\", \"shape\": \"{}\", \"queries\": {}, \"universe\": {}, \"candidates\": {}, \"threads\": {}, \"materializations\": {}, \"bc_calls\": {}, \"bc_replays\": {}, \"opt_secs\": {:.9}, \"extract_secs\": {:.9}}}",
                    r.mode,
                    r.tier,
                    r.shape,
                    r.queries,
                    r.universe,
                    r.candidates,
                    r.threads,
                    r.materializations,
                    r.bc_calls,
                    r.bc_replays,
                    r.opt_secs,
                    r.extract_secs,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"scale\",\n  \"samples\": {samples},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write MQO_BENCH_JSON baseline");
        println!("scale: baseline written to {path}");
    }
}
