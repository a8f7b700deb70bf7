//! The `serve-churn` workload: an `MqoService` over a generated chain
//! batch with two closed-loop clients. A writer admits the next query of
//! a pool four times the live window and retires the oldest, keeping the
//! window live; a reader keeps optimizing the latest snapshot.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use mqo_core::{MqoConfig, MqoService, ServeConfig, Session, Strategy};
use mqo_submod::prng::Prng;
use mqo_tpcd::workloads::{generate, Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::PlanNode;

use crate::batch::{oracle_probe, INSTANCE_SEED};
use crate::trace::{self, Recorder};
use crate::{median, peak_rss_mb, percentile, setup_children, Args, Outcome};

/// Queries live in the service at any time.
const LIVE: usize = 20;
/// Size of the query pool the writer cycles through.
const POOL: usize = 4 * LIVE;
/// Set-up child processes before and after the window; a set-up takes
/// tens of milliseconds and varies by half between processes.
const SETUP_CHILDREN: usize = 16;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        shape: Shape::Chain,
        tables: 48,
        queries: POOL,
        span: (6, 9),
        overlap: 0.3,
        select_prob: 0.35,
        base_rows: 500.0,
        seed: INSTANCE_SEED,
    }
}

/// Engine configuration of the service: one thread, set explicitly.
fn mqo_config() -> MqoConfig {
    MqoConfig {
        threads: 1,
        ..MqoConfig::default()
    }
}

/// Set-up: generate the pool, build a session over its first `LIVE`
/// queries, compile the first snapshot and start the service. The same
/// for every seed.
fn setup(rec: &mut Recorder) -> (MqoService, Vec<PlanNode>) {
    rec.span("setup", |rec| {
        let w = generate(&spec());
        let pool = w.queries.clone();
        let batch = rec.span("expand", |_| {
            Session::builder()
                .context(w.ctx)
                .queries(w.queries.into_iter().take(LIVE))
                .cost_model(DiskCostModel::paper())
                .config(mqo_config())
                .build()
        });
        rec.span("compile.topo", |_| {
            black_box(batch.batch().topo_view());
        });
        rec.span("compile.arenas", |_| black_box(batch.snapshot()));
        let service = batch.serve_with(ServeConfig {
            strategy: Strategy::MarginalGreedy,
            history_watermark: 64,
            cache_capacity: 4,
            ..ServeConfig::default()
        });
        (service, pool)
    })
}

/// What the writer thread measured.
#[derive(Default)]
struct Writer {
    out: Outcome,
    admit: Vec<f64>,
    retire: Vec<f64>,
    traced_admit: Vec<f64>,
}

/// What the reader thread measured.
#[derive(Default)]
struct Reader {
    out: Outcome,
    read: Vec<f64>,
    opt: Vec<f64>,
    extract: Vec<f64>,
    ratios: Vec<f64>,
    last: Option<(u64, usize, usize, usize)>,
}

/// One writer cycle: admit the next pool query, then retire the oldest
/// live query once more than `LIVE` are live. Returns the admit and
/// retire seconds; checks run outside the timed calls.
fn writer_cycle(
    service: &MqoService,
    plan: PlanNode,
    live: &mut VecDeque<mqo_core::QueryTicket>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (f64, Option<f64>) {
    let start = Instant::now();
    let admitted = rec.span("admit", |_| service.try_submit_query(plan));
    let admit = start.elapsed().as_secs_f64();
    out.op(match admitted {
        Ok(t) if service.tickets().contains(&t) => {
            live.push_back(t);
            Ok(())
        }
        Ok(t) => Err(format!("admitted ticket {t:?} is not live")),
        Err(e) => Err(format!("try_submit_query: {e}")),
    });
    if live.len() <= LIVE {
        return (admit, None);
    }
    let oldest = live.pop_front().expect("more than LIVE tickets");
    let start = Instant::now();
    let retired = rec.span("retire", |_| service.try_retire_query(oldest));
    let retire = start.elapsed().as_secs_f64();
    out.op(match retired {
        Ok(()) if service.tickets().contains(&oldest) => {
            Err(format!("retired ticket {oldest:?} is still live"))
        }
        Ok(()) => Ok(()),
        Err(e) => Err(format!("try_retire_query: {e}")),
    });
    (admit, Some(retire))
}

/// One read: optimize the latest snapshot. Returns the seconds and the
/// report; checks run outside the timed call.
fn read_once(service: &MqoService, rec: &mut Recorder, r: &mut Reader) -> f64 {
    let config = mqo_config();
    let start = Instant::now();
    let report = rec.span("read", |rec| {
        let state = rec.span("serve.snapshot", |_| service.snapshot());
        let report = rec.span("select", |_| state.run(Strategy::MarginalGreedy, config));
        // Dropping the last reference to a superseded snapshot frees it
        // here, inside the read.
        rec.span("serve.release", |_| drop(state));
        report
    });
    let secs = start.elapsed().as_secs_f64();
    let tol = 1e-9 * (1.0 + report.volcano_cost.abs());
    r.out.op(if report.total_cost > report.volcano_cost + tol {
        Err(format!(
            "read total_cost {} > volcano_cost {}",
            report.total_cost, report.volcano_cost
        ))
    } else if (report.plan.total_cost - report.total_cost).abs() > tol {
        Err(format!(
            "read plan cost {} != total_cost {}",
            report.plan.total_cost, report.total_cost
        ))
    } else {
        Ok(())
    });
    r.opt.push(report.opt_time.as_secs_f64());
    r.extract.push(report.extract_time.as_secs_f64());
    r.ratios.push(report.total_cost / report.volcano_cost);
    r.last = Some((
        report.bc_calls,
        report.candidates,
        report.universe,
        report.materialized.len(),
    ));
    secs
}

/// Set-up child mode: the seconds of one set-up.
pub fn setup_secs() -> Result<f64, String> {
    let start = Instant::now();
    let held = setup(&mut Recorder::new(start, 0));
    let secs = start.elapsed().as_secs_f64();
    drop(held);
    Ok(secs)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);

    rec.begin_op(0, args.trace);
    let start = Instant::now();
    let (service, pool) = setup(&mut rec);
    // The writer submits the pool in cyclic order from a seeded start past
    // the initial window (no query is submitted while it is still live).
    // It cycles through the pool several times a run, so every seed sees
    // the same windows.
    let start_at =
        LIVE + Prng::seed_from_u64(Prng::derive_seed(args.seed, 0x0de5)).gen_range(0..POOL - LIVE);
    let mut setup_secs = vec![start.elapsed().as_secs_f64()];
    setup_secs.extend(setup_children(args, SETUP_CHILDREN)?);

    // Warm-up cycle and read (checked, untimed).
    rec.begin_op(u64::MAX, false);
    let mut live: VecDeque<_> = service.tickets().into();
    let mut writer = Writer::default();
    let mut reader = Reader::default();
    writer_cycle(
        &service,
        pool[start_at % POOL].clone(),
        &mut live,
        &mut rec,
        &mut writer.out,
    );
    read_once(&service, &mut rec, &mut reader);
    reader = Reader {
        out: std::mem::take(&mut reader.out),
        ..Reader::default()
    };

    let window = Instant::now();
    let (writer, reader, writer_spans, reader_spans) = std::thread::scope(|s| {
        let service = &service;
        let pool = &pool;
        let w = s.spawn(move || {
            let mut rec = Recorder::new(origin, 1);
            let mut next = start_at + 1;
            let mut cycle = 0u64;
            while window.elapsed().as_secs_f64() < args.seconds || writer.admit.len() < 20 {
                let traced = args.trace && cycle % 2 == 1;
                rec.begin_op(cycle, traced);
                let plan = pool[next % POOL].clone();
                let (admit, retire) =
                    writer_cycle(service, plan, &mut live, &mut rec, &mut writer.out);
                if traced {
                    &mut writer.traced_admit
                } else {
                    &mut writer.admit
                }
                .push(admit);
                writer.retire.extend(retire);
                next += 1;
                cycle += 1;
            }
            (writer, rec.into_spans())
        });
        let r = s.spawn(move || {
            let mut rec = Recorder::new(origin, 2);
            let mut op = 0u64;
            while window.elapsed().as_secs_f64() < args.seconds || reader.read.len() < 20 {
                rec.begin_op(op, args.trace && op % 2 == 1);
                let secs = read_once(service, &mut rec, &mut reader);
                reader.read.push(secs);
                op += 1;
            }
            (reader, rec.into_spans())
        });
        let (writer, writer_spans) = w.join().expect("writer thread");
        let (reader, reader_spans) = r.join().expect("reader thread");
        (writer, reader, writer_spans, reader_spans)
    });
    let elapsed = window.elapsed().as_secs_f64();
    setup_secs.extend(setup_children(args, SETUP_CHILDREN)?);
    eprintln!("set-up seconds: {setup_secs:.4?}");
    out.set("setup_s", median(&setup_secs));
    out.set("peak_rss_mb", peak_rss_mb());
    for o in [writer.out, reader.out] {
        out.attempted += o.attempted;
        out.failed += o.failed;
    }

    let admits: Vec<f64> = writer
        .admit
        .iter()
        .chain(&writer.traced_admit)
        .copied()
        .collect();
    out.set("optimize_s", median(&admits));
    out.set("read_s", median(&reader.read));
    out.set("plan_cost_ratio", median(&reader.ratios));

    let ms = |xs: &[f64], p: f64| {
        let (v, q) = percentile(xs, p);
        (1e3 * v, q)
    };
    let (admit_p50, _) = ms(&admits, 0.5);
    let (admit_p90, admit_q) = ms(&admits, 0.9);
    let (retire_p50, _) = ms(&writer.retire, 0.5);
    let (read_p50, _) = ms(&reader.read, 0.5);
    let (read_p99, read_q) = ms(&reader.read, 0.99);
    let admits_per_s = admits.len() as f64 / elapsed;
    let reads_per_s = reader.read.len() as f64 / elapsed;
    println!(
        "serve-churn: {} admits, {} retires, {} reads in {elapsed:.2} s",
        admits.len(),
        writer.retire.len(),
        reader.read.len()
    );
    println!(
        "serve-churn: admit p50 {admit_p50:.3} ms, p{} {admit_p90:.3} ms; retire p50 {retire_p50:.3} ms; \
         read p50 {read_p50:.3} ms, p{} {read_p99:.3} ms; {admits_per_s:.1} admits/s, {reads_per_s:.1} reads/s",
        100.0 * admit_q,
        100.0 * read_q
    );
    if !args.trace {
        return Ok(out);
    }

    out.set("serve.admit_p50_ms", admit_p50);
    out.set("serve.admit_p90_ms", admit_p90);
    out.set("serve.retire_p50_ms", retire_p50);
    out.set("serve.read_p50_ms", read_p50);
    out.set("serve.read_p99_ms", read_p99);
    out.set("serve.admits_per_s", admits_per_s);
    out.set("serve.reads_per_s", reads_per_s);
    let stats = service.stats();
    out.set("serve.rounds", stats.rounds as f64);
    out.set("serve.coalesced", stats.coalesced as f64);
    out.set("serve.compactions", stats.compactions as f64);
    out.set(
        "serve.compaction_ratio",
        stats.compactions as f64 / stats.rounds.max(1) as f64,
    );
    out.set("serve.evictions", stats.evictions as f64);
    out.set("serve.failed_rounds", stats.failed_rounds as f64);
    out.set("serve.history_len", service.history_len() as f64);

    if let Some((bc_calls, ranked, universe, materialized)) = reader.last {
        let opt = median(&reader.opt);
        out.set("select.opt_s", opt);
        out.set("select.extract_s", median(&reader.extract));
        out.set("select.bc_calls", bc_calls as f64);
        out.set("select.us_per_bc", 1e6 * opt / bc_calls.max(1) as f64);
        out.set("select.ranked", ranked as f64);
        out.set(
            "select.ranked_ratio",
            ranked as f64 / universe.max(1) as f64,
        );
        out.set("select.materialized", materialized as f64);
    }
    let state = service.snapshot();
    out.set("universe", state.universe_size() as f64);
    out.set(
        "compile.states",
        state.engine(mqo_config()).n_states() as f64,
    );
    oracle_probe(&state, 1, args.seed, &mut out);
    drop(state);
    let batch = service.finish();
    let x = batch.batch().expansion();
    out.set("expand.passes", x.passes as f64);
    out.set("expand.candidates", x.candidates as f64);
    out.set("expand.exprs", x.exprs as f64);
    out.set("expand.groups", x.groups as f64);
    out.set("expand.yield", x.exprs as f64 / x.candidates.max(1) as f64);

    let mut spans = rec.into_spans();
    spans.extend(writer_spans);
    spans.extend(reader_spans);
    trace::layer_metrics(&spans, &mut out, &writer.admit, &writer.traced_admit);
    out.set(
        "trace.coverage",
        trace::min_coverage(
            &spans,
            &["read"],
            &["serve.snapshot", "select", "serve.release"],
        )
        .unwrap_or(0.0),
    );
    trace::write_trace(args, &spans)?;
    Ok(out)
}
