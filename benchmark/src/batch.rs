//! The two batch workloads: `pipeline-10k-capped` (one op is the whole
//! pipeline, expansion to extracted plan) and `select-uncapped` (the batch
//! is built in set-up; one op is an uncapped selection on the held
//! snapshot). Also the oracle probe and the deterministic-counter
//! self-test they share.

use std::hint::black_box;
use std::time::Instant;

use mqo_core::{BatchDag, DecompositionKind, EngineState, MqoConfig, RunReport, Strategy};
use mqo_submod::bitset::BitSet;
use mqo_submod::prng::Prng;
use mqo_tpcd::workloads::{generate, WorkloadSpec};
use mqo_tpcd::Workload;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;
use mqo_volcano::GroupId;

use crate::trace::{self, Recorder};
use crate::{median, nproc, peak_rss_mb, run_child, setup_children, Args, Outcome};

/// Cardinality cap of the capped pipeline.
const K: usize = 16;

/// Worker threads of the measured ops. One: on a shared host a neighbour
/// that takes one of two cores stalls every parallel phase of a 2-thread
/// op (it slowed a 2-thread selection by half and left a 1-thread op as
/// it was), so a parallel op measures the host. The traced run times one
/// op on `parallel_threads()` threads as well.
const THREADS: usize = 1;

/// Threads of the traced run's parallel op: the machine's available
/// parallelism, at least two so that the parallel paths always run.
fn parallel_threads() -> usize {
    nproc().max(2)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pipeline,
    Select,
}

impl Kind {
    pub fn of(workload: &str) -> Result<Kind, String> {
        match workload {
            "pipeline-10k-capped" => Ok(Kind::Pipeline),
            "select-uncapped" => Ok(Kind::Select),
            other => Err(format!(
                "unknown workload {other:?} (pipeline-10k-capped, select-uncapped, serve-churn)"
            )),
        }
    }
}

/// Generator seed of every workload's instance. The generator's seed
/// changes the amount of work by up to a third, so `--seed` does not pick
/// the instance: it permutes the order in which the instance's queries
/// are submitted, and every seed does the same work.
pub const INSTANCE_SEED: u64 = 7;

fn spec(kind: Kind) -> WorkloadSpec {
    match kind {
        Kind::Pipeline => WorkloadSpec::scale_10k(INSTANCE_SEED),
        Kind::Select => WorkloadSpec {
            queries: 200,
            ..WorkloadSpec::scale_10k(INSTANCE_SEED)
        },
    }
}

/// A workload instance and the seed that orders its queries.
pub struct Inputs {
    pub spec: WorkloadSpec,
    pub seed: u64,
}

impl Inputs {
    /// Generates the instance with its queries in an order drawn from the
    /// seed.
    pub fn generate(&self) -> Workload {
        let mut w = generate(&self.spec);
        let mut rng = Prng::seed_from_u64(Prng::derive_seed(self.seed, 0x0de5));
        for i in (1..w.queries.len()).rev() {
            let j = rng.gen_range(0..=i);
            w.queries.swap(i, j);
        }
        w
    }
}

/// The selection configuration; `threads` is always explicit, so an
/// exported `MQO_THREADS` cannot reach it.
fn mqo_config(kind: Kind, threads: usize) -> MqoConfig {
    match kind {
        Kind::Pipeline => MqoConfig {
            threads,
            decomposition: DecompositionKind::MaterializationCost,
            universe_reduction: true,
            max_materializations: Some(K),
            ..MqoConfig::default()
        },
        Kind::Select => MqoConfig {
            threads,
            ..MqoConfig::default()
        },
    }
}

/// An expanded batch and its compiled snapshot.
pub struct Built {
    pub batch: BatchDag,
    pub state: EngineState,
}

/// Expansion, topological view and arena compile, each in its own span.
pub fn build(w: Workload, threads: usize, rec: &mut Recorder) -> Built {
    let Workload { ctx, queries, .. } = w;
    let rules = RuleSet::default();
    let batch = rec.span("expand", |_| {
        BatchDag::build_with_threads(ctx, &queries, &rules, threads)
    });
    rec.span("compile.topo", |_| {
        black_box(batch.topo_view());
    });
    let state = rec.span("compile.arenas", |_| {
        batch.compile_state(&DiskCostModel::paper())
    });
    Built { batch, state }
}

/// The counters that must repeat exactly across runs, thread counts and
/// environments.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counters {
    passes: usize,
    candidates: usize,
    exprs: usize,
    groups: usize,
    bc_calls: u64,
    ranked: usize,
    materialized: usize,
    plan_cost_ratio_bits: u64,
}

impl Counters {
    fn of(batch: &BatchDag, report: &RunReport) -> Self {
        let x = batch.expansion();
        Counters {
            passes: x.passes,
            candidates: x.candidates,
            exprs: x.exprs,
            groups: x.groups,
            bc_calls: report.bc_calls,
            ranked: report.candidates,
            materialized: report.materialized.len(),
            plan_cost_ratio_bits: (report.total_cost / report.volcano_cost).to_bits(),
        }
    }

    fn line(&self) -> String {
        format!(
            "counters passes={} candidates={} exprs={} groups={} bc_calls={} ranked={} materialized={} plan_cost_ratio_bits={:#x}",
            self.passes,
            self.candidates,
            self.exprs,
            self.groups,
            self.bc_calls,
            self.ranked,
            self.materialized,
            self.plan_cost_ratio_bits
        )
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Checks one selection against the snapshot it ran on: a `force_full`
/// re-evaluation of the chosen set, the extracted plan's cost, the
/// benefit identity, the cap, and the chosen set of the first op.
fn check_selection(
    state: &EngineState,
    report: &RunReport,
    cap: Option<usize>,
    reference: &mut Option<Vec<GroupId>>,
) -> Result<(), String> {
    let shareable = state.shareable();
    let mut chosen = BitSet::empty(shareable.len());
    for g in &report.materialized {
        let e = shareable
            .iter()
            .position(|s| s == g)
            .ok_or_else(|| format!("materialized {g:?} is not in the universe"))?;
        chosen.insert(e);
    }
    let full = state
        .engine(MqoConfig {
            threads: 1,
            force_full: true,
            ..MqoConfig::default()
        })
        .bc(&chosen);
    if !close(full, report.total_cost) {
        return Err(format!(
            "force_full bc {full} != total_cost {}",
            report.total_cost
        ));
    }
    if !close(report.plan.total_cost, report.total_cost) {
        return Err(format!(
            "plan cost {} != total_cost {}",
            report.plan.total_cost, report.total_cost
        ));
    }
    if report.benefit != report.volcano_cost - report.total_cost {
        return Err("benefit != volcano_cost - total_cost".into());
    }
    if let Some(k) = cap {
        if report.materialized.len() > k {
            return Err(format!(
                "{} materializations exceed the cap {k}",
                report.materialized.len()
            ));
        }
    }
    match reference {
        Some(r) if *r != report.materialized => Err("chosen set differs from the first op".into()),
        Some(_) => Ok(()),
        None => {
            *reference = Some(report.materialized.clone());
            Ok(())
        }
    }
}

/// Result of one timed op.
struct OpRun {
    secs: f64,
    read_secs: f64,
    built: Option<Built>,
    report: RunReport,
}

/// Runs one op. `Pipeline`: generate the inputs (untimed), then expand,
/// compile and select. `Select`: selection on the held snapshot.
fn one_op(
    kind: Kind,
    inputs: &Inputs,
    held: Option<&Built>,
    config: MqoConfig,
    rec: &mut Recorder,
) -> OpRun {
    let input = match kind {
        Kind::Pipeline => Some(inputs.generate()),
        Kind::Select => None,
    };
    let start = Instant::now();
    let (built, report, read_secs) = rec.span("op", |rec| {
        let built = input.map(|w| build(w, config.threads, rec));
        let state = &built
            .as_ref()
            .or(held)
            .expect("a snapshot to select on")
            .state;
        let read = Instant::now();
        let report = rec.span("select", |_| state.run(Strategy::MarginalGreedy, config));
        (built, report, read.elapsed().as_secs_f64())
    });
    OpRun {
        secs: start.elapsed().as_secs_f64(),
        read_secs,
        built,
        report,
    }
}

/// Set-up: generate the workload; for `Select` also build and compile
/// the batch the ops select on.
fn setup(kind: Kind, inputs: &Inputs, threads: usize, rec: &mut Recorder) -> Option<Built> {
    rec.span("setup", |rec| {
        let w = inputs.generate();
        match kind {
            Kind::Pipeline => {
                black_box(&w);
                None
            }
            Kind::Select => Some(build(w, threads, rec)),
        }
    })
}

/// Set-up child mode: the seconds of one set-up.
pub fn setup_secs(args: &Args) -> Result<f64, String> {
    let kind = Kind::of(&args.workload)?;
    let inputs = Inputs {
        spec: spec(kind),
        seed: args.seed,
    };
    let start = Instant::now();
    let held = setup(kind, &inputs, THREADS, &mut Recorder::new(start, 0));
    let secs = start.elapsed().as_secs_f64();
    drop(held);
    Ok(secs)
}

/// Counters child mode: one set-up and one op at `THREADS` threads, then
/// the counters line.
pub fn print_counters(args: &Args) -> Result<(), String> {
    let kind = Kind::of(&args.workload)?;
    let inputs = Inputs {
        spec: spec(kind),
        seed: args.seed,
    };
    let mut rec = Recorder::new(Instant::now(), 0);
    let held = setup(kind, &inputs, THREADS, &mut rec);
    let run = one_op(
        kind,
        &inputs,
        held.as_ref(),
        mqo_config(kind, THREADS),
        &mut rec,
    );
    let built = run.built.as_ref().or(held.as_ref()).expect("a batch");
    println!("{}", Counters::of(&built.batch, &run.report).line());
    Ok(())
}

/// Oracle probe: seeded greedy-shaped batches (a small base set plus one
/// element per candidate) through a fresh engine's `bc_many`. Sets the
/// `oracle.*` metrics; one answer per batch is checked against a
/// `force_full` engine.
pub fn oracle_probe(state: &EngineState, threads: usize, seed: u64, out: &mut Outcome) {
    let n = state.universe_size();
    let mut rng = Prng::seed_from_u64(Prng::derive_seed(seed, 0x04ac1e));
    let mut engine = state.engine(MqoConfig {
        threads,
        ..MqoConfig::default()
    });
    let mut full = state.engine(MqoConfig {
        threads: 1,
        force_full: true,
        ..MqoConfig::default()
    });
    let per_batch = n.min(512);
    let mut evals = 0usize;
    let mut secs = 0.0;
    for _ in 0..8 {
        let mut base = BitSet::empty(n);
        for _ in 0..8 {
            base.insert(rng.gen_range(0..n));
        }
        let sets: Vec<BitSet> = (0..per_batch)
            .map(|_| base.with(rng.gen_range(0..n)))
            .collect();
        let start = Instant::now();
        let values = black_box(engine.bc_many(&sets));
        secs += start.elapsed().as_secs_f64();
        evals += sets.len();
        let expect = full.bc(&sets[0]);
        out.check(close(values[0], expect), || {
            format!("oracle probe: bc_many {} != force_full {expect}", values[0])
        });
    }
    let (full_evals, overlay_evals) = engine.eval_counts();
    out.set(
        "oracle.evals_per_s",
        evals as f64 / secs.max(f64::MIN_POSITIVE),
    );
    out.set("oracle.full_evals", full_evals as f64);
    out.set("oracle.overlay_evals", overlay_evals as f64);
    out.set(
        "oracle.overlay_ratio",
        overlay_evals as f64 / (full_evals + overlay_evals).max(1) as f64,
    );
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs {
        spec: spec(kind),
        seed: args.seed,
    };
    let threads = THREADS;
    let config = mqo_config(kind, threads);
    let cap = (kind == Kind::Pipeline).then_some(K);
    // Set-up children before and after the window: a generation takes
    // milliseconds, a `select-uncapped` set-up about a second.
    let children = match kind {
        Kind::Pipeline => 16,
        Kind::Select => 2,
    };
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);

    rec.begin_op(0, args.trace);
    let start = Instant::now();
    let held = setup(kind, &inputs, threads, &mut rec);
    let mut setup_secs = vec![start.elapsed().as_secs_f64()];
    setup_secs.extend(setup_children(args, children)?);

    // Warm-up op (checked, untimed), then the measured window. In the
    // traced run every other op is traced; the rest give the untraced
    // reference for the tracing overhead.
    let mut reference = None;
    let mut first_counters = None;
    let mut counters_ok = true;
    let (mut untraced, mut traced, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut opt, mut extract, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut op = 0u64;
    let mut window = None;
    loop {
        let measured = window.is_some();
        let is_traced = args.trace && op % 2 == 1;
        rec.begin_op(1 + op, is_traced);
        let run = one_op(kind, &inputs, held.as_ref(), config, &mut rec);
        let built = run.built.as_ref().or(held.as_ref()).expect("a batch");
        out.op(check_selection(
            &built.state,
            &run.report,
            cap,
            &mut reference,
        ));
        let counters = Counters::of(&built.batch, &run.report);
        match &first_counters {
            None => first_counters = Some(counters),
            Some(c) => counters_ok &= *c == counters,
        }
        let report = &run.report;
        let (opt_s, extract_s) = (report.opt_time, report.extract_time);
        let ratio = report.total_cost / report.volcano_cost;
        // Freeing the op's batch and report is part of the op; it also
        // keeps at most one expanded batch alive at a time.
        let OpRun {
            secs,
            read_secs,
            built,
            report,
            ..
        } = run;
        let start = Instant::now();
        rec.span("teardown", |_| drop((built, report)));
        let secs = secs + start.elapsed().as_secs_f64();
        if window.is_none() {
            // The peak of set-up and one op in a fresh process. Each later
            // op leaves the heap more fragmented, which raises the peak by
            // a random 0-20%.
            out.set("peak_rss_mb", peak_rss_mb());
        }
        eprintln!("op {op}: {secs:.4} s (select {read_secs:.4} s)");
        if measured {
            if is_traced {
                &mut traced
            } else {
                &mut untraced
            }
            .push(secs);
            reads.push(read_secs);
            opt.push(opt_s.as_secs_f64());
            extract.push(extract_s.as_secs_f64());
            ratios.push(ratio);
        }
        op += 1;
        match window {
            None => window = Some(Instant::now()),
            Some(w) if w.elapsed().as_secs_f64() >= args.seconds && untraced.len() >= 2 => break,
            Some(_) => {}
        }
    }
    setup_secs.extend(setup_children(args, children)?);
    eprintln!("set-up seconds: {setup_secs:.4?}");
    out.set("setup_s", median(&setup_secs));
    let all_ops: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    out.set("optimize_s", median(&all_ops));
    out.set("read_s", median(&reads));
    out.set("plan_cost_ratio", median(&ratios));
    println!(
        "{}: optimize_s over {} ops, read_s over {} ops (threads {threads})",
        args.workload,
        all_ops.len(),
        reads.len(),
    );
    out.check(counters_ok, || {
        "deterministic counters changed between ops".into()
    });
    if !args.trace {
        return Ok(out);
    }

    // Self-test: the counters of a parallel op and of a child process with
    // MQO_THREADS exported must equal the measured ops' counters.
    let expect = first_counters.expect("at least one op");
    let par_threads = parallel_threads();
    let mut par_rec = Recorder::new(origin, 1);
    let par_held = setup(kind, &inputs, par_threads, &mut par_rec);
    let par = one_op(
        kind,
        &inputs,
        par_held.as_ref(),
        mqo_config(kind, par_threads),
        &mut par_rec,
    );
    out.set("parallel.optimize_s", par.secs);
    println!("parallel op: {:.4} s on {par_threads} threads", par.secs);
    let report = &par.report;
    let built = par.built.as_ref().or(par_held.as_ref()).expect("a batch");
    let par_counters = Counters::of(&built.batch, report);
    out.check(par_counters == expect, || {
        format!(
            "threads {par_threads} counters {} != threads {threads} counters {}",
            par_counters.line(),
            expect.line()
        )
    });
    let child = run_child(
        args,
        "counters",
        &[("MQO_THREADS", (threads + 1).to_string())],
    )?;
    out.check(child == expect.line(), || {
        format!(
            "counters with MQO_THREADS exported: {child} != {}",
            expect.line()
        )
    });
    out.set("selftest.checks", 2.0);
    println!("{}", expect.line());

    // Per-layer metrics: times from the measured ops and their spans;
    // counts from the parallel op, whose counters the self-test has just
    // compared with the measured ops'.
    let x = built.batch.expansion();
    out.set("expand.passes", x.passes as f64);
    out.set("expand.candidates", x.candidates as f64);
    out.set("expand.exprs", x.exprs as f64);
    out.set("expand.groups", x.groups as f64);
    out.set("expand.yield", x.exprs as f64 / x.candidates.max(1) as f64);
    let n = built.state.universe_size();
    out.set("universe", n as f64);
    out.set(
        "compile.states",
        built.state.engine(config).n_states() as f64,
    );
    out.set("select.opt_s", median(&opt));
    out.set("select.extract_s", median(&extract));
    out.set("select.bc_calls", report.bc_calls as f64);
    out.set(
        "select.us_per_bc",
        1e6 * median(&opt) / report.bc_calls.max(1) as f64,
    );
    out.set("select.ranked", report.candidates as f64);
    out.set(
        "select.ranked_ratio",
        report.candidates as f64 / n.max(1) as f64,
    );
    out.set("select.materialized", report.materialized.len() as f64);

    oracle_probe(&built.state, threads, args.seed, &mut out);

    let spans = rec.into_spans();
    trace::layer_metrics(&spans, &mut out, &untraced, &traced);
    // An op is its `op` span and the freeing of its batch.
    let coverage = trace::min_coverage(
        &spans,
        &["op", "teardown"],
        &[
            "expand",
            "compile.topo",
            "compile.arenas",
            "select",
            "teardown",
        ],
    )
    .unwrap_or(0.0);
    out.set("trace.coverage", coverage);
    if kind == Kind::Pipeline {
        out.check(coverage >= 0.95, || {
            format!("layer spans cover only {coverage:.4} of an op (need 0.95)")
        });
    }
    trace::write_trace(args, &spans)?;
    Ok(out)
}
