//! Ablation bench for the `bestCost` oracle: incremental recomputation
//! (the Pyro optimization inherited in Section 5.1) vs full bottom-up DP
//! per evaluation, measured as full greedy runs on real batched workloads.
//!
//! Runs under the in-repo timing harness (`mqo_bench::timing`), not
//! criterion — the build is offline.

use mqo_bench::timing::{bench_id, BenchGroup};
use mqo_core::batch::BatchDag;
use mqo_core::benefit::MbFunction;
use mqo_core::engine::BestCostEngine;
use mqo_submod::algorithms::greedy::{greedy, Config as GreedyConfig};
use mqo_submod::bitset::BitSet;
use mqo_submod::function::SetFunction;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

fn bench_incremental_vs_full() {
    let mut group = BenchGroup::new("bestcost_incremental_vs_full");
    group.sample_size(10);
    for i in [3usize, 5] {
        let w = mqo_tpcd::batched(i, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let cm = DiskCostModel::paper();
        for force_full in [false, true] {
            let label = if force_full { "full" } else { "incremental" };
            group.bench(bench_id(label, format!("BQ{i}")), || {
                let engine =
                    BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
                let mb = MbFunction::new(engine);
                mb.set_force_full(force_full);
                let n = mb.universe();
                greedy(&mb, &BitSet::full(n), GreedyConfig::default())
            });
        }
    }
    group.finish();
}

fn bench_engine_compile() {
    let mut group = BenchGroup::new("engine_compile");
    group.sample_size(10);
    for i in [3usize, 6] {
        let w = mqo_tpcd::batched(i, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let cm = DiskCostModel::paper();
        // Fresh: every compile rebuilds the TopoView.
        group.bench(bench_id("fresh", format!("BQ{i}")), || {
            BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable())
        });
        // Snapshot: compiles the immutable `EngineState` the way
        // `OptimizedBatch::snapshot` does on a cache miss — the batch's
        // TopoView is computed once and shared by `Arc`.
        group.bench(bench_id("snapshot", format!("BQ{i}")), || {
            batch.compile_state(&cm)
        });
    }
    group.finish();
}

fn main() {
    bench_incremental_vs_full();
    bench_engine_compile();
}
