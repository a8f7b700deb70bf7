//! Golden pins of the expansion's output. `memo_differential.rs` compares
//! thread counts with each other, so it cannot tell whether the fixpoint's
//! result changed; this suite pins the memo itself against values recorded
//! before the expansion pruning landed.
//!
//! Every case expands a workload twice — in full (every query inserted,
//! then one fixpoint) and seeded-incrementally (one query at a time, each
//! followed by `expand_seeded` over its fresh expressions, the way
//! `BatchDag::add_query_with_threads` admits a query) — and pins
//! `exprs_allocated`, `n_exprs`, `n_groups`, `n_interned_ops`, the pass
//! count, and a structural fold over the `TopoView` plus every expression
//! slot's `(alive, op, children, group)`. The candidate count may only
//! fall: rejecting no-op candidates earlier is the point of the pruning.
//!
//! On a mismatch the assertion prints every observed row in the table's
//! own syntax, so a deliberate change of the expansion is re-recorded by
//! pasting them over `PINS`.

use std::hash::{Hash, Hasher};

use mqo_submod::prng::Prng;
use mqo_tpcd::workloads::{generate, Shape, WorkloadSpec};
use mqo_volcano::logical::PlanNode;
use mqo_volcano::memo::Memo;
use mqo_volcano::rules::{expand_seeded, expand_with, RuleSet};
use mqo_volcano::{DagContext, ExprId, GroupId};

/// An Fx-style streaming mix, fed one integer per word: deterministic
/// across runs and platforms, unlike `DefaultHasher`'s unspecified
/// algorithm.
struct Fold(u64);

impl Fold {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for Fold {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds the dense topological view and every expression slot.
fn structural_fold(memo: &Memo) -> u64 {
    let mut h = Fold(0);
    let view = memo.topo_view();
    h.mix(view.len() as u64);
    for i in 0..view.len() {
        h.mix(u64::from(view.group_at(i).0));
        for list in [view.children(i), view.parents(i)] {
            h.mix(list.len() as u64);
            for &d in list {
                h.mix(u64::from(d));
            }
        }
    }
    for slot in 0..memo.n_group_slots() as u32 {
        h.mix(u64::from(view.dense(GroupId(slot))));
    }
    for e in (0..memo.exprs_allocated() as u32).map(ExprId) {
        h.mix(u64::from(memo.is_alive(e)));
        memo.op(e).hash(&mut h);
        let children = memo.children(e);
        h.mix(children.len() as u64);
        for c in children {
            h.mix(u64::from(c.0));
        }
        h.mix(u64::from(memo.group_of(e).0));
    }
    h.finish()
}

/// One pinned (or observed) expansion outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    label: &'static str,
    exprs_allocated: usize,
    n_exprs: usize,
    n_groups: usize,
    n_interned_ops: usize,
    passes: usize,
    fold: u64,
    /// Upper bound: the parent value. Compared with `<=`, not `==`.
    candidates: usize,
}

impl Pin {
    fn row(&self) -> String {
        format!(
            "    pin(\"{}\", {}, {}, {}, {}, {}, 0x{:016x}, {}),",
            self.label,
            self.exprs_allocated,
            self.n_exprs,
            self.n_groups,
            self.n_interned_ops,
            self.passes,
            self.fold,
            self.candidates
        )
    }
}

#[allow(clippy::too_many_arguments)]
const fn pin(
    label: &'static str,
    exprs_allocated: usize,
    n_exprs: usize,
    n_groups: usize,
    n_interned_ops: usize,
    passes: usize,
    fold: u64,
    candidates: usize,
) -> Pin {
    Pin {
        label,
        exprs_allocated,
        n_exprs,
        n_groups,
        n_interned_ops,
        passes,
        fold,
        candidates,
    }
}

/// Inserts every query, expands once, and roots the batch.
fn expand_full(label: &'static str, ctx: DagContext, queries: &[PlanNode], rules: &RuleSet) -> Pin {
    let mut memo = Memo::new(ctx);
    for q in queries {
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
    }
    let stats = expand_with(&mut memo, rules, 1);
    memo.build_batch_root();
    observe(label, &memo, stats.passes, stats.candidates)
}

/// Admits the queries one at a time: each insert is followed by a fixpoint
/// seeded with its fresh expressions and a batch-root rebuild.
fn expand_incremental(
    label: &'static str,
    ctx: DagContext,
    queries: &[PlanNode],
    rules: &RuleSet,
) -> Pin {
    let mut memo = Memo::new(ctx);
    let (mut passes, mut candidates) = (0, 0);
    for q in queries {
        let watermark = memo.exprs_allocated() as u32;
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
        let seeds = (watermark..memo.exprs_allocated() as u32).map(ExprId);
        let stats = expand_seeded(&mut memo, rules, 1, seeds);
        passes += stats.passes;
        candidates += stats.candidates;
        memo.build_batch_root();
    }
    observe(label, &memo, passes, candidates)
}

fn observe(label: &'static str, memo: &Memo, passes: usize, candidates: usize) -> Pin {
    memo.check_consistency();
    Pin {
        label,
        exprs_allocated: memo.exprs_allocated(),
        n_exprs: memo.n_exprs(),
        n_groups: memo.n_groups(),
        n_interned_ops: memo.n_interned_ops(),
        passes,
        fold: structural_fold(memo),
        candidates,
    }
}

/// Runs every workload in both modes, in `PINS` order.
fn observe_all() -> Vec<Pin> {
    let mut out = Vec::new();
    let mut both =
        |name: String, make: &dyn Fn() -> (DagContext, Vec<PlanNode>), rules: RuleSet| {
            // Labels live as long as the test; leaking keeps `Pin` a `const`.
            let label = |mode: &str| -> &'static str { Box::leak(format!("{name}/{mode}").into()) };
            let (ctx, queries) = make();
            out.push(expand_full(label("full"), ctx, &queries, &rules));
            let (ctx, queries) = make();
            out.push(expand_incremental(label("incr"), ctx, &queries, &rules));
        };
    for i in 1..=6 {
        let make = || {
            let w = mqo_tpcd::batched(i, 1.0);
            (w.ctx, w.queries)
        };
        both(format!("BQ{i}/default"), &make, RuleSet::default());
        both(format!("BQ{i}/joins"), &make, RuleSet::joins_only());
    }
    // The instance distribution of `memo_differential`'s random sweep.
    for case in 0..8u64 {
        let seed = Prng::derive_seed(0x4D45_4D4F, case);
        let make = || mqo_tpcd::random::random_workload(seed, 5);
        both(format!("random{case}"), &make, RuleSet::default());
    }
    let make = || {
        let w = generate(&WorkloadSpec::smoke(Shape::Chain, 3));
        (w.ctx, w.queries)
    };
    both("chain-smoke".to_string(), &make, RuleSet::default());
    out
}

/// Recorded before the expansion pruning (interner probe, cross-product
/// pre-check) landed: the memo must match exactly, candidates may only
/// fall.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    pin("BQ1/default/full", 20, 20, 16, 13, 2, 0xb9093988fb3b4bf2, 6),
    pin("BQ1/default/incr", 21, 20, 16, 13, 4, 0x6f2c4824fc58f62b, 7),
    pin("BQ1/joins/full", 17, 17, 15, 12, 2, 0x8207dfd780b5cfe3, 4),
    pin("BQ1/joins/incr", 18, 17, 15, 12, 4, 0x1e351643c1765dfa, 4),
    pin("BQ2/default/full", 176, 129, 57, 32, 5, 0xda60ebb79b577e72, 490),
    pin("BQ2/default/incr", 166, 129, 57, 32, 13, 0x7505aa3865061e75, 460),
    pin("BQ2/joins/full", 169, 122, 55, 30, 5, 0xfc47943d4cf37e4d, 485),
    pin("BQ2/joins/incr", 159, 122, 55, 30, 13, 0xc2eefcc03b85969b, 433),
    pin("BQ3/default/full", 260, 192, 86, 42, 5, 0x934c4d98bea82e32, 674),
    pin("BQ3/default/incr", 247, 192, 86, 42, 21, 0xf4856c6b234c11f5, 633),
    pin("BQ3/joins/full", 247, 179, 82, 38, 5, 0x4c51ad2bce51a285, 662),
    pin("BQ3/joins/incr", 234, 179, 82, 38, 21, 0x9db53e882bff741a, 589),
    pin("BQ4/default/full", 549, 398, 149, 58, 5, 0x8d1c7837ba321eec, 1637),
    pin("BQ4/default/incr", 522, 398, 149, 58, 31, 0x402e46ea01f6cabb, 1748),
    pin("BQ4/joins/full", 512, 361, 139, 48, 5, 0xbd5344937f9aa807, 1591),
    pin("BQ4/joins/incr", 485, 361, 139, 48, 31, 0xce3ba7298c839fa9, 1460),
    pin("BQ5/default/full", 685, 499, 188, 65, 6, 0x75f5d282a632044d, 1962),
    pin("BQ5/default/incr", 653, 499, 188, 65, 42, 0x80e2ff5e03b9eb6b, 2078),
    pin("BQ5/joins/full", 645, 459, 177, 54, 6, 0x37fe40890a7aaa02, 1914),
    pin("BQ5/joins/incr", 613, 459, 177, 54, 42, 0xa3ca456b6ecab310, 1764),
    pin("BQ6/default/full", 737, 549, 206, 73, 6, 0x503500fdfcb58e79, 2072),
    pin("BQ6/default/incr", 711, 549, 206, 73, 48, 0x9cb4b32923a7befe, 2275),
    pin("BQ6/joins/full", 668, 482, 192, 59, 6, 0x7d685b247842bab9, 1938),
    pin("BQ6/joins/incr", 638, 482, 192, 59, 48, 0x242e4581ea81b7e9, 1788),
    pin("random0/full", 13, 13, 11, 10, 2, 0x177413114c35f648, 2),
    pin("random0/incr", 15, 13, 11, 10, 4, 0x03f057ea3a5e39f8, 2),
    pin("random1/full", 30, 29, 22, 14, 4, 0x8a8ffbd3279ce69d, 18),
    pin("random1/incr", 33, 29, 22, 14, 9, 0x41680c80770bb962, 18),
    pin("random2/full", 59, 47, 27, 12, 4, 0xeb67bda74acfc99e, 87),
    pin("random2/incr", 57, 47, 27, 12, 12, 0xd7f8e3e7f123ad82, 79),
    pin("random3/full", 42, 40, 27, 16, 4, 0x1742867e83941f5f, 33),
    pin("random3/incr", 45, 40, 27, 16, 11, 0xbbacf26e619ac368, 34),
    pin("random4/full", 38, 32, 20, 13, 4, 0x1a9a54419e6e611a, 44),
    pin("random4/incr", 39, 32, 20, 13, 6, 0x948dce05ba0a8ed0, 47),
    pin("random5/full", 23, 22, 17, 11, 4, 0xa5e906524d97e7a1, 15),
    pin("random5/incr", 24, 22, 17, 11, 6, 0x11b101f3eec2e59a, 15),
    pin("random6/full", 67, 61, 35, 22, 4, 0xf424af33d4b1aaf1, 70),
    pin("random6/incr", 70, 61, 35, 22, 9, 0x0bd6a1620b3418ab, 77),
    pin("random7/full", 11, 11, 10, 8, 2, 0x4731f8efec0d12c2, 2),
    pin("random7/incr", 12, 11, 10, 8, 3, 0xeeb5d1ac523f671b, 2),
    pin("chain-smoke/full", 97, 84, 54, 31, 4, 0xec198354a35eb5a0, 105),
    pin("chain-smoke/incr", 102, 84, 54, 31, 16, 0x2ebdac49a708876e, 114),
];

#[test]
fn expansion_matches_the_recorded_memos() {
    let observed = observe_all();
    let rows: Vec<String> = observed.iter().map(Pin::row).collect();
    let dump = rows.join("\n");
    assert_eq!(observed.len(), PINS.len(), "observed rows:\n{dump}");
    for (o, p) in observed.iter().zip(PINS) {
        assert_eq!(o.label, p.label, "observed rows:\n{dump}");
        let memo_of = |x: &Pin| {
            (
                x.exprs_allocated,
                x.n_exprs,
                x.n_groups,
                x.n_interned_ops,
                x.passes,
                x.fold,
            )
        };
        assert_eq!(
            memo_of(o),
            memo_of(p),
            "{}: memo diverges from the recorded one; observed rows:\n{dump}",
            o.label
        );
        assert!(
            o.candidates <= p.candidates,
            "{}: {} candidates, more than the recorded {}",
            o.label,
            o.candidates,
            p.candidates
        );
    }
}
