//! Differential sweeps for the sharded `bestCost` oracle on TPCD BQ4:
//! sharded `bc_many` must be **bit-identical** to the serial path at every
//! thread count and rebase threshold, and both must agree with the
//! full-recomputation ablation to `1e-9` relative. (The root-level
//! `tests/engine_differential.rs` covers the serial incremental/batched
//! paths; this sweep pins the parallel fan-out.) The replay differential
//! at the end pins cross-round cone replay bit for bit against fresh
//! overlays, on BQ1–BQ6 and generated workloads.

use std::cell::RefCell;
use std::sync::Arc;

use mqo_core::batch::BatchDag;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_submod::bitset::BitSet;
use mqo_submod::prng::{seeded_sweep, Prng};
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

const SWEEP_SEED: u64 = 0x5EED_0030;

fn bq4() -> BatchDag {
    let w = mqo_tpcd::batched(4, 1.0);
    BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
}

fn engine(batch: &BatchDag, config: MqoConfig) -> BestCostEngine {
    let cm = DiskCostModel::paper();
    BestCostEngine::with_config(batch.memo(), &cm, batch.root(), batch.shareable(), config)
}

fn random_subset(rng: &mut Prng, n: usize) -> BitSet {
    let density = rng.gen_range(0.05..0.5);
    BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(density)))
}

/// A greedy-round-shaped batch (shared base, one extra element per
/// candidate) plus a few arbitrary sets to exercise the far-candidate
/// (uncommitted full solve) path.
fn round_batch(rng: &mut Prng, n: usize) -> Vec<BitSet> {
    let base = random_subset(rng, n);
    let mut sets: Vec<BitSet> = (0..n)
        .filter(|&e| !base.contains(e) && e % 3 == 0)
        .map(|e| base.with(e))
        .collect();
    sets.push(random_subset(rng, n));
    sets.push(random_subset(rng, n));
    sets.push(base);
    sets
}

/// Sharded `bc_many` ≡ serial `bc_many`, exactly (`==` on every value),
/// for threads ∈ {2, 3, 8} across rebase thresholds.
#[test]
fn sharded_bc_many_is_bit_identical_to_serial_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    assert!(n > 0);
    for threshold in [0usize, 4, usize::MAX] {
        let serial = RefCell::new(engine(
            &batch,
            MqoConfig {
                rebase_threshold: threshold,
                threads: 1,
                ..Default::default()
            },
        ));
        for threads in [2usize, 3, 8] {
            let sharded = RefCell::new(engine(
                &batch,
                MqoConfig {
                    rebase_threshold: threshold,
                    threads,
                    ..Default::default()
                },
            ));
            seeded_sweep(
                "sharded_vs_serial",
                SWEEP_SEED + threads as u64 + (threshold as u64 % 101) * 8,
                8,
                |rng| {
                    let sets = round_batch(rng, n);
                    let a = serial.borrow_mut().bc_many(&sets);
                    let b = sharded.borrow_mut().bc_many(&sets);
                    assert_eq!(
                        a, b,
                        "threads {threads}, threshold {threshold}: sharded values \
                         must be bit-identical to serial"
                    );
                },
            );
            // (Incremental-path coverage is asserted by the greedy replay
            // below, whose candidates are exactly one element off base;
            // these batches include arbitrary far sets, so at tight
            // thresholds every candidate may legitimately go full.)
        }
    }
}

/// Sharded `bc_many` ≡ `force_full` to 1e-9 relative on the same batches.
#[test]
fn sharded_bc_many_matches_force_full_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    let full = RefCell::new(engine(
        &batch,
        MqoConfig {
            force_full: true,
            ..Default::default()
        },
    ));
    for threads in [2usize, 8] {
        let sharded = RefCell::new(engine(
            &batch,
            MqoConfig {
                threads,
                ..Default::default()
            },
        ));
        seeded_sweep(
            "sharded_vs_force_full",
            SWEEP_SEED + 40 + threads as u64,
            6,
            |rng| {
                let sets = round_batch(rng, n);
                let many = sharded.borrow_mut().bc_many(&sets);
                for (s, &v) in sets.iter().zip(&many) {
                    let expect = full.borrow_mut().bc(s);
                    assert!(
                        (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                        "threads {threads}: sharded {v} vs full {expect}"
                    );
                }
            },
        );
    }
}

/// A full greedy-run replay (growing base, every remaining element probed
/// per round) is bit-identical between serial and sharded engines — the
/// exact schedule the strategies execute — and both count the same
/// evaluations and cone replays.
#[test]
fn greedy_replay_is_bit_identical_across_thread_counts() {
    let batch = bq4();
    let n = batch.universe_size();
    let mut serial = engine(
        &batch,
        MqoConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let mut sharded = engine(
        &batch,
        MqoConfig {
            threads: 8,
            ..Default::default()
        },
    );
    let mut base = BitSet::empty(n);
    for round in 0..12.min(n) {
        let candidates: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e))
            .map(|e| base.with(e))
            .collect();
        let a = serial.bc_many(&candidates);
        let b = sharded.bc_many(&candidates);
        assert_eq!(a, b, "round {round}");
        // Commit the argmin (the greedy pick) and continue.
        let pick = a
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap();
        let elem = candidates[pick]
            .symmetric_difference_iter(&base)
            .next()
            .unwrap();
        base.insert(elem);
    }
    let (_, inc) = sharded.eval_counts();
    assert!(
        inc > 0,
        "round-shaped candidates must take the sharded incremental path"
    );
    // Replay hits resolve on the calling thread before the fan-out, so
    // both handles replay the same candidates and count alike.
    assert!(serial.replayed_evals() > 0, "later rounds must replay");
    assert_eq!(serial.replayed_evals(), sharded.replayed_evals());
    assert_eq!(serial.eval_counts(), sharded.eval_counts());
}

/// Asserts `got` and `want` agree bit for bit.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}, candidate {i}: long-lived {a} vs fresh overlay {b}"
        );
    }
}

/// Drives one long-lived handle through greedy-shaped addition rounds
/// (one commit per round, through `bc_many` and through single `bc`
/// calls), cleanup-shaped removal rounds, a multi-element commit and a
/// far rebase, and checks every answer against a fresh handle rebased to
/// the same base. The fresh handle has no cone records, so each of its
/// answers is a fresh overlay; the long-lived handle answers untouched
/// candidates by replaying records of earlier rounds. Returns the
/// long-lived handle's replay count.
fn assert_replay_exact(name: &str, batch: &BatchDag, seed: u64) -> u64 {
    // The default config reads MQO_THREADS, so the suite's two thread
    // settings cover the serial and the sharded `bc_many`.
    let config = MqoConfig::default();
    let mut long = engine(batch, config);
    let arenas = Arc::clone(long.arenas());
    let fresh_at = |base: &BitSet| {
        let mut fresh = BestCostEngine::from_arenas(Arc::clone(&arenas), config);
        fresh.rebase(base);
        fresh
    };
    let n = batch.universe_size();
    let mut rng = Prng::seed_from_u64(seed);
    let mut base = BitSet::empty(n);
    for round in 0..16 {
        let what = format!("{name} round {round}");
        match round {
            // Cleanup shape: every removal `base − {e}` through `bc`.
            5 | 13 => {
                long.rebase(&base);
                let sets: Vec<BitSet> = base.iter().map(|e| base.without(e)).collect();
                let got: Vec<f64> = sets.iter().map(|s| long.bc(s)).collect();
                let mut fresh = fresh_at(&base);
                let want: Vec<f64> = sets.iter().map(|s| fresh.bc(s)).collect();
                assert_bits(&got, &want, &what);
                assert_eq!(fresh.replayed_evals(), 0, "{what}: fresh handle replayed");
                continue;
            }
            // A multi-element commit: three random elements at once.
            8 => {
                for _ in 0..3 {
                    base.insert(rng.gen_range(0..n));
                }
                long.rebase(&base);
            }
            // A far rebase: an unrelated random set, past the threshold.
            11 => {
                base = random_subset(&mut rng, n);
                long.rebase(&base);
            }
            _ => {}
        }
        let sets: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e))
            .map(|e| base.with(e))
            .collect();
        if sets.is_empty() {
            break;
        }
        let got = if round % 4 == 3 {
            // The single-set entry point: commit the base, then probe.
            long.rebase(&base);
            sets.iter().map(|s| long.bc(s)).collect()
        } else {
            long.bc_many(&sets)
        };
        let want = fresh_at(&base).bc_many(&sets);
        assert_bits(&got, &want, &what);
        // Greedy shape: commit the argmin; the next round's rebase moves
        // the long-lived base by exactly this element.
        let pick = got
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap();
        base.copy_from(&sets[pick]);
    }
    long.replayed_evals()
}

/// Cross-round replay is bit-identical to a fresh overlay on TPCD BQ1–BQ6
/// and on generated workloads, and it actually fires.
#[test]
fn replayed_answers_are_bit_identical_to_fresh_overlays() {
    let mut batches: Vec<(String, BatchDag)> = (1..=6)
        .map(|i| {
            let w = mqo_tpcd::batched(i, 1.0);
            let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
            (format!("BQ{i}"), batch)
        })
        .collect();
    for (shape, seed) in [
        (Shape::Chain, 3u64),
        (Shape::Star, 11),
        (Shape::Snowflake, 29),
    ] {
        let w = mqo_tpcd::generate(&WorkloadSpec::smoke(shape, seed));
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        batches.push((format!("{}-{seed}", shape.name()), batch));
    }
    let mut replays = 0;
    for (k, (name, batch)) in batches.iter().enumerate() {
        replays += assert_replay_exact(name, batch, SWEEP_SEED + 100 + k as u64);
    }
    assert!(replays > 0, "no candidate was answered by replay");
}
