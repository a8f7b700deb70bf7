//! The typed error taxonomy of the fault-tolerant serving surface.
//!
//! Every operation in the `Session`/`MqoService` stack that can fail on
//! *user input* has a fallible `try_*` variant returning [`MqoError`]; the
//! historical panicking entry points remain as thin shims that format the
//! same error. Internal invariant violations still panic — the serving
//! layer contains those with `catch_unwind` and surfaces them to the
//! affected submitters as [`MqoError::RoundFailed`] (see
//! [`crate::serve::MqoService`]).
//!
//! Plan validation ([`PlanValidator`]) is the admission door: a malformed
//! plan (unknown table instance, out-of-range column, duplicate aggregate
//! output) is rejected *before* it reaches the single-writer admission
//! round, so one bad client cannot take down a round shared with healthy
//! submitters.

use std::fmt;

use mqo_volcano::logical::PlanNode;
use mqo_volcano::rules::ExpansionLimit;
use mqo_volcano::{ColId, DagContext, InstanceId};

use crate::batch::QueryTicket;

/// Why a submitted plan failed pre-admission validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanFault {
    /// The plan scans or references a table instance never registered in
    /// the session's [`DagContext`].
    UnknownInstance {
        /// The out-of-range instance id.
        inst: InstanceId,
        /// How many instances the context has registered.
        n_instances: usize,
    },
    /// A predicate or aggregate references a column that does not exist:
    /// a base column index past its table's schema, or a synthetic column
    /// id never registered.
    UnknownColumn {
        /// The dangling column reference.
        col: ColId,
    },
    /// An aggregate specification binds two calls to the same output
    /// column, making the downstream reference ambiguous.
    DuplicateAggOutput {
        /// The doubly-bound output column.
        col: ColId,
    },
}

impl fmt::Display for PlanFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanFault::UnknownInstance { inst, n_instances } => write!(
                f,
                "unknown table instance {inst:?} (the context registers {n_instances})"
            ),
            PlanFault::UnknownColumn { col } => {
                write!(f, "reference to nonexistent column {col:?}")
            }
            PlanFault::DuplicateAggOutput { col } => {
                write!(f, "duplicate aggregate output column {col:?}")
            }
        }
    }
}

/// Typed errors of the fallible (`try_*`) session and serving surface.
///
/// The panicking wrappers (`Session::build`, `OptimizedBatch::add_query`,
/// `MqoService::submit_query`, …) are shims over the `try_*` variants and
/// panic with these errors' `Display` text, so the taxonomy is the single
/// source of truth for both surfaces.
#[derive(Clone, Debug, PartialEq)]
pub enum MqoError {
    /// `Session::try_build` without a [`DagContext`].
    MissingContext,
    /// `Session::try_build` with an empty query list — a batch is never
    /// empty (and retiring the last live query is rejected for the same
    /// reason, as [`MqoError::LastLiveQuery`]).
    EmptyBatch,
    /// A plan failed pre-admission validation; `query` is its position in
    /// the build's query list (0 for single-plan admissions).
    InvalidPlan {
        /// Index of the offending plan in the submitted list.
        query: usize,
        /// What is wrong with it.
        fault: PlanFault,
    },
    /// The ticket was never issued by this batch, or its provenance entry
    /// was dropped by history compaction.
    UnknownTicket(QueryTicket),
    /// The ticket's query was already retired.
    TicketRetired(QueryTicket),
    /// Retiring this ticket would empty the batch; a batch always keeps at
    /// least one live query.
    LastLiveQuery(QueryTicket),
    /// The savepoint does not belong to this batch's lineage, or the batch
    /// was already rolled back past it (e.g. by a concurrent caller
    /// through the serving layer).
    StaleSavepoint,
    /// The coalesced admission round this submission was queued into
    /// panicked; the batch was rolled back to the round's entry savepoint
    /// and the previously published snapshot stays live. Resubmitting is
    /// safe — the failure affected only that round.
    RoundFailed,
    /// Expanding the batch outgrew a hard resource cap (today the memo's
    /// expression cap, which a runaway rule or an oversized batch hits).
    /// `Session::try_build` then has no batch to return;
    /// `OptimizedBatch::try_add_query` rolls the batch back to its state
    /// before the admission.
    ResourceLimit {
        /// What outgrew its cap.
        what: &'static str,
        /// The cap.
        limit: usize,
    },
}

impl From<ExpansionLimit> for MqoError {
    fn from(e: ExpansionLimit) -> Self {
        MqoError::ResourceLimit {
            what: "memo expressions",
            limit: e.limit,
        }
    }
}

impl fmt::Display for MqoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqoError::MissingContext => {
                write!(f, "a DagContext is required (call .context(ctx))")
            }
            MqoError::EmptyBatch => write!(
                f,
                "at least one query is required (call .query(..) or .queries(..))"
            ),
            MqoError::InvalidPlan { query, fault } => {
                write!(f, "invalid plan for query {query}: {fault}")
            }
            MqoError::UnknownTicket(t) => write!(
                f,
                "ticket {t:?} is unknown: never issued by this batch (or compacted away)"
            ),
            MqoError::TicketRetired(t) => {
                write!(f, "ticket {t:?} was already retired (or never issued)")
            }
            MqoError::LastLiveQuery(_) => write!(
                f,
                "cannot retire the last live query: a batch must stay non-empty"
            ),
            MqoError::StaleSavepoint => write!(
                f,
                "stale savepoint: not from this batch's lineage, or already rolled back past"
            ),
            MqoError::RoundFailed => write!(
                f,
                "admission round failed and was rolled back; the batch and published \
                 snapshot are unchanged — resubmit if desired"
            ),
            MqoError::ResourceLimit { what, limit } => write!(
                f,
                "resource limit exceeded: {what} past {limit} (runaway rule or oversized batch)"
            ),
        }
    }
}

impl std::error::Error for MqoError {}

/// A lock-free snapshot of everything plan validation needs: per-instance
/// column counts and the synthetic-column count of one [`DagContext`].
/// Built once (e.g. at service creation) and consulted on every
/// submission without touching the context — or any lock — again.
#[derive(Clone, Debug)]
pub struct PlanValidator {
    /// Column count of each registered instance, indexed by `InstanceId`.
    cols_per_instance: Vec<u32>,
    /// Number of registered synthetic columns.
    n_synths: u32,
}

impl PlanValidator {
    /// Snapshots the validation schema of `ctx`.
    pub fn new(ctx: &DagContext) -> Self {
        let cols_per_instance = (0..ctx.n_instances())
            .map(|i| {
                let rel = ctx.rel(InstanceId(i as u32));
                ctx.catalog().table(rel.table).columns.len() as u32
            })
            .collect();
        PlanValidator {
            cols_per_instance,
            n_synths: ctx.n_synths() as u32,
        }
    }

    /// Validates one plan tree: every scanned instance is registered, every
    /// column reference resolves, and no aggregate binds an output column
    /// twice. Returns the first fault found (deterministic: a pre-order
    /// walk, predicates before children).
    pub fn validate(&self, plan: &PlanNode) -> Result<(), PlanFault> {
        match plan {
            PlanNode::Scan { inst } => self.check_instance(*inst),
            PlanNode::Select { pred, input } => {
                for col in pred.columns() {
                    self.check_column(col)?;
                }
                self.validate(input)
            }
            PlanNode::Join { pred, left, right } => {
                for col in pred.columns() {
                    self.check_column(col)?;
                }
                self.validate(left)?;
                self.validate(right)
            }
            PlanNode::Aggregate { spec, input } => {
                for &col in &spec.group_by {
                    self.check_column(col)?;
                }
                for (i, call) in spec.aggs.iter().enumerate() {
                    self.check_column(call.input)?;
                    self.check_column(call.output)?;
                    // AggSpec::new sorts calls by output, so a duplicate
                    // binding is adjacent; still scan defensively in case
                    // the spec was constructed by hand.
                    if spec.aggs[..i].iter().any(|c| c.output == call.output) {
                        return Err(PlanFault::DuplicateAggOutput { col: call.output });
                    }
                }
                self.validate(input)
            }
        }
    }

    fn check_instance(&self, inst: InstanceId) -> Result<(), PlanFault> {
        if (inst.0 as usize) < self.cols_per_instance.len() {
            Ok(())
        } else {
            Err(PlanFault::UnknownInstance {
                inst,
                n_instances: self.cols_per_instance.len(),
            })
        }
    }

    fn check_column(&self, col: ColId) -> Result<(), PlanFault> {
        let known = match col {
            ColId::Base { inst, col: c } => {
                self.check_instance(inst)?;
                c < self.cols_per_instance[inst.0 as usize]
            }
            ColId::Synth(i) => i < self.n_synths,
        };
        if known {
            Ok(())
        } else {
            Err(PlanFault::UnknownColumn { col })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expansion cap reaches the `try_*` surface as a typed error (the
    /// stop itself is tested in `mqo_volcano::rules` with a small cap).
    #[test]
    fn expansion_limit_maps_to_resource_limit() {
        let e = MqoError::from(ExpansionLimit { limit: 7 });
        assert_eq!(
            e,
            MqoError::ResourceLimit {
                what: "memo expressions",
                limit: 7
            }
        );
        assert!(e.to_string().contains("memo expressions past 7"));
    }
}
