#ifndef INCDB_EVAL_DELTA_H_
#define INCDB_EVAL_DELTA_H_

/// \file delta.h
/// \brief Incremental result maintenance: row-level deltas propagated
/// bottom-up through a compiled plan tree (Gupta–Mumick delta rules).
///
/// Given the boundary snapshots and per-relation row-level deltas of one
/// commit (Database::Commit's CommitInfo), PropagateDelta computes the
/// delta of a *maintainable* plan's result in time proportional to the
/// delta (times the unchanged join sides), not the data:
///
///   scan           Δ = the base relation's commit delta
///   σ / fused π∘σ  Δ = σ(Δchild)        (the node's columnar program)
///   π, ρ           Δ = π(Δchild)
///   ∪              Δ = Δleft + Δright
///   ⋈              Δ = ΔL ⋈ R_new + L_old ⋈ ΔR    (join bilinearity)
///
/// Bag mode propagates signed deltas (Δ⁺/Δ⁻) exactly. Set modes propagate
/// insert-only deltas: every maintainable operator is monotone, so an
/// inserted base row can only add result tuples — a set-level deletion
/// aborts propagation and the caller falls back to invalidation. Old/new
/// join inputs are re-evaluated lazily (only when the opposite side's
/// delta is non-empty) against the pinned boundary snapshots.
///
/// Plan::maintainable (set at compile time) gates entry: difference,
/// intersection, division, semijoins, distinct, Dom and c-table plans are
/// never propagated. ResultCache entries for maintainable plans are
/// upgraded in place by the session's mutation path (api/session.cpp)
/// using ApplyResultDelta.

#include "core/database.h"
#include "core/relation.h"
#include "core/status.h"
#include "eval/plan.h"

namespace incdb {

/// Propagates the commit's row-level deltas through `plan` and returns the
/// delta of the plan's result. `plan` must be maintainable and fully bound
/// (param_count == 0). Any non-OK status means "this result cannot be
/// maintained across this commit" — callers fall back to invalidation;
/// it is never a corruption signal.
StatusOr<RelationDelta> PropagateDelta(const PlanPtr& plan,
                                       const CommitInfo& info);

/// Applies a propagated delta to a cached result in place. Under set
/// semantics the delta is insert-only and application is idempotent
/// (insert-if-absent with multiplicity 1); under bag semantics the signed
/// delta applies exactly (insertions first, so exact math never
/// underflows). A non-OK status leaves no usable result — the caller must
/// discard the relation and recompute.
Status ApplyResultDelta(Relation* result, const RelationDelta& delta,
                        bool set_semantics);

}  // namespace incdb

#endif  // INCDB_EVAL_DELTA_H_
