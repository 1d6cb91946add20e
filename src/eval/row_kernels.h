#ifndef INCDB_EVAL_ROW_KERNELS_H_
#define INCDB_EVAL_ROW_KERNELS_H_

/// \file row_kernels.h
/// \brief One row kernel per unary operator kind: FilterRows (kFilterSel,
/// kFusedProjectFilter) and ProjectRows (kProject). The executor
/// (eval/exec.cpp), delta propagation (eval/delta.cpp) and the streaming
/// cursor (api/session.cpp) all run these loops, so a selection's
/// semantics live in one place. They take the join kernels' hooks
/// (eval/join_rows.h), which both return Status:
///  * `tick(units)` — the cooperative checkpoint, once per window of input
///    rows with its size;
///  * `emit(row, count, distinct)` — receives each output row; `distinct`
///    is true when the row cannot repeat within this call (an unprojected
///    row of distinct input rows).
/// Both sweep rows [begin, end) in windows of at most `window` (the plan's
/// resolved batch_size, ≥ 1) and emit in input order, so the output is the
/// same at every window size.

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/relation.h"
#include "core/status.h"
#include "core/tuple.h"
#include "eval/batch.h"
#include "eval/plan.h"

namespace incdb {

/// The flat rows of one operator input.
using Rows = std::vector<Relation::Row>;

/// Reusable columnar buffers of one FilterRows caller.
struct FilterScratch {
  BatchGather gather;
  Batch batch;
  BatchPredicate::Scratch regs;
  SelVector sel;
};

/// Runs the selection node `n` over rows [begin, end): per window, the
/// columns its program reads are transposed, the program selects the rows
/// whose condition is t, and those are emitted with their counts —
/// projected through n.proj_pos for kFusedProjectFilter.
template <typename Tick, typename Emit>
Status FilterRows(const PhysNode& n, size_t window, const Rows& rows,
                  size_t begin, size_t end, FilterScratch* s, Tick&& tick,
                  Emit&& emit) {
  assert(window > 0);
  const bool fused = n.op == PhysOp::kFusedProjectFilter;
  const BatchPredicate& bp = *n.batch_pred;
  // The program was compiled against the operator's input schema: n.attrs
  // for a plain σ (schema-preserving), the child schema for the fused π∘σ.
  const size_t in_arity = n.left->attrs.size();
  Tuple projected;
  for (size_t wb = begin; wb < end; wb += window) {
    const size_t we = std::min(end, wb + window);
    INCDB_RETURN_IF_ERROR(tick(we - wb));
    s->gather.Gather(rows, wb, we, bp.referenced(), in_arity, &s->batch);
    s->sel.clear();
    bp.SelectTrue(s->batch, &s->regs, &s->sel);
    for (uint32_t i : s->sel) {
      const auto& [t, c] = rows[wb + i];
      if (!fused) {
        INCDB_RETURN_IF_ERROR(emit(t, c, true));
        continue;
      }
      projected.AssignProject(t, n.proj_pos);
      INCDB_RETURN_IF_ERROR(emit(projected, c, false));
    }
  }
  return Status::OK();
}

/// Projects rows [begin, end) onto positions `pos`, counts passing through.
template <typename Tick, typename Emit>
Status ProjectRows(const std::vector<size_t>& pos, size_t window,
                   const Rows& rows, size_t begin, size_t end, Tick&& tick,
                   Emit&& emit) {
  assert(window > 0);
  Tuple projected;
  for (size_t wb = begin; wb < end; wb += window) {
    const size_t we = std::min(end, wb + window);
    INCDB_RETURN_IF_ERROR(tick(we - wb));
    for (size_t i = wb; i < we; ++i) {
      projected.AssignProject(rows[i].first, pos);
      INCDB_RETURN_IF_ERROR(emit(projected, rows[i].second, false));
    }
  }
  return Status::OK();
}

/// Runs the kFilterSel, kFusedProjectFilter or kProject node `n` over rows
/// [begin, end) with its kernel.
template <typename Tick, typename Emit>
Status UnaryRows(const PhysNode& n, size_t window, const Rows& rows,
                 size_t begin, size_t end, FilterScratch* s, Tick&& tick,
                 Emit&& emit) {
  if (n.op == PhysOp::kProject) {
    return ProjectRows(n.proj_pos, window, rows, begin, end, tick, emit);
  }
  return FilterRows(n, window, rows, begin, end, s, tick, emit);
}

}  // namespace incdb

#endif  // INCDB_EVAL_ROW_KERNELS_H_
