#ifndef INCDB_EVAL_UNIFY_JOIN_H_
#define INCDB_EVAL_UNIFY_JOIN_H_

/// \file unify_join.h
/// \brief The null-aware unification join, PhysOp::kUnifyJoin: one pass for
/// a join whose key conjunct is θ* = (a = b ∨ null(a) ∨ null(b)), the shape
/// the Fig. 2(b) σ?-rule gives every join equality. The executor
/// (eval/exec.cpp) and delta propagation (eval/delta.cpp) both run
/// UnifyJoinRows, so the operator's semantics live in one place.
///
/// Match rule: a pair (l, r) matches iff l[a] is null, r[b] is null, or
/// l[a] == r[b]. θ* has that truth value under naive and SQL 3VL alike.
/// Every matching pair is visited exactly once, so the operator is valid
/// under bag semantics as well as set semantics.
///
/// Algorithm: the build side's constant-keyed rows are hashed on the key
/// and its null-keyed rows kept in a side list. A constant-keyed probe row
/// takes its hash bucket, then the null list; a null-keyed probe row sweeps
/// the whole build side. Residual conjuncts are checked per pair. When the
/// fused projection keeps only one side's columns under set semantics
/// (π_L σθ*(L × R), the inner query of every Q⁺ of a difference), each kept
/// row is emitted at most once and its probe short-circuits: with no
/// residual it matches iff its own key is null, the other side holds a
/// null key, or its hash bucket is non-empty (the null-aware semi/anti-join
/// technique, Oracle 11g "NAAJ").

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "core/relation.h"
#include "core/status.h"
#include "core/tuple.h"
#include "eval/plan.h"

namespace incdb {

/// Rows of one join input indexed on one key column: constant keys hashed,
/// null keys listed. References the rows by index; copies no tuples.
class UnifyKeyIndex {
 public:
  UnifyKeyIndex(const std::vector<Relation::Row>& rows, size_t key) {
    buckets_.reserve(rows.size());
    for (uint32_t i = 0; i < rows.size(); ++i) {
      const Value& v = rows[i].first[key];
      if (v.is_null()) {
        null_rows_.push_back(i);
      } else {
        buckets_[v].push_back(i);
      }
    }
  }

  /// Rows whose (constant) key equals `v`; nullptr when there are none.
  const std::vector<uint32_t>* Bucket(const Value& v) const {
    auto it = buckets_.find(v);
    return it == buckets_.end() ? nullptr : &it->second;
  }
  /// Rows whose key is null, in input order.
  const std::vector<uint32_t>& null_rows() const { return null_rows_; }

 private:
  std::unordered_map<Value, std::vector<uint32_t>> buckets_;
  std::vector<uint32_t> null_rows_;
};

/// Runs the kUnifyJoin node `n` over input rows `lrows` × `rrows` (set
/// semantics when `set`). `emit(row, count, distinct)` receives each output
/// row; `distinct` is true when the row cannot repeat within this call (an
/// unprojected pair of distinct input rows). `tick(units)` is the
/// cooperative checkpoint: called once per window of `window` probe rows
/// (≥ 1: the plan's resolved batch_size), once per hash-bucket run and once
/// per window of a null-key sweep. Both hooks return Status; the first
/// error stops the join. Emission order is
/// deterministic: probe rows in input order, then bucket rows, then null
/// rows (or the whole build side, in order, for a null-keyed probe).
template <typename Tick, typename Emit>
Status UnifyJoinRows(const PhysNode& n, bool set, size_t window,
                     const std::vector<Relation::Row>& lrows,
                     const std::vector<Relation::Row>& rrows, Tick&& tick,
                     Emit&& emit) {
  if (lrows.empty() || rrows.empty()) return Status::OK();
  assert(window > 0);
  const bool trivial = n.cond->kind == CondKind::kTrue;
  Tuple joint, projected;  // scratch, reused across pairs
  auto residual_holds = [&](const Tuple& lt, const Tuple& rt) {
    if (trivial) return true;
    joint.AssignConcat(lt, rt);
    return n.pred(joint) == TV3::kT;
  };

  // Semijoin form: π onto one side under set semantics.
  if (set && n.fused_proj && (n.proj_left_only || n.proj_right_only)) {
    const bool keep_left = n.proj_left_only;
    const auto& krows = keep_left ? lrows : rrows;
    const auto& orows = keep_left ? rrows : lrows;
    const size_t kkey = keep_left ? n.lkeys[0] : n.rkeys[0];
    const UnifyKeyIndex index(orows, keep_left ? n.rkeys[0] : n.lkeys[0]);
    std::vector<size_t> kpos = n.proj_pos;
    if (!keep_left) {
      for (size_t& p : kpos) p -= n.left_arity;
    }
    // True when some other-side row listed in `ids` passes the residual.
    auto any_in = [&](const Tuple& kt,
                      const std::vector<uint32_t>& ids) -> bool {
      for (uint32_t i : ids) {
        const Tuple& ot = orows[i].first;
        if (keep_left ? residual_holds(kt, ot) : residual_holds(ot, kt)) {
          return true;
        }
      }
      return false;
    };
    for (size_t begin = 0; begin < krows.size(); begin += window) {
      const size_t end = std::min(krows.size(), begin + window);
      INCDB_RETURN_IF_ERROR(tick(end - begin));
      for (size_t ki = begin; ki < end; ++ki) {
        const Tuple& kt = krows[ki].first;
        const Value& key = kt[kkey];
        bool match = false;
        if (trivial) {
          match = key.is_null() || !index.null_rows().empty() ||
                  index.Bucket(key) != nullptr;
        } else if (key.is_null()) {
          for (size_t wb = 0; wb < orows.size() && !match; wb += window) {
            const size_t we = std::min(orows.size(), wb + window);
            INCDB_RETURN_IF_ERROR(tick(we - wb));
            for (size_t oi = wb; oi < we && !match; ++oi) {
              const Tuple& ot = orows[oi].first;
              match = keep_left ? residual_holds(kt, ot)
                                : residual_holds(ot, kt);
            }
          }
        } else {
          const std::vector<uint32_t>* bucket = index.Bucket(key);
          INCDB_RETURN_IF_ERROR(tick((bucket ? bucket->size() : 0) +
                                     index.null_rows().size()));
          match = (bucket != nullptr && any_in(kt, *bucket)) ||
                  any_in(kt, index.null_rows());
        }
        if (match) {
          projected.AssignProject(kt, kpos);
          INCDB_RETURN_IF_ERROR(emit(projected, uint64_t{1}, false));
        }
      }
    }
    return Status::OK();
  }

  // Full join: index the smaller side, probe with the other.
  const bool build_left = lrows.size() <= rrows.size();
  const auto& brows = build_left ? lrows : rrows;
  const auto& prows = build_left ? rrows : lrows;
  const size_t pkey = build_left ? n.rkeys[0] : n.lkeys[0];
  const UnifyKeyIndex index(brows, build_left ? n.lkeys[0] : n.rkeys[0]);
  auto pair = [&](uint32_t bi, const Tuple& pt, uint64_t pc) -> Status {
    const auto& [bt, bc] = brows[bi];
    const Tuple& lt = build_left ? bt : pt;
    const Tuple& rt = build_left ? pt : bt;
    if (!residual_holds(lt, rt)) return Status::OK();
    const uint64_t c = set ? 1 : bc * pc;
    if (n.fused_proj) {  // project straight from the pair
      projected.Clear();
      for (size_t p : n.proj_pos) {
        projected.Append(p < n.left_arity ? lt[p] : rt[p - n.left_arity]);
      }
      return emit(projected, c, false);
    }
    if (trivial) joint.AssignConcat(lt, rt);  // else residual_holds built it
    return emit(joint, c, true);
  };
  for (size_t begin = 0; begin < prows.size(); begin += window) {
    const size_t end = std::min(prows.size(), begin + window);
    INCDB_RETURN_IF_ERROR(tick(end - begin));
    for (size_t pi = begin; pi < end; ++pi) {
      const auto& [pt, pc] = prows[pi];
      const Value& key = pt[pkey];
      if (key.is_null()) {
        for (size_t wb = 0; wb < brows.size(); wb += window) {
          const size_t we = std::min(brows.size(), wb + window);
          INCDB_RETURN_IF_ERROR(tick(we - wb));
          for (size_t bi = wb; bi < we; ++bi) {
            INCDB_RETURN_IF_ERROR(pair(static_cast<uint32_t>(bi), pt, pc));
          }
        }
        continue;
      }
      const std::vector<uint32_t>* bucket = index.Bucket(key);
      INCDB_RETURN_IF_ERROR(
          tick((bucket ? bucket->size() : 0) + index.null_rows().size()));
      if (bucket != nullptr) {
        for (uint32_t bi : *bucket) {
          INCDB_RETURN_IF_ERROR(pair(bi, pt, pc));
        }
      }
      for (uint32_t bi : index.null_rows()) {
        INCDB_RETURN_IF_ERROR(pair(bi, pt, pc));
      }
    }
  }
  return Status::OK();
}

}  // namespace incdb

#endif  // INCDB_EVAL_UNIFY_JOIN_H_
