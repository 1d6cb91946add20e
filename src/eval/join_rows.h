#ifndef INCDB_EVAL_JOIN_ROWS_H_
#define INCDB_EVAL_JOIN_ROWS_H_

/// \file join_rows.h
/// \brief One row kernel per join kind: HashJoinRows (PhysOp::kHashJoin),
/// NLJoinRows (kNLJoin) and UnifyJoinRows (kUnifyJoin), the binary
/// counterparts of eval/row_kernels.h with the same `tick`/`emit` hooks:
/// tick also runs once per hash-bucket run (with its size), and a row is
/// distinct when it is an unprojected pair of distinct input rows. The
/// executor (eval/exec.cpp) and delta propagation (eval/delta.cpp) both
/// run these loops, so each join's semantics live in one place.
/// `window` is the plan's resolved batch_size (≥ 1). A pair's multiplicity
/// is lc·rc (1 under set semantics); its row is the fused projection read
/// straight from the pair, else the concatenation.
///
/// Residuals go through JoinPairs: θ = true passes every pair on at once;
/// otherwise the node's columnar program (PhysNode::batch_pred) selects
/// them with a PairSelector (eval/batch.h), from pair windows of hash
/// candidates or from broadcast sweeps. Selected pairs come back in
/// candidate order, so every kernel emits in the same order at every
/// window size. The semijoin and IN operators of eval/exec.cpp use
/// JoinPairs too.
///
/// The θ* join handles a key conjunct θ* = (a = b ∨ null(a) ∨ null(b)), the
/// shape the Fig. 2(b) σ?-rule gives every join equality: (l, r) matches
/// iff l[a] is null, r[b] is null, or l[a] == r[b], under naive and SQL
/// 3VL alike. Every matching pair is visited exactly once, so it is valid
/// under bags as well as sets. The build side's constant keys are hashed
/// and its null-keyed rows listed; a constant-keyed probe row takes its
/// bucket, then the null list; a null-keyed probe row sweeps the whole
/// build side. When the fused projection keeps one side's columns under
/// set semantics (π_L σθ*(L × R), the inner query of every Q⁺ of a
/// difference), each kept row is emitted at most once and its probe
/// short-circuits: with no residual it matches iff its own key is null,
/// the other side holds a null key, or its bucket is non-empty (the
/// null-aware semi/anti-join technique, Oracle 11g "NAAJ").

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/relation.h"
#include "core/status.h"
#include "core/tuple.h"
#include "eval/batch.h"
#include "eval/plan.h"
#include "eval/row_kernels.h"

namespace incdb {

/// \brief The pairs of `lrows` × `rrows` that node `n`'s condition selects,
/// handed to `on_pair(l, r)` (row ids) in candidate order.
template <typename OnPair>
class JoinPairs {
 public:
  JoinPairs(const PhysNode& n, size_t window, const Rows& lrows,
            const Rows& rrows, OnPair& on_pair)
      : window_(window), lrows_(lrows), rrows_(rrows), on_pair_(on_pair) {
    if (n.cond->kind != CondKind::kTrue) {
      sel_.emplace(*n.batch_pred, n.left_arity);
    }
  }

  /// Candidate pair (lrows[l], rrows[r]), queued into the pair window;
  /// a full window is selected at once.
  Status Add(uint32_t l, uint32_t r) {
    if (!sel_) return on_pair_(l, r);
    sel_->AddPair(l, r);
    return sel_->pending() == window_ ? Flush() : Status::OK();
  }

  /// Selects the queued candidates.
  Status Flush() {
    if (!sel_ || sel_->pending() == 0) return Status::OK();
    for (uint32_t k : sel_->SelectPairs(lrows_, rrows_)) {
      INCDB_RETURN_IF_ERROR(on_pair_(sel_->left(k), sel_->right(k)));
    }
    sel_->ClearPairs();
    return Status::OK();
  }

  /// Pairs of row `fixed` of one side (the left one when `fixed_left`)
  /// with rows [begin, end) of the other, after the queued candidates.
  /// The swept side is transposed on the first call.
  Status Sweep(bool fixed_left, uint32_t fixed, size_t begin, size_t end) {
    auto pass = [&](size_t o) {
      const uint32_t other = static_cast<uint32_t>(o);
      return fixed_left ? on_pair_(fixed, other) : on_pair_(other, fixed);
    };
    if (!sel_) {
      for (size_t o = begin; o < end; ++o) INCDB_RETURN_IF_ERROR(pass(o));
      return Status::OK();
    }
    INCDB_RETURN_IF_ERROR(Flush());
    if (!transposed_) {
      sel_->Transpose(fixed_left ? rrows_ : lrows_, /*right=*/fixed_left);
      transposed_ = true;
    }
    const Tuple& ft = (fixed_left ? lrows_ : rrows_)[fixed].first;
    for (uint32_t k : sel_->SelectBroadcast(ft, begin, end)) {
      INCDB_RETURN_IF_ERROR(pass(begin + k));
    }
    return Status::OK();
  }

 private:
  size_t window_;
  const Rows& lrows_;
  const Rows& rrows_;
  OnPair& on_pair_;
  std::optional<PairSelector> sel_;  // empty when θ = true
  bool transposed_ = false;
};

/// The on_pair hook that emits join pairs of node `n` through `emit`.
template <typename Emit>
auto PairEmitter(const PhysNode& n, bool set, const Rows& lrows,
                 const Rows& rrows, Emit& emit) {
  return [&n, set, &lrows, &rrows, &emit, row = Tuple()](
             uint32_t l, uint32_t r) mutable -> Status {
    const auto& [lt, lc] = lrows[l];
    const auto& [rt, rc] = rrows[r];
    const uint64_t c = set ? 1 : lc * rc;
    if (!n.fused_proj) {
      row.AssignConcat(lt, rt);
      return emit(row, c, true);
    }
    row.Clear();
    for (size_t p : n.proj_pos) {
      row.Append(p < n.left_arity ? lt[p] : rt[p - n.left_arity]);
    }
    return emit(row, c, false);
  };
}

/// Node `n`'s fused projection onto one side's columns, relative to it.
inline std::vector<size_t> KeptSidePositions(const PhysNode& n, bool left) {
  std::vector<size_t> pos = n.proj_pos;
  for (size_t& p : pos) p -= left ? 0 : n.left_arity;
  return pos;
}

/// Runs the kHashJoin node `n` over `lrows` ⋈ `rrows`. The smaller side
/// (the left one on a tie) indexes its rows on the key columns; the other
/// side's rows look up their bucket. Under SQL 3VL (`sql`) a null key
/// cannot satisfy the key equality with truth value t, so such rows are
/// skipped on both sides.
/// tick: once per window of rows on either side and once per bucket run.
/// Emission order: probe rows in input order, each bucket in input order.
template <typename Tick, typename Emit>
Status HashJoinRows(const PhysNode& n, bool set, bool sql, size_t window,
                    const Rows& lrows, const Rows& rrows, Tick&& tick,
                    Emit&& emit) {
  assert(window > 0);
  const bool build_left = lrows.size() <= rrows.size();
  const Rows& brows = build_left ? lrows : rrows;
  const Rows& prows = build_left ? rrows : lrows;
  const std::vector<size_t>& bkeys = build_left ? n.lkeys : n.rkeys;
  const std::vector<size_t>& pkeys = build_left ? n.rkeys : n.lkeys;
  Tuple key;  // scratch for both build and probe keys
  // Projects row `i` of `rows` onto `keys`; false when the key cannot
  // match.
  auto key_of = [&](const Rows& rows, size_t i,
                    const std::vector<size_t>& keys) {
    key.AssignProject(rows[i].first, keys);
    return !(sql && key.HasNull());
  };
  // The index holds row ids into the build side: no tuples are copied.
  std::unordered_map<Tuple, std::vector<uint32_t>> index;
  index.reserve(brows.size());
  for (size_t wb = 0; wb < brows.size(); wb += window) {
    const size_t we = std::min(brows.size(), wb + window);
    INCDB_RETURN_IF_ERROR(tick(we - wb));
    for (size_t i = wb; i < we; ++i) {
      if (key_of(brows, i, bkeys)) {
        index[key].push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (index.empty()) return Status::OK();
  auto emit_pair = PairEmitter(n, set, lrows, rrows, emit);
  JoinPairs pairs(n, window, lrows, rrows, emit_pair);
  for (size_t wb = 0; wb < prows.size(); wb += window) {
    const size_t we = std::min(prows.size(), wb + window);
    INCDB_RETURN_IF_ERROR(tick(we - wb));
    for (size_t pi = wb; pi < we; ++pi) {
      if (!key_of(prows, pi, pkeys)) continue;
      auto it = index.find(key);
      if (it == index.end()) continue;
      INCDB_RETURN_IF_ERROR(tick(it->second.size()));
      const uint32_t p = static_cast<uint32_t>(pi);
      for (uint32_t bi : it->second) {
        INCDB_RETURN_IF_ERROR(build_left ? pairs.Add(bi, p) : pairs.Add(p, bi));
      }
    }
  }
  return pairs.Flush();
}

/// Runs the kNLJoin node `n`: every left row × every right row. Per left
/// row, the right side is swept in windows with the left row broadcast.
/// tick: once per window, so every visited pair counts and a deadline
/// fires even when nothing matches. Emission order: left-major, right rows
/// in order. A condition-free product projected onto one side's columns
/// under set semantics is that side's projection (ProjectRows) when the
/// other side is non-empty: the same rows in the same first-emission
/// order, without visiting the pairs.
template <typename Tick, typename Emit>
Status NLJoinRows(const PhysNode& n, bool set, size_t window,
                  const Rows& lrows, const Rows& rrows, Tick&& tick,
                  Emit&& emit) {
  assert(window > 0);
  if (set && n.fused_proj && n.cond->kind == CondKind::kTrue &&
      (n.proj_left_only || n.proj_right_only)) {
    const bool keep_left = n.proj_left_only;
    const Rows& krows = keep_left ? lrows : rrows;
    if ((keep_left ? rrows : lrows).empty()) return Status::OK();
    return ProjectRows(KeptSidePositions(n, keep_left), window, krows, 0,
                       krows.size(), tick, emit);
  }
  auto emit_pair = PairEmitter(n, set, lrows, rrows, emit);
  JoinPairs pairs(n, window, lrows, rrows, emit_pair);
  for (size_t li = 0; li < lrows.size(); ++li) {
    for (size_t wb = 0; wb < rrows.size(); wb += window) {
      const size_t we = std::min(rrows.size(), wb + window);
      INCDB_RETURN_IF_ERROR(tick(we - wb));
      INCDB_RETURN_IF_ERROR(
          pairs.Sweep(/*fixed_left=*/true, static_cast<uint32_t>(li), wb, we));
    }
  }
  return Status::OK();
}

/// Rows of one join input indexed on one key column: constant keys hashed,
/// null keys listed. References the rows by index; copies no tuples.
class UnifyKeyIndex {
 public:
  UnifyKeyIndex(const Rows& rows, size_t key) {
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

/// Runs the kUnifyJoin node `n` over `lrows` × `rrows` (set semantics when
/// `set`). tick: once per window of probe rows, once per hash-bucket run
/// (bucket plus null list) and once per window of a null-key sweep.
/// Emission order: probe rows in input order, then bucket rows, then null
/// rows (or the whole build side, in order, for a null-keyed probe).
template <typename Tick, typename Emit>
Status UnifyJoinRows(const PhysNode& n, bool set, size_t window,
                     const Rows& lrows, const Rows& rrows, Tick&& tick,
                     Emit&& emit) {
  if (lrows.empty() || rrows.empty()) return Status::OK();
  assert(window > 0);
  const bool trivial = n.cond->kind == CondKind::kTrue;

  // Semijoin form: π onto one side under set semantics. A kept row's
  // verdict lands once its window of kept rows has been selected.
  if (set && n.fused_proj && (n.proj_left_only || n.proj_right_only)) {
    const bool keep_left = n.proj_left_only;
    const Rows& krows = keep_left ? lrows : rrows;
    const Rows& orows = keep_left ? rrows : lrows;
    const size_t kkey = keep_left ? n.lkeys[0] : n.rkeys[0];
    const UnifyKeyIndex index(orows, keep_left ? n.rkeys[0] : n.lkeys[0]);
    const std::vector<size_t> kpos = KeptSidePositions(n, keep_left);
    Tuple projected;
    std::vector<char> matched;  // per kept row of the current window
    size_t begin = 0;
    auto mark = [&](uint32_t l, uint32_t r) {
      matched[(keep_left ? l : r) - begin] = 1;
      return Status::OK();
    };
    JoinPairs pairs(n, window, lrows, rrows, mark);
    for (; begin < krows.size(); begin += window) {
      const size_t end = std::min(krows.size(), begin + window);
      INCDB_RETURN_IF_ERROR(tick(end - begin));
      matched.assign(end - begin, 0);
      for (size_t ki = begin; ki < end; ++ki) {
        const uint32_t k = static_cast<uint32_t>(ki);
        char& m = matched[ki - begin];
        const Value& key = krows[ki].first[kkey];
        if (trivial) {
          m = key.is_null() || !index.null_rows().empty() ||
              index.Bucket(key) != nullptr;
        } else if (key.is_null()) {
          for (size_t wb = 0; wb < orows.size() && !m; wb += window) {
            const size_t we = std::min(orows.size(), wb + window);
            INCDB_RETURN_IF_ERROR(tick(we - wb));
            INCDB_RETURN_IF_ERROR(pairs.Sweep(keep_left, k, wb, we));
          }
        } else {
          const std::vector<uint32_t>* bucket = index.Bucket(key);
          INCDB_RETURN_IF_ERROR(tick((bucket ? bucket->size() : 0) +
                                     index.null_rows().size()));
          for (const auto* ids : {bucket, &index.null_rows()}) {
            for (size_t j = 0; ids != nullptr && j < ids->size() && !m; ++j) {
              INCDB_RETURN_IF_ERROR(keep_left ? pairs.Add(k, (*ids)[j])
                                              : pairs.Add((*ids)[j], k));
            }
          }
        }
      }
      INCDB_RETURN_IF_ERROR(pairs.Flush());
      for (size_t ki = begin; ki < end; ++ki) {
        if (!matched[ki - begin]) continue;
        projected.AssignProject(krows[ki].first, kpos);
        INCDB_RETURN_IF_ERROR(emit(projected, uint64_t{1}, false));
      }
    }
    return Status::OK();
  }

  // Full join: index the smaller side, probe with the other.
  const bool build_left = lrows.size() <= rrows.size();
  const Rows& brows = build_left ? lrows : rrows;
  const Rows& prows = build_left ? rrows : lrows;
  const size_t pkey = build_left ? n.rkeys[0] : n.lkeys[0];
  const UnifyKeyIndex index(brows, build_left ? n.lkeys[0] : n.rkeys[0]);
  auto emit_pair = PairEmitter(n, set, lrows, rrows, emit);
  JoinPairs pairs(n, window, lrows, rrows, emit_pair);
  for (size_t begin = 0; begin < prows.size(); begin += window) {
    const size_t end = std::min(prows.size(), begin + window);
    INCDB_RETURN_IF_ERROR(tick(end - begin));
    for (size_t pi = begin; pi < end; ++pi) {
      const uint32_t p = static_cast<uint32_t>(pi);
      const Value& key = prows[pi].first[pkey];
      if (key.is_null()) {
        for (size_t wb = 0; wb < brows.size(); wb += window) {
          const size_t we = std::min(brows.size(), wb + window);
          INCDB_RETURN_IF_ERROR(tick(we - wb));
          INCDB_RETURN_IF_ERROR(pairs.Sweep(!build_left, p, wb, we));
        }
        continue;
      }
      const std::vector<uint32_t>* bucket = index.Bucket(key);
      INCDB_RETURN_IF_ERROR(
          tick((bucket ? bucket->size() : 0) + index.null_rows().size()));
      for (const auto* ids : {bucket, &index.null_rows()}) {
        if (ids == nullptr) continue;
        for (uint32_t bi : *ids) {
          INCDB_RETURN_IF_ERROR(build_left ? pairs.Add(bi, p)
                                           : pairs.Add(p, bi));
        }
      }
    }
  }
  return pairs.Flush();
}

}  // namespace incdb

#endif  // INCDB_EVAL_JOIN_ROWS_H_
