#ifndef INCDB_EVAL_UNIFY_INDEX_H_
#define INCDB_EVAL_UNIFY_INDEX_H_

/// \file unify_index.h
/// \brief Null-mask index for unifiability probes, shared by the ⋉⇑
/// executor (eval/exec.cpp) and the FO evaluator's ⟦·⟧unif atom semantics
/// (logic/fo_eval.cpp).
///
/// Tuples are grouped by their null-position mask; within a group they are
/// hashed on the projection onto the constant positions. An all-constant
/// probe tuple then touches only one bucket per mask; probes containing
/// nulls fall back to a scan. Candidates are always re-verified with
/// Unifiable() (repeated marked nulls add constraints the index ignores).
/// The index references the indexed rows in place — it copies no tuples
/// and must not outlive the viewed relation.

#include <unordered_map>
#include <vector>

#include "core/relation.h"
#include "core/tuple.h"

namespace incdb {

class UnifyIndex {
 public:
  UnifyIndex(const std::vector<Relation::Row>& rows, size_t arity,
             bool use_index)
      : use_index_(use_index && arity < 64) {
    all_.reserve(rows.size());
    for (const auto& [t, c] : rows) {
      all_.push_back(&t);
      if (!use_index_) continue;
      uint64_t mask = 0;
      for (size_t i = 0; i < t.arity(); ++i) {
        if (t[i].is_null()) mask |= (1ULL << i);
      }
      Tuple key;
      ConstProjectionInto(t, mask, &key);
      groups_[mask][std::move(key)].push_back(&t);
    }
  }

  /// Probes are read-only: `scratch` is the caller's key buffer, reused
  /// across probes so they allocate nothing.
  bool AnyUnifiable(const Tuple& probe, Tuple* scratch) const {
    if (!use_index_ || probe.HasNull()) {
      for (const Tuple* t : all_) {
        if (Unifiable(probe, *t)) return true;
      }
      return false;
    }
    for (const auto& [mask, buckets] : groups_) {
      ConstProjectionInto(probe, mask, scratch);
      auto it = buckets.find(*scratch);
      if (it == buckets.end()) continue;
      for (const Tuple* t : it->second) {
        if (Unifiable(probe, *t)) return true;
      }
    }
    return false;
  }

 private:
  static void ConstProjectionInto(const Tuple& t, uint64_t null_mask,
                                  Tuple* out) {
    out->Clear();
    out->Reserve(t.arity());
    for (size_t i = 0; i < t.arity(); ++i) {
      if (!(null_mask & (1ULL << i))) out->Append(t[i]);
    }
  }

  bool use_index_ = true;
  std::vector<const Tuple*> all_;
  std::unordered_map<uint64_t,
                     std::unordered_map<Tuple, std::vector<const Tuple*>>>
      groups_;
};

}  // namespace incdb

#endif  // INCDB_EVAL_UNIFY_INDEX_H_
