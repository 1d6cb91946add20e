// Physical-plan executor (see eval/plan.h for the layer contract).
//
// Operators exchange RelationViews: leaf scans borrow the database rows in
// place, everything that materialises owns its output. One executor runs
// each operator sequentially on the calling thread, so every operator
// emits its rows in one order at every configuration.
//
// Every operator emits through one output sink (Executor::Sink). Filters,
// projections and joins run the row kernels of eval/row_kernels.h and
// eval/join_rows.h, which delta maintenance (and, for the unary ones, the
// streaming cursor) share.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/exec_context.h"
#include "core/fault.h"
#include "eval/eval.h"
#include "eval/join_rows.h"
#include "eval/plan.h"
#include "eval/row_kernels.h"
#include "eval/unify_index.h"

namespace incdb {

StatusOr<RelationView> ScanResolver::Resolve(const std::string& name,
                                             bool collapse_to_set) {
  INCDB_FAULT_POINT("scan.resolve");
  const Relation* found = db_->Find(name);
  if (found == nullptr) {
    return Status::NotFound("no relation named " + name);
  }
  const Relation& rel = *found;
  if (!collapse_to_set) return RelationView::Borrow(rel);
  // The IsSet() scan and any collapse run once per relation; repeated
  // resolutions (the FO evaluator re-resolves inside quantifier loops)
  // hit the cached decision.
  auto it = collapsed_.find(name);
  if (it == collapsed_.end()) {
    // Base relations are usually sets already, in which case the scan is
    // a pure borrow (cached as null); otherwise the collapsed copy is
    // materialised once.
    std::unique_ptr<Relation> copy;
    if (!rel.IsSet()) copy = std::make_unique<Relation>(rel.ToSet());
    it = collapsed_.emplace(name, std::move(copy)).first;
  }
  return RelationView::Borrow(it->second ? *it->second : rel);
}

namespace {

class Executor {
 public:
  Executor(const Plan& plan, const Database& db, const ExecContext& ctx)
      : plan_(plan), db_(db), scans_(db), ctx_(&ctx),
        limited_(ctx.limited()),
        mem_limit_(ctx.soft_mem_limit_bytes != 0 ? ctx.soft_mem_limit_bytes
                                                 : UINT64_MAX) {}

  StatusOr<Relation> Run() {
    // Fast-fail an already-expired deadline or pre-cancelled token before
    // any work is done.
    if (limited_) INCDB_RETURN_IF_ERROR(ctx_->Check());
    return RunNode(plan_.root);
  }

  /// Evaluates an arbitrary node of the plan's tree and materialises it.
  StatusOr<Relation> RunNode(const PhysPtr& node) {
    auto out = Eval(node);
    if (!out.ok()) return out.status();
    // A still-borrowed result (bare scan, rename pass-through, distinct
    // over an already-set scan) was never charged by any materializing
    // operator — budget it here so max_tuples bounds every relation the
    // executor hands out, not just the ones it had to build.
    if (out->borrowed() && !Charge(out->TotalSize(), out->arity())) {
      return OverBudget();
    }
    INCDB_FAULT_POINT("exec.materialize");
    Relation rel = std::move(*out).Materialize();
    // The operators' checkpoints are amortised and the tail (collapse,
    // materialisation) runs after the last one, so a deadline or Cancel()
    // landing there is caught here: a limited execution never hands out a
    // result once its context fired.
    if (limited_) INCDB_RETURN_IF_ERROR(ctx_->Check(mem_used_));
    return rel;
  }

 private:
  bool set_semantics() const { return plan_.mode != EvalMode::kBagNaive; }
  bool sql_mode() const { return plan_.mode == EvalMode::kSetSql; }

  /// Cancellation/deadline checkpoints amortize exactly like the 4096-row
  /// over-budget reports: one counter add per `rows` units of work, one
  /// real Check() (clock read + atomic load) per interval. An unlimited
  /// context costs a single predictable branch.
  static constexpr uint64_t kCheckpointInterval = 4096;

  Status Checkpoint(uint64_t rows = 1) {
    if (!limited_) return Status::OK();
    check_acc_ += rows;
    if (check_acc_ < kCheckpointInterval) return Status::OK();
    check_acc_ = 0;
    return ctx_->Check(mem_used_);
  }

  /// Charges `produced` tuple occurrences of `arity` columns to the
  /// execution's running totals; false once they exceed
  /// EvalOptions::max_tuples or the context's soft memory limit
  /// (OverBudget() says which). Runs once per emitted row, so it only
  /// compares: deadline and cancel stay on the Checkpoint cadence.
  bool Charge(uint64_t produced, size_t arity) {
    produced_ += produced;
    mem_used_ += produced * arity * sizeof(Value);
    return produced_ <= plan_.opts.max_tuples && mem_used_ <= mem_limit_;
  }

  /// The error of a failed Charge.
  Status OverBudget() const {
    if (produced_ > plan_.opts.max_tuples) {
      StatusDetail d;
      d.budget_used = produced_;
      d.budget_limit = plan_.opts.max_tuples;
      return Status::ResourceExhausted("evaluation exceeded max_tuples=" +
                                       std::to_string(plan_.opts.max_tuples))
          .WithDetail(std::move(d));
    }
    return ctx_->Check(mem_used_);
  }

  /// Rows per columnar chunk (resolved at compile time: never 0).
  size_t batch_size() const { return plan_.opts.batch_size; }

  /// The operator's output sink. Runs `body(tick, emit)`, a row loop with
  /// the row kernels' hooks (eval/row_kernels.h, eval/join_rows.h):
  /// checkpoints on the executor's schedule, rows inserted into the output
  /// (no duplicate probe for distinct ones) and charged to the budget per
  /// emitted multiplicity. Rows not marked distinct may merge, so under
  /// set semantics multiplicities normalise at the end. The output starts
  /// empty, or as `*seed` when given.
  template <typename Body>
  StatusOr<RelationView> Sink(const PhysNode& n, size_t reserve, Body&& body,
                              Relation* seed = nullptr) {
    Relation out = seed ? std::move(*seed) : Relation(n.attrs);
    out.Reserve(out.rows().size() + reserve);
    bool merged = false;
    auto tick = [this](uint64_t units) { return Checkpoint(units); };
    // Runs per row, so each path returns its one Status in place.
    const size_t arity = n.attrs.size();
    auto emit = [&, arity](const Tuple& t, uint64_t c,
                           bool distinct) -> Status {
      if (!Charge(c, arity)) return OverBudget();
      if (distinct) return out.InsertUnique(t, c);
      merged = true;
      return out.Insert(t, c);
    };
    INCDB_RETURN_IF_ERROR(body(tick, emit));
    if (merged && set_semantics()) out.CollapseCounts();
    return RelationView::Own(std::move(out));
  }

  /// The left rows of difference/NOT IN, intersection/IN and ⋉⇑, each
  /// keeping the multiplicity `kept(t, c)` (0 drops it); left rows are
  /// distinct, so each survivor is a fresh row.
  template <typename Kept>
  StatusOr<RelationView> KeepLeftRows(const PhysNode& n, const Rows& lrows,
                                      Kept&& kept) {
    return Sink(n, 0, [&](auto& tick, auto& emit) -> Status {
      for (size_t wb = 0; wb < lrows.size(); wb += batch_size()) {
        const size_t we = std::min(lrows.size(), wb + batch_size());
        INCDB_RETURN_IF_ERROR(tick(we - wb));
        for (size_t i = wb; i < we; ++i) {
          const auto& [t, c] = lrows[i];
          if (uint64_t kc = kept(t, c)) {
            INCDB_RETURN_IF_ERROR(emit(t, kc, true));
          }
        }
      }
      return Status::OK();
    });
  }

  StatusOr<RelationView> Eval(const PhysPtr& np) {
    INCDB_FAULT_POINT("exec.node");
    const PhysNode& n = *np;
    switch (n.op) {
      case PhysOp::kScanView:
        return scans_.Resolve(n.rel_name, set_semantics());
      case PhysOp::kFilterSel:
      case PhysOp::kFusedProjectFilter:
      case PhysOp::kProject:
        return EvalUnary(n);
      case PhysOp::kRename: {
        auto in = Eval(n.left);
        if (!in.ok()) return in;
        return in->Renamed(n.attrs);
      }
      case PhysOp::kHashJoin:
      case PhysOp::kNLJoin:
      case PhysOp::kUnifyJoin:
        return EvalJoin(n);
      case PhysOp::kUnion:
        return EvalUnion(n);
      case PhysOp::kHashDiff:
        return EvalDifference(n);
      case PhysOp::kHashIntersect:
        return EvalIntersect(n);
      case PhysOp::kDivision:
        return EvalDivision(n);
      case PhysOp::kUnifySemiJoin:
        return EvalAntijoinUnify(n);
      case PhysOp::kHashSemi:
        return EvalSemiAnti(n);
      case PhysOp::kInPred:
        return EvalInPredicate(n);
      case PhysOp::kDom:
        return EvalDom(n);
      case PhysOp::kDistinct: {
        auto in = Eval(n.left);
        if (!in.ok()) return in;
        if (in->borrowed() && in->rel().IsSet()) return in;  // already a set
        INCDB_RETURN_IF_ERROR(Checkpoint(in->rows().size()));
        Relation out = std::move(*in).Materialize();
        out.CollapseCounts();
        if (!Charge(out.DistinctSize(), n.attrs.size())) return OverBudget();
        return RelationView::Own(std::move(out));
      }
    }
    return Status::Internal("unknown physical operator");
  }

  /// σ, the fused π∘σ and π: one sweep of the node's row kernel.
  StatusOr<RelationView> EvalUnary(const PhysNode& n) {
    auto in = Eval(n.left);
    if (!in.ok()) return in;
    const Rows& rows = in->rows();
    return Sink(n, rows.size(), [&](auto& tick, auto& emit) {
      return UnaryRows(n, batch_size(), rows, 0, rows.size(), &filter_, tick,
                       emit);
    });
  }

  /// An owned left side becomes the output as it is; a borrowed one is
  /// copied, and charged like RunNode charges a borrowed result. The right
  /// rows are emitted into it.
  StatusOr<RelationView> EvalUnion(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    if (l->borrowed() && !Charge(l->TotalSize(), n.attrs.size())) {
      return OverBudget();
    }
    Relation left = std::move(*l).Materialize();
    const Rows& rrows = r->rows();
    return Sink(
        n, rrows.size(),
        [&](auto& tick, auto& emit) -> Status {
          for (size_t wb = 0; wb < rrows.size(); wb += batch_size()) {
            const size_t we = std::min(rrows.size(), wb + batch_size());
            INCDB_RETURN_IF_ERROR(tick(we - wb));
            for (size_t i = wb; i < we; ++i) {
              INCDB_RETURN_IF_ERROR(emit(rrows[i].first, rrows[i].second,
                                         /*distinct=*/false));
            }
          }
          return Status::OK();
        },
        &left);
  }

  StatusOr<RelationView> EvalDifference(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool sql = sql_mode();
    // Under SQL NOT-IN semantics, right tuples involving nulls are the
    // only ones an all-constant left tuple cannot dismiss with one hash
    // lookup; collect them once.
    std::vector<const Tuple*> null_rows;
    if (sql) {
      for (const auto& [s, sc] : r->rows()) {
        if (s.HasNull()) null_rows.push_back(&s);
      }
    }
    // Multiplicity a left row keeps (0 drops it).
    auto kept_count = [&](const Tuple& t, uint64_t c) -> uint64_t {
      if (sql) {
        // NOT IN semantics: keep r̄ only if the comparison with *every*
        // tuple of the right side is certainly false (never t or u).
        // All-constant pairs compare t exactly when syntactically equal,
        // so an all-constant left tuple needs one hash lookup plus a scan
        // of the (typically few) null-involving right tuples; left tuples
        // involving nulls scan everything pairwise.
        if (t.AllConst()) {
          if (r->Contains(t)) return 0;
          for (const Tuple* s : null_rows) {
            if (SqlTupleEq(t, *s) != TV3::kF) return 0;
          }
          return 1;
        }
        for (const auto& [s, sc] : r->rows()) {
          if (SqlTupleEq(t, s) != TV3::kF) return 0;
        }
        return 1;
      }
      uint64_t rc = r->Count(t);
      if (set_semantics()) return rc == 0 ? 1 : 0;
      return c > rc ? c - rc : 0;  // bag monus
    };

    return KeepLeftRows(n, l->rows(), kept_count);
  }

  StatusOr<RelationView> EvalIntersect(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool sql = sql_mode();
    auto kept_count = [&](const Tuple& t, uint64_t c) -> uint64_t {
      // IN semantics: keep r̄ iff some right tuple compares t. Under 3VL a
      // comparison is t only when both tuples are all-constant and equal,
      // so membership reduces to one hash lookup per left tuple.
      if (sql) return t.AllConst() && r->Contains(t) ? 1 : 0;
      const uint64_t rc = r->Count(t);
      if (rc == 0) return 0;
      return set_semantics() ? 1 : std::min(c, rc);
    };
    return KeepLeftRows(n, l->rows(), kept_count);
  }

  StatusOr<RelationView> EvalDivision(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    // Group the dividend by the kept attributes; collect divisor parts.
    std::unordered_map<Tuple, std::set<Tuple>> groups;
    for (const auto& [t, c] : l->rows()) {
      INCDB_RETURN_IF_ERROR(Checkpoint());
      groups[t.Project(n.keep_pos)].insert(t.Project(n.div_l));
    }
    std::set<Tuple> divisor;
    for (const auto& [t, c] : r->rows()) divisor.insert(t.Project(n.div_r));
    return Sink(n, 0, [&](auto& tick, auto& emit) -> Status {
      for (const auto& [key, parts] : groups) {
        INCDB_RETURN_IF_ERROR(tick(divisor.size() + 1));
        if (std::includes(parts.begin(), parts.end(), divisor.begin(),
                          divisor.end())) {
          INCDB_RETURN_IF_ERROR(emit(key, 1, /*distinct=*/true));
        }
      }
      return Status::OK();
    });
  }

  StatusOr<RelationView> EvalAntijoinUnify(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    UnifyIndex index(r->rows(), r->arity(), plan_.opts.enable_unify_index);
    const bool set = set_semantics();
    Tuple scratch;
    return KeepLeftRows(n, l->rows(),
                        [&](const Tuple& t, uint64_t c) -> uint64_t {
                          if (index.AnyUnifiable(t, &scratch)) return 0;
                          return set ? 1 : c;
                        });
  }

  StatusOr<RelationView> EvalDom(const PhysNode& n) {
    std::set<Value> dom = db_.ActiveDomain();
    for (const Value& v : n.dom_extra) dom.insert(v);
    std::vector<Value> values(dom.begin(), dom.end());
    uint64_t expected = 1;
    for (size_t i = 0; i < n.dom_arity; ++i) {
      if (values.empty()) break;
      expected *= values.size();
      if (expected > plan_.opts.max_tuples) {
        StatusDetail d;
        d.budget_used = expected;
        d.budget_limit = plan_.opts.max_tuples;
        return Status::ResourceExhausted(
                   "Dom^" + std::to_string(n.dom_arity) + " over " +
                   std::to_string(values.size()) + " values exceeds max_tuples")
            .WithDetail(std::move(d));
      }
    }
    // Odometer over Dom^k in lexicographic order; Dom^0 is the one empty
    // tuple, and Dom^k of an empty domain is empty.
    return Sink(n, 0, [&](auto& tick, auto& emit) -> Status {
      if (n.dom_arity > 0 && values.empty()) return Status::OK();
      std::vector<size_t> idx(n.dom_arity, 0);
      Tuple row;
      for (;;) {
        INCDB_RETURN_IF_ERROR(tick(1));
        row.Clear();
        for (size_t i : idx) row.Append(values[i]);
        INCDB_RETURN_IF_ERROR(emit(row, 1, /*distinct=*/true));
        size_t pos = n.dom_arity;
        while (pos > 0 && ++idx[pos - 1] == values.size()) idx[--pos] = 0;
        if (pos == 0) return Status::OK();
      }
    });
  }

  StatusOr<RelationView> EvalSemiAnti(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const Rows& lrows = l->rows();
    const Rows& rrows = r->rows();
    // Equality with a null key never evaluates to t in either mode unless
    // syntactically equal (naive) — the hash covers both, as naive equality
    // is exactly key identity and SQL-mode null keys are skipped. The index
    // holds right row ids instead of copies.
    std::unordered_map<Tuple, std::vector<uint32_t>> index;
    const bool hashed = !n.lkeys.empty();
    Tuple key;  // scratch, reused across probes
    if (hashed) {
      index.reserve(rrows.size());
      for (uint32_t i = 0; i < rrows.size(); ++i) {
        key.AssignProject(rrows[i].first, n.rkeys);
        if (sql_mode() && key.HasNull()) continue;
        index[key].push_back(i);
      }
    }
    // A residual selects partners from bucket candidates in pair windows,
    // or, with no hashable key, from broadcast sweeps of the right rows
    // that stop at the first window with a partner. Verdicts land once the
    // window of left rows has been selected.
    std::vector<char> matched;  // per left row of the current window
    size_t begin = 0;
    auto mark = [&](uint32_t li, uint32_t) {
      matched[li - begin] = 1;
      return Status::OK();
    };
    JoinPairs pairs(n, batch_size(), lrows, rrows, mark);
    const bool trivial = n.cond->kind == CondKind::kTrue;
    // Checkpoint weight follows the work: the un-hashed fallback scans the
    // whole right side per left row. Checkpoints fire once per window.
    const uint64_t probe_weight = hashed ? 1 : 1 + rrows.size();
    return Sink(n, 0, [&](auto& tick, auto& emit) -> Status {
      for (; begin < lrows.size(); begin += batch_size()) {
        const size_t end = std::min(lrows.size(), begin + batch_size());
        INCDB_RETURN_IF_ERROR(tick(probe_weight * (end - begin)));
        matched.assign(end - begin, 0);
        for (size_t i = begin; i < end; ++i) {
          const uint32_t li = static_cast<uint32_t>(i);
          char& m = matched[i - begin];
          if (!hashed) {
            for (size_t wb = 0; wb < rrows.size() && !m; wb += batch_size()) {
              const size_t we = std::min(rrows.size(), wb + batch_size());
              INCDB_RETURN_IF_ERROR(
                  pairs.Sweep(/*fixed_left=*/true, li, wb, we));
            }
            continue;
          }
          key.AssignProject(lrows[i].first, n.lkeys);
          if (sql_mode() && key.HasNull()) continue;
          auto it = index.find(key);
          if (it == index.end()) continue;
          if (trivial) {
            m = 1;  // any key match suffices
            continue;
          }
          for (size_t j = 0; j < it->second.size() && !m; ++j) {
            INCDB_RETURN_IF_ERROR(pairs.Add(li, it->second[j]));
          }
        }
        INCDB_RETURN_IF_ERROR(pairs.Flush());
        for (size_t i = begin; i < end; ++i) {
          if ((matched[i - begin] != 0) == n.anti) continue;
          const auto& [lt, lc] = lrows[i];
          INCDB_RETURN_IF_ERROR(
              emit(lt, set_semantics() ? 1 : lc, /*distinct=*/true));
        }
      }
      return Status::OK();
    });
  }

  /// SQL's x̄ [NOT] IN subquery predicate. The right side is first filtered
  /// per left row by the (possibly correlated) condition θ with 3VL keep-t
  /// discipline; membership of the left compare columns then follows the
  /// active mode:
  ///  * naive: syntactic equality;
  ///  * SQL:   IN keeps a row iff some right row compares t; NOT IN keeps
  ///           a row iff *every* right row compares f — one null partner
  ///           (or a null on the left with a non-empty right side) blocks
  ///           the row, reproducing SQL's notorious NOT IN behaviour.
  StatusOr<RelationView> EvalInPredicate(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool negated = n.anti;
    const bool correlated = n.cond->kind != CondKind::kTrue;
    const Rows& lrows = l->rows();
    const Rows& rrows = r->rows();

    // Uncorrelated fast path: precompute the key multiset once. Keys
    // involving nulls are listed separately: under SQL 3VL they are the
    // only right keys an all-constant left key cannot dismiss with one
    // hash lookup.
    std::unordered_map<Tuple, uint64_t> keys;
    std::vector<const Tuple*> null_keys;
    Tuple key_scratch;
    if (!correlated) {
      keys.reserve(rrows.size());
      for (const auto& [rt, rc] : rrows) {
        key_scratch.AssignProject(rt, n.rpos);
        auto [it, inserted] = keys.try_emplace(key_scratch, rc);
        if (!inserted) {
          it->second += rc;
        } else if (it->first.HasNull()) {
          null_keys.push_back(&it->first);
        }
      }
    }
    Tuple lkey;  // scratch, reused across rows
    auto keep_uncorrelated = [&]() -> bool {
      if (!sql_mode()) return (keys.count(lkey) > 0) != negated;
      if (!negated) return lkey.AllConst() && keys.count(lkey) > 0;
      // NOT IN: all comparisons must be certainly false. All-constant
      // pairs compare t exactly when syntactically equal, so an
      // all-constant left key needs one hash miss plus a scan of the
      // (typically few) null-involving right keys; a left key with a null
      // keeps the pairwise 3VL scan.
      if (keys.empty()) return true;
      if (lkey.AllConst()) {
        if (keys.count(lkey) > 0) return false;
        for (const Tuple* nk : null_keys) {
          if (SqlTupleEq(lkey, *nk) != TV3::kF) return false;
        }
        return true;
      }
      for (const auto& [rk, rc] : keys) {
        if (SqlTupleEq(lkey, rk) != TV3::kF) return false;
      }
      return true;
    };
    // Correlated: θ(l·r) = t selects the right rows (broadcast sweeps of
    // the node's program), whose compare columns are then tested.
    bool exists_t = false, all_f = true;
    Tuple rkey;  // scratch, reused across pairs
    auto compare = [&](uint32_t, uint32_t ri) {
      rkey.AssignProject(rrows[ri].first, n.rpos);
      const TV3 tv =
          sql_mode() ? SqlTupleEq(lkey, rkey) : FromBool(lkey == rkey);
      if (tv == TV3::kT) exists_t = true;
      if (tv != TV3::kF) all_f = false;
      return Status::OK();
    };
    JoinPairs pairs(n, batch_size(), lrows, rrows, compare);

    // The correlated path re-scans the right side per left row.
    // Checkpoints fire once per window of left rows.
    const uint64_t row_weight = correlated ? 1 + rrows.size() : 1;
    return Sink(n, 0, [&](auto& tick, auto& emit) -> Status {
      for (size_t begin = 0; begin < lrows.size(); begin += batch_size()) {
        const size_t end = std::min(lrows.size(), begin + batch_size());
        INCDB_RETURN_IF_ERROR(tick(row_weight * (end - begin)));
        for (size_t i = begin; i < end; ++i) {
          const auto& [lt, lc] = lrows[i];
          lkey.AssignProject(lt, n.lpos);
          bool keep;
          if (correlated) {
            exists_t = false;
            all_f = true;
            for (size_t wb = 0; wb < rrows.size(); wb += batch_size()) {
              const size_t we = std::min(rrows.size(), wb + batch_size());
              INCDB_RETURN_IF_ERROR(pairs.Sweep(
                  /*fixed_left=*/true, static_cast<uint32_t>(i), wb, we));
            }
            keep = negated ? all_f : exists_t;
          } else {
            keep = keep_uncorrelated();
          }
          if (keep) {
            INCDB_RETURN_IF_ERROR(
                emit(lt, set_semantics() ? 1 : lc, /*distinct=*/true));
          }
        }
      }
      return Status::OK();
    });
  }

  /// The three join kinds, each one kernel call (eval/join_rows.h).
  StatusOr<RelationView> EvalJoin(const PhysNode& n) {
    auto l = Eval(n.left);
    if (!l.ok()) return l;
    auto r = Eval(n.right);
    if (!r.ok()) return r;
    const bool set = set_semantics();
    const Rows& lrows = l->rows();
    const Rows& rrows = r->rows();

    switch (n.op) {
      case PhysOp::kNLJoin:
        return Sink(n, 0, [&](auto& tick, auto& emit) {
          return NLJoinRows(n, set, batch_size(), lrows, rrows, tick, emit);
        });
      case PhysOp::kHashJoin:
        return Sink(n, 0, [&](auto& tick, auto& emit) {
          return HashJoinRows(n, set, sql_mode(), batch_size(), lrows, rrows,
                              tick, emit);
        });
      default:
        return Sink(
            n, std::max(lrows.size(), rrows.size()),
            [&](auto& tick, auto& emit) {
              return UnifyJoinRows(n, set, batch_size(), lrows, rrows, tick,
                                   emit);
            });
    }
  }

  const Plan& plan_;
  const Database& db_;
  ScanResolver scans_;
  const ExecContext* ctx_;  // outlives the execution (held by the caller)
  const bool limited_;      // hoisted ctx_->limited(): one branch per checkpoint
  const uint64_t mem_limit_;  // ctx_->soft_mem_limit_bytes; UINT64_MAX if 0
  // Reusable columnar buffers for the filter sweeps (join residuals bring
  // their own PairSelector).
  FilterScratch filter_;
  uint64_t produced_ = 0;
  uint64_t mem_used_ = 0;   // approx bytes of materialized tuples
  uint64_t check_acc_ = 0;  // rows since the last real ctx check
};

}  // namespace

namespace {
Status CheckExecutable(const PlanPtr& plan) {
  if (!plan || !plan->root) {
    return Status::InvalidArgument("Execute: empty plan");
  }
  if (plan->param_count > 0) {
    return Status::InvalidArgument(
        "Execute: plan has " + std::to_string(plan->param_count) +
        " unbound parameter(s); bind them first (BindPlanParams or "
        "PreparedQuery::Execute)");
  }
  return Status::OK();
}
}  // namespace

StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db,
                           const ExecContext& ctx) {
  INCDB_RETURN_IF_ERROR(CheckExecutable(plan));
  Executor ex(*plan, db, ctx);
  return ex.Run();
}

StatusOr<Relation> Execute(const PlanPtr& plan, const Database& db) {
  return Execute(plan, db, ExecContext{});
}

StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db, const ExecContext& ctx) {
  INCDB_RETURN_IF_ERROR(CheckExecutable(plan));
  if (!node) return Status::InvalidArgument("ExecuteNode: empty node");
  Executor ex(*plan, db, ctx);
  return ex.RunNode(node);
}

StatusOr<Relation> ExecuteNode(const PlanPtr& plan, const PhysPtr& node,
                               const Database& db) {
  return ExecuteNode(plan, node, db, ExecContext{});
}

}  // namespace incdb
