#include "perfbench/traced.h"

#include <cstdio>
#include <unordered_set>

#include "approx/approx.h"
#include "eval/delta.h"
#include "sql/translate.h"

namespace perfbench {

using incdb::AlgPtr;
using incdb::CommitInfo;
using incdb::Database;
using incdb::EvalMode;
using incdb::PhysOp;
using incdb::PhysPtr;
using incdb::PlanPtr;
using incdb::Relation;
using incdb::ResultCache;
using incdb::Status;
using incdb::StatusOr;
using incdb::Value;

namespace {

int64_t NowNs(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// A node whose ExecuteNode result is a borrowed view in a real execution
/// (a scan, or a rename of one): the breakdown charges it no time, because
/// materialising it on its own would cost what the plan never pays.
bool IsView(const PhysPtr& n) {
  if (n->op == PhysOp::kScanView) return true;
  return n->op == PhysOp::kRename && n->left && IsView(n->left);
}

}  // namespace

const char* SpanNameString(SpanName n) {
  static const char* kNames[kSpanNames] = {
      "op",
      "sql.parse_translate",
      "approx.translate",
      "plan.compile",
      "plan.bind",
      "exec.execute",
      "database.snapshot",
      "database.commit",
      "result_cache.lookup",
      "result_cache.insert",
      "result_cache.maintain",
      "relation.copy",
      "delta.propagate",
      "delta.apply",
  };
  return kNames[static_cast<size_t>(n)];
}

size_t Tracer::Open(SpanName name) {
  Span s;
  s.op = op_;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs(epoch_);
  spans_.push_back(s);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

int64_t Tracer::Close(size_t idx) {
  Span& s = spans_[idx];
  s.end_ns = NowNs(epoch_);
  open_.pop_back();
  return s.end_ns - s.start_ns;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tname\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%d\n",
                 static_cast<unsigned long long>(s.op), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

// --- TracedRunner -------------------------------------------------------------

TracedRunner::TracedRunner(const Spec& spec, Database db, Tracer* tracer)
    : spec_(spec), db_(std::move(db)), tr_(tracer) {}

Status TracedRunner::Prepare() {
  if (spec_.id == WorkloadId::kAdhocSql) return Status::OK();
  for (const Template& t : spec_.templates) {
    auto p = t.alg ? PrepareAlgebra(t.alg, t.mode) : PrepareSql(t);
    if (!p.ok()) return p.status();
    prepared_.push_back(std::move(*p));
  }
  return Status::OK();
}

// Session::Prepare(sql): parse + translate against the live database, then
// PrepareAlgebra.
StatusOr<TracedRunner::Prepared> TracedRunner::PrepareSql(const Template& t) {
  StatusOr<AlgPtr> alg = Status::Internal("unparsed");
  {
    ScopedSpan sp(tr_, SpanName::kSqlParseTranslate);
    auto parsed = incdb::ParseSql(t.sql);
    if (!parsed.ok()) return parsed.status();
    alg = incdb::SqlToAlgebra(*parsed, db_);
  }
  if (!alg.ok()) return alg.status();
  return PrepareAlgebra(*alg, t.mode);
}

// Session::PrepareAlgebra: pin a snapshot, compile through the session's
// plan cache, compose the result-cache key prefix.
StatusOr<TracedRunner::Prepared> TracedRunner::PrepareAlgebra(
    const AlgPtr& alg, EvalMode mode) {
  Database snap;
  {
    ScopedSpan sp(tr_, SpanName::kDatabaseSnapshot);
    snap = db_.Snapshot();
  }
  StatusOr<PlanPtr> plan = Status::Internal("uncompiled");
  {
    ScopedSpan sp(tr_, SpanName::kPlanCompile);
    plan = plan_cache_.CompileCached(alg, mode, spec_.opts, snap);
  }
  if (!plan.ok()) return plan.status();
  return Prepared{alg, *plan, incdb::PlanCacheKey(alg, mode, spec_.opts, snap)};
}

// PreparedQuery::Execute: snapshot, result-cache probe, bind, execute,
// insert.
StatusOr<Relation> TracedRunner::Execute(const Prepared& p,
                                         const std::vector<Value>& params) {
  Database snap;
  {
    ScopedSpan sp(tr_, SpanName::kDatabaseSnapshot);
    snap = db_.Snapshot();
  }
  const bool use_cache = spec_.opts.use_result_cache;
  std::string head;
  std::vector<ResultCache::Dep> deps;
  if (use_cache) {
    head = p.key_prefix;
    head += '|';
    for (const Value& v : params) incdb::AppendValueKey(&head, v);
    for (const std::string& name : p.plan->scanned_rels) {
      deps.emplace_back(name, snap.Version(name));
    }
    ScopedSpan lookup(tr_, SpanName::kResultCacheLookup);
    std::shared_ptr<const Relation> hit = results_.Lookup(ResultCache::ComposeKey(
        head, deps, p.plan->uses_dom, snap.Epoch()));
    int64_t ns = lookup.Close();
    if (hit) {
      int64_t copy_ns = 0;
      Relation out = Copy(*hit, &copy_ns);
      if (tr_->enabled) {
        ++c_.hits;
        c_.hit_ns += ns + copy_ns;
      }
      return out;
    }
  }
  PlanPtr plan = p.plan;
  if (p.plan->param_count > 0) {
    ScopedSpan sp(tr_, SpanName::kPlanBind);
    auto bound = incdb::BindPlanParams(p.plan, params);
    if (!bound.ok()) return bound.status();
    plan = *bound;
  }
  auto rel = ExecutePlan(plan, snap);
  if (!rel.ok()) return rel.status();
  if (use_cache) {
    ScopedSpan sp(tr_, SpanName::kResultCacheInsert);
    const bool maintainable = plan->maintainable && !plan->uses_dom;
    results_.Insert(head, std::make_shared<Relation>(Copy(*rel)),
                    std::move(deps), p.plan->uses_dom, snap.Epoch(),
                    maintainable, maintainable ? plan : nullptr);
  }
  return rel;
}

// Session::CertainPlus / CertainMaybe: EvalPlus / EvalMaybe, i.e. the
// Fig. 2(b) translation, then naive set evaluation of the translated query
// through the plan cache.
StatusOr<Relation> TracedRunner::Certain(const AlgPtr& alg, bool plus) {
  Database snap;
  {
    ScopedSpan sp(tr_, SpanName::kDatabaseSnapshot);
    snap = db_.Snapshot();
  }
  StatusOr<AlgPtr> translated = Status::Internal("untranslated");
  {
    ScopedSpan sp(tr_, SpanName::kApproxTranslate);
    translated = plus ? incdb::TranslatePlus(alg, snap)
                      : incdb::TranslateMaybe(alg, snap);
  }
  if (!translated.ok()) return translated.status();
  StatusOr<PlanPtr> plan = Status::Internal("uncompiled");
  {
    ScopedSpan sp(tr_, SpanName::kPlanCompile);
    plan = plan_cache_.CompileCached(*translated, EvalMode::kSetNaive,
                                     spec_.opts, snap);
  }
  if (!plan.ok()) return plan.status();
  if (tr_->enabled) {
    ++c_.approx_plans;
    for (size_t k = 0; k < kPhysOps; ++k) {
      c_.approx_plan_ops += incdb::CountOps(**plan, static_cast<PhysOp>(k));
    }
    if (incdb::CountOps(**plan, PhysOp::kNLJoin) > 0) ++c_.approx_nljoin_plans;
  }
  return ExecutePlan(*plan, snap);
}

StatusOr<Relation> TracedRunner::ExecutePlan(const PlanPtr& plan,
                                             const Database& snap) {
  StatusOr<Relation> rel = Status::Internal("unexecuted");
  {
    ScopedSpan sp(tr_, SpanName::kExecExecute);
    rel = incdb::Execute(plan, snap);
  }
  if (rel.ok() && tr_->enabled) {
    c_.rows_out += rel->DistinctSize();
    executed_.emplace_back(plan, snap);
  }
  return rel;
}

Relation TracedRunner::Copy(const Relation& rel, int64_t* ns) {
  ScopedSpan sp(tr_, SpanName::kRelationCopy);
  Relation out = rel;
  const int64_t dt = sp.Close();
  if (tr_->enabled) {
    c_.copy_ns += dt;
    c_.copied_rows += rel.DistinctSize();
  }
  if (ns != nullptr) *ns = dt;
  return out;
}

// Session::Mutate with maintenance on: stage and commit the batch, then
// maintain or invalidate every dependent result-cache entry.
Status TracedRunner::Commit(const Op& op) {
  CommitInfo info;
  {
    ScopedSpan sp(tr_, SpanName::kDatabaseCommit);
    Database::Txn txn = db_.Begin();
    for (const RowEdit& e : op.edits) {
      INCDB_RETURN_IF_ERROR(e.insert ? txn.Insert(e.rel, e.row)
                                     : txn.Remove(e.rel, e.row));
    }
    INCDB_RETURN_IF_ERROR(db_.Commit(std::move(txn), &info));
  }
  if (tr_->enabled) {
    // Copy-on-write stages a full copy of every touched relation.
    for (const auto& [name, delta] : info.deltas) {
      if (const Relation* r = info.pre.Find(name)) c_.cow_rows += r->DistinctSize();
    }
  }
  ScopedSpan sp(tr_, SpanName::kResultCacheMaintain);
  std::vector<std::pair<std::string, uint64_t>> floors;
  for (const auto& [name, delta] : info.deltas) {
    const uint64_t v = info.post.Version(name);
    floors.emplace_back(name, v != 0 ? v : info.post.Epoch());
  }
  auto candidates = results_.BeginMaintenance(floors, info.post.Epoch());
  for (ResultCache::Maintainable& e : candidates) {
    if (!MaintainOne(info, e).ok()) results_.NoteInvalidated();
  }
  sp.Close();
  // Releasing the pre-commit version frees the copied-on-write relations:
  // core/database work, which Session::Mutate pays on return.
  ScopedSpan release(tr_, SpanName::kDatabaseCommit);
  info = CommitInfo{};
  return Status::OK();
}

// The Session's per-entry maintenance step (api/session.cpp MaintainOne).
Status TracedRunner::MaintainOne(const CommitInfo& info,
                                 ResultCache::Maintainable& e) {
  for (const auto& [name, ver] : e.deps) {
    if (info.pre.Version(name) != ver) {
      return Status::FailedPrecondition("stale dependency");
    }
    auto dit = info.deltas.find(name);
    if (dit != info.deltas.end() && !dit->second.has_value()) {
      return Status::FailedPrecondition("no row-level delta");
    }
  }
  StatusOr<incdb::RelationDelta> delta = Status::Internal("unpropagated");
  {
    ScopedSpan sp(tr_, SpanName::kDeltaPropagate);
    delta = incdb::PropagateDelta(e.plan, info);
  }
  if (!delta.ok()) return delta.status();
  if (tr_->enabled) {
    c_.delta_rows += delta->plus.DistinctSize() + delta->minus.DistinctSize();
  }
  std::shared_ptr<Relation> target =
      e.result.use_count() == 1 ? std::move(e.result)
                                : std::make_shared<Relation>(*e.result);
  {
    ScopedSpan sp(tr_, SpanName::kDeltaApply);
    INCDB_RETURN_IF_ERROR(incdb::ApplyResultDelta(
        target.get(), *delta, e.plan->mode != EvalMode::kBagNaive));
  }
  for (auto& [name, ver] : e.deps) {
    if (info.deltas.count(name) > 0) ver = info.post.Version(name);
  }
  e.result = std::move(target);
  results_.FinishMaintenance(std::move(e));
  return Status::OK();
}

OpResult TracedRunner::Run(const Op& op) {
  OpResult out;
  executed_.clear();
  tr_->BeginOp(op.id);
  {
    ScopedSpan root(tr_, SpanName::kOp);
    if (op.commit) {
      out.status = Commit(op);
    } else {
      StatusOr<Relation> rel = Status::Internal("unrun");
      const Template& t = spec_.templates[op.query];
      switch (spec_.id) {
        case WorkloadId::kAdhocSql: {
          auto p = PrepareSql(t);
          rel = p.ok() ? Execute(*p, op.params) : StatusOr<Relation>(p.status());
          break;
        }
        case WorkloadId::kCertainApprox:
          rel = op.variant == Variant::kOriginal
                    ? Execute(prepared_[op.query], op.params)
                    : Certain(t.alg, op.variant == Variant::kPlus);
          break;
        case WorkloadId::kServeUpdate:
          rel = Execute(prepared_[op.query], op.params);
          break;
      }
      if (rel.ok()) {
        out.rel = std::move(*rel);
      } else {
        out.status = rel.status();
      }
    }
  }
  if (tr_->enabled) {
    ++c_.ops;
    ++(op.commit ? c_.commits : c_.reads);
    for (const auto& [plan, snap] : executed_) {
      if (out.rel) Breakdown(plan, snap, *out.rel);
    }
  }
  return out;
}

// Per-operator breakdown of one executed plan, outside the op span: every
// non-view node runs on its own through ExecuteNode; its self time is its
// inclusive time minus its children's. Also the materialisation probe:
// Relation::Insert of the result rows into a fresh relation.
void TracedRunner::Breakdown(const PlanPtr& plan, const Database& snap,
                             const Relation& result) {
  std::vector<PhysPtr> nodes;
  std::unordered_set<const incdb::PhysNode*> seen;
  std::vector<PhysPtr> stack = {plan->root};
  while (!stack.empty()) {
    PhysPtr n = stack.back();
    stack.pop_back();
    if (!n || !seen.insert(n.get()).second) continue;
    nodes.push_back(n);
    stack.push_back(n->left);
    stack.push_back(n->right);
  }
  std::unordered_map<const incdb::PhysNode*, int64_t> incl;
  for (const PhysPtr& n : nodes) {
    if (IsView(n)) continue;
    const auto t0 = std::chrono::steady_clock::now();
    auto rel = incdb::ExecuteNode(plan, n, snap);
    incl[n.get()] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (rel.ok()) {
      c_.op_rows[static_cast<size_t>(n->op)] += rel->DistinctSize();
      c_.materialized_rows += rel->DistinctSize();
    }
  }
  for (const auto& [node, ns] : incl) {
    int64_t self = ns;
    for (const PhysPtr& child : {node->left, node->right}) {
      auto it = child ? incl.find(child.get()) : incl.end();
      if (it != incl.end()) self -= it->second;
    }
    c_.op_self_ns[static_cast<size_t>(node->op)] += self;
  }
  const auto t0 = std::chrono::steady_clock::now();
  Relation fresh(result.attrs());
  for (const auto& [t, c] : result.rows()) {
    Status st = fresh.Insert(t, c);
    (void)st;  // same schema as the result it copies
  }
  c_.insert_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  c_.insert_rows += result.DistinctSize();
}

}  // namespace perfbench
