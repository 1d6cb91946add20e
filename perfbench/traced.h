// The traced replay: the operations of a workload's stream re-run through
// each layer's public entry points (sql, approx, eval/plan + plan_cache,
// eval/exec, core/relation, eval/result_cache, eval/delta, core/database)
// in the order the Session facade calls them, with a span around every
// call. Spans are recorded from outside the library, held in memory and
// written when the run ends.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/plan_cache.h"
#include "eval/result_cache.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// Span names, one per layer boundary; kOp is the root of one operation.
enum class SpanName : uint8_t {
  kOp,
  kSqlParseTranslate,
  kApproxTranslate,
  kPlanCompile,
  kPlanBind,
  kExecExecute,
  kDatabaseSnapshot,
  kDatabaseCommit,
  kResultCacheLookup,
  kResultCacheInsert,
  kResultCacheMaintain,
  kRelationCopy,
  kDeltaPropagate,
  kDeltaApply,
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName n);

struct Span {
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span; -1 for kOp.
  SpanName name = SpanName::kOp;
};

/// In-memory span recorder for one thread. Disabled, it records nothing
/// (the replay's warm-up).
class Tracer {
 public:
  bool enabled = false;

  void BeginOp(uint64_t op) { op_ = op; }
  /// Opens a span under the innermost open one; returns its index.
  size_t Open(SpanName name);
  /// Closes span `idx` (the innermost open one); returns its duration.
  int64_t Close(size_t idx);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one line per span: op, name, start_ns, end_ns, parent.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t op_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span. Close() ends it early and returns its duration (0 while
/// tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, SpanName name)
      : t_(t->enabled ? t : nullptr), idx_(t_ ? t_->Open(name) : 0) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t Close() {
    if (t_ != nullptr) {
      ns_ = t_->Close(idx_);
      t_ = nullptr;
    }
    return ns_;
  }

 private:
  Tracer* t_;
  size_t idx_;
  int64_t ns_ = 0;
};

/// The physical operator kinds the per-operator breakdown reports: those
/// the three workloads' plans contain, scans (borrowed views) aside.
inline constexpr incdb::PhysOp kTracedOps[] = {
    incdb::PhysOp::kFilterSel,  incdb::PhysOp::kFusedProjectFilter,
    incdb::PhysOp::kProject,    incdb::PhysOp::kRename,
    incdb::PhysOp::kHashJoin,   incdb::PhysOp::kNLJoin,
    incdb::PhysOp::kUnion,      incdb::PhysOp::kHashDiff,
    incdb::PhysOp::kHashSemi,   incdb::PhysOp::kInPred,
    incdb::PhysOp::kUnifySemiJoin};
inline constexpr size_t kPhysOps =
    static_cast<size_t>(incdb::PhysOp::kDistinct) + 1;

/// Counts and times the replay takes at the layer boundaries (besides the
/// spans). Every count repeats exactly for a fixed seed.
struct LayerCounters {
  uint64_t ops = 0, reads = 0, commits = 0;
  uint64_t hits = 0;
  int64_t hit_ns = 0;  ///< Lookup + copy of the result-cache hits.
  uint64_t copied_rows = 0;
  int64_t copy_ns = 0;
  uint64_t rows_out = 0;  ///< Result rows of every Execute(plan, snapshot).
  uint64_t insert_rows = 0;
  int64_t insert_ns = 0;  ///< Relation::Insert of result rows (probe).
  uint64_t approx_plans = 0, approx_plan_ops = 0, approx_nljoin_plans = 0;
  uint64_t cow_rows = 0;
  uint64_t delta_rows = 0;
  /// Per-operator breakdown, indexed by PhysOp: self time and output rows.
  std::array<int64_t, kPhysOps> op_self_ns{};
  std::array<uint64_t, kPhysOps> op_rows{};
  uint64_t materialized_rows = 0;
};

/// Replays operations through the layers, mirroring Session: its own plan
/// cache and result cache, the same options, the same call order.
class TracedRunner {
 public:
  TracedRunner(const Spec& spec, incdb::Database db, Tracer* tracer);

  /// Prepares the templates the workload prepares once (as
  /// SessionRunner::Make does).
  incdb::Status Prepare();
  /// Runs one operation under a kOp span. After the span closes, every
  /// plan it executed is broken down per operator (ExecuteNode per node,
  /// inclusive minus children) when tracing is on.
  OpResult Run(const Op& op);

  const LayerCounters& counters() const { return c_; }
  incdb::PlanCacheStats plan_cache_stats() const {
    return plan_cache_.stats();
  }
  incdb::ResultCacheStats result_cache_stats() const {
    return results_.stats();
  }

 private:
  struct Prepared {
    incdb::AlgPtr alg;
    incdb::PlanPtr plan;
    std::string key_prefix;
  };

  incdb::StatusOr<Prepared> PrepareSql(const Template& t);
  incdb::StatusOr<Prepared> PrepareAlgebra(const incdb::AlgPtr& alg,
                                           incdb::EvalMode mode);
  incdb::StatusOr<incdb::Relation> Execute(const Prepared& p,
                                           const std::vector<incdb::Value>& params);
  incdb::StatusOr<incdb::Relation> Certain(const incdb::AlgPtr& alg,
                                           bool plus);
  incdb::StatusOr<incdb::Relation> ExecutePlan(const incdb::PlanPtr& plan,
                                               const incdb::Database& snap);
  incdb::Status Commit(const Op& op);
  incdb::Status MaintainOne(const incdb::CommitInfo& info,
                            incdb::ResultCache::Maintainable& e);
  /// Copies a relation under a relation.copy span; `ns` gets its time.
  incdb::Relation Copy(const incdb::Relation& rel, int64_t* ns = nullptr);
  void Breakdown(const incdb::PlanPtr& plan, const incdb::Database& snap,
                 const incdb::Relation& result);

  const Spec& spec_;
  incdb::Database db_;
  Tracer* tr_;
  incdb::PlanCache plan_cache_;
  incdb::ResultCache results_;
  std::vector<Prepared> prepared_;
  /// Plans executed by the current operation, broken down after it.
  std::vector<std::pair<incdb::PlanPtr, incdb::Database>> executed_;
  LayerCounters c_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
