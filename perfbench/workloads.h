// The three benchmark workloads: their data, their seeded operation
// streams, the untraced path through the public Session facade, and the
// cold reference path the output checks compare against.
//
// Load shape: one client thread per process, closed loop (an embedded
// library: every caller waits for its reply), default EvalOptions
// (num_threads = 1) unless a workload states otherwise.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/session.h"
#include "tpch/tpch.h"

namespace perfbench {

enum class WorkloadId { kAdhocSql, kCertainApprox, kServeUpdate };

const char* WorkloadName(WorkloadId id);
std::optional<WorkloadId> ParseWorkload(const std::string& name);

/// certain_approx runs each W-query three ways.
enum class Variant : uint8_t { kOriginal, kPlus, kMaybe };
inline constexpr size_t kVariants = 3;

/// One staged row of a serve_update commit.
struct RowEdit {
  std::string rel;
  incdb::Tuple row;
  bool insert = true;
};

/// One operation of a workload's stream: a read (template + binding, or
/// W-query + variant) or a commit (row edits).
struct Op {
  uint64_t id = 0;
  bool commit = false;
  size_t query = 0;
  Variant variant = Variant::kOriginal;
  std::vector<incdb::Value> params;
  std::vector<RowEdit> edits;
  /// Seeded: the result is compared against a cold recompute.
  bool check = false;
  /// certain_approx: the cycle's second run of W1's original query (a
  /// read like any other, left out of the Q+/Q? overhead sums).
  bool repeat = false;
};

/// One read template: SQL text (adhoc_sql, serve_update) or an algebra
/// tree (certain_approx's W1–W8), with its evaluation mode.
struct Template {
  std::string name;
  std::string sql;
  incdb::AlgPtr alg;
  incdb::EvalMode mode = incdb::EvalMode::kSetSql;
};

/// Everything a workload derives from (workload, seed, smoke).
struct Spec {
  WorkloadId id = WorkloadId::kAdhocSql;
  uint64_t seed = 0;
  incdb::tpch::GenOptions gen;
  incdb::EvalOptions opts;
  std::vector<Template> templates;
  /// serve_update: the hot bindings, 16 per template.
  std::vector<std::vector<std::vector<incdb::Value>>> hot;
  /// Operations the traced replay runs (a fixed count, so its counters
  /// repeat exactly for a fixed seed).
  size_t trace_ops = 0;
};

/// `smoke` shrinks the data and the traced replay for the benchmark's own
/// tests; the operation mix is unchanged.
Spec MakeSpec(WorkloadId id, uint64_t seed, bool smoke);

/// The workload's TPC-H-lite instance: tpch::Generate at the spec's scale,
/// with exactly gen.null_rate of every nullable column's cells nulled.
incdb::Database MakeData(const Spec& spec);

/// The seeded operation stream. Depends only on the spec (and so only on
/// the seed), never on results or timing: the untraced run and the traced
/// replay see the same operations.
class OpStream {
 public:
  /// `initial` is the generated instance (serve_update draws the rows its
  /// commits remove from it).
  OpStream(const Spec& spec, const incdb::Database& initial);

  /// Operations run during set-up, before timing (they fill the plan
  /// cache, the result cache and the lazy set-up).
  std::vector<Op> Warmup();
  Op Next();
  /// True when the next operation starts a new cycle of the workload's mix:
  /// 7 adhoc_sql templates, certain_approx's 24 (query, variant) pairs and
  /// one repeat, serve_update's block of four reads and one commit.
  bool AtCycleStart() const;

 private:
  Op NextAdhoc();
  Op NextCertain();
  Op NextServe();
  /// serve_update's next commit: inserts a batch, or removes the two
  /// oldest.
  Op NextCommit();
  std::vector<incdb::Value> FreshAdhocBinding(size_t t);
  RowEdit MakeInsert(bool orders);

  const Spec& spec_;
  std::mt19937_64 rng_;
  uint64_t next_id_ = 0;
  std::vector<std::vector<std::vector<int64_t>>> seen_;  // adhoc_sql
  std::vector<size_t> cycle_;  // adhoc_sql templates; serve_update 1 = commit
  size_t cycle_pos_ = 0;
  std::vector<double> zipf_cdf_;                          // serve_update
  /// serve_update: the inserted batches not yet removed, oldest first.
  std::deque<std::vector<RowEdit>> live_;
  int64_t next_orderkey_ = 0;
};

/// Result of one operation: the status, and the relation for reads.
struct OpResult {
  incdb::Status status = incdb::Status::OK();
  std::optional<incdb::Relation> rel;
};

/// The untraced path: every operation goes through the public Session
/// facade, as an embedding application would call it.
class SessionRunner {
 public:
  /// Set-up: builds the session over `db` and prepares the templates that
  /// the workload prepares once (certain_approx, serve_update).
  static incdb::StatusOr<std::unique_ptr<SessionRunner>> Make(
      const Spec& spec, incdb::Database db);

  OpResult Run(const Op& op);
  incdb::Session& session() { return session_; }

 private:
  SessionRunner(const Spec& spec, incdb::Database db);
  incdb::StatusOr<incdb::Relation> Read(const Op& op);

  const Spec& spec_;
  incdb::Session session_;
  std::vector<incdb::PreparedQuery> prepared_;
};

/// Cold reference for a read: parse/translate afresh, bind at the algebra
/// level and evaluate with the plan and result caches off on `snap`.
incdb::StatusOr<incdb::Relation> ColdRecompute(const Spec& spec, const Op& op,
                                               const incdb::Database& snap);

/// Order-independent digest of a relation's rows and multiplicities.
uint64_t Digest(const incdb::Relation& rel);

/// True when every tuple of `a` occurs in `b` (set containment).
bool SubsetOf(const incdb::Relation& a, const incdb::Relation& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
