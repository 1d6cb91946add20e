#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>

#include "sql/translate.h"

namespace perfbench {

using incdb::AlgPtr;
using incdb::Database;
using incdb::EvalMode;
using incdb::EvalOptions;
using incdb::Relation;
using incdb::Status;
using incdb::StatusOr;
using incdb::Tuple;
using incdb::Value;

namespace {

constexpr size_t kHotPerTemplate = 16;
/// serve_update runs blocks of four reads and one commit, shuffled: 80 %
/// reads, and every block has the same mix.
constexpr size_t kServeBlock = 5;
/// Seeded share of reads whose result is compared against a cold
/// recompute (outside the timed region).
constexpr double kCheckShare = 1.0 / 8;

/// adhoc_sql templates: the SQL fragment — NOT IN, correlated NOT EXISTS,
/// a 2-way join, a range filter, UNION, and a filter + NOT IN. Every
/// parameter is an integer; AdhocRanges gives its domain.
const char* const kAdhocSql[] = {
    "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN "
    "(SELECT l_orderkey FROM lineitem WHERE l_price > ?)",

    "SELECT C.c_custkey FROM customer C WHERE C.c_acctbal > ? AND NOT EXISTS "
    "(SELECT * FROM orders O WHERE O.o_custkey = C.c_custkey "
    "AND O.o_totalprice > ?)",

    "SELECT C.c_name, O.o_orderkey FROM customer C, orders O "
    "WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > ? "
    "AND C.c_acctbal < ?",

    "SELECT l_orderkey, l_partkey, l_price FROM lineitem "
    "WHERE l_price >= ? AND l_price < ? AND l_quantity > ?",

    "SELECT o_orderkey FROM orders WHERE o_totalprice < ? UNION "
    "SELECT l_orderkey FROM lineitem WHERE l_price > ?",

    "SELECT o_orderkey FROM orders WHERE o_totalprice > ? AND o_status = 'O' "
    "AND o_orderkey NOT IN (SELECT l_orderkey FROM lineitem "
    "WHERE l_orderkey IS NOT NULL AND l_quantity > ?)",
};
const char* const kAdhocNames[] = {"not_in", "not_exists", "join",
                                   "range",  "union",      "filter_not_in"};

const size_t kAdhocCycle[] = {0, 1, 2, 3, 3, 4, 5};

struct Range {
  int64_t lo, hi;
};
/// Parameter domains of the adhoc_sql templates (wide enough that a run
/// never needs to repeat a binding).
const std::vector<std::vector<Range>>& AdhocRanges() {
  static const std::vector<std::vector<Range>> kRanges = {
      {{100, 10000}},
      {{-999, 9999}, {100, 100000}},
      {{100, 100000}, {-999, 9999}},
      {{100, 9000}, {50, 1000}, {0, 49}},  // lo, width, quantity
      {{100, 100000}, {100, 10000}},
      {{100, 100000}, {1, 50}},
  };
  return kRanges;
}

/// serve_update templates: a join under SQL semantics, a filter and a
/// union under bag semantics, and a NOT IN (not maintainable).
const char* const kServeSql[] = {
    "SELECT O.o_orderkey, L.l_partkey, L.l_quantity FROM orders O, "
    "lineitem L WHERE O.o_orderkey = L.l_orderkey AND O.o_custkey = ?",

    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_partkey = ?",

    "SELECT o_orderkey FROM orders WHERE o_custkey = ? UNION "
    "SELECT l_orderkey FROM lineitem WHERE l_suppkey = ?",

    "SELECT o_orderkey FROM orders WHERE o_custkey = ? AND o_orderkey NOT IN "
    "(SELECT l_orderkey FROM lineitem WHERE l_orderkey IS NOT NULL)",
};
const char* const kServeNames[] = {"join_sql", "filter_bag", "union_bag",
                                   "not_in_sql"};
const EvalMode kServeModes[] = {EvalMode::kSetSql, EvalMode::kBagNaive,
                                EvalMode::kBagNaive, EvalMode::kSetSql};
/// Read mix over the serve_update templates. A removal invalidates the
/// set-semantics join's entries and every commit invalidates the NOT IN
/// entries; this mix keeps the result-cache hit ratio near 3/4, well away
/// from 1/2, so the median read sits inside the band of hits rather than
/// on the hit/recompute boundary.
const double kServeWeights[] = {0.2, 0.35, 0.35, 0.1};
/// serve_update's commits insert a batch of rows while fewer than this many
/// inserted batches are live, and otherwise remove the two oldest live
/// batches. After the warm-up's inserts, two inserts and one removal take
/// turns: the data and the hot results stay the same size however many
/// operations a run completes (with net inserts, a faster host would grow
/// them further within the run's seconds, and the hit and recompute times
/// with them), and the median commit is an insert, not the boundary
/// between the two kinds.
constexpr size_t kLiveBatches = 16;

size_t Scaled(double scale, size_t base) {
  return std::max<size_t>(1, static_cast<size_t>(base * scale));
}

int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kAdhocSql:
      return "adhoc_sql";
    case WorkloadId::kCertainApprox:
      return "certain_approx";
    case WorkloadId::kServeUpdate:
      return "serve_update";
  }
  return "?";
}

std::optional<WorkloadId> ParseWorkload(const std::string& name) {
  for (WorkloadId id : {WorkloadId::kAdhocSql, WorkloadId::kCertainApprox,
                        WorkloadId::kServeUpdate}) {
    if (name == WorkloadName(id)) return id;
  }
  return std::nullopt;
}

Spec MakeSpec(WorkloadId id, uint64_t seed, bool smoke) {
  Spec s;
  s.id = id;
  s.seed = seed;
  s.gen.null_rate = 0.02;
  s.gen.seed = Mix(seed);
  switch (id) {
    case WorkloadId::kAdhocSql:
      s.gen.scale = smoke ? 0.25 : 8.0;
      for (size_t t = 0; t < std::size(kAdhocSql); ++t) {
        s.templates.push_back({kAdhocNames[t], kAdhocSql[t], nullptr,
                               EvalMode::kSetSql});
      }
      s.trace_ops = smoke ? 60 : 600;
      break;
    case WorkloadId::kCertainApprox:
      // Scale 2, the E3 instance: at scale 8 W4's Q? alone takes seconds.
      s.gen.scale = smoke ? 0.25 : 2.0;
      // The original-query control must recompute every time, as the
      // Certain* calls do.
      s.opts.use_result_cache = false;
      for (const incdb::tpch::BenchQuery& q : incdb::tpch::Workload()) {
        s.templates.push_back({q.name, "", q.algebra, EvalMode::kSetNaive});
      }
      s.trace_ops = (smoke ? 1 : 4) * (s.templates.size() * kVariants + 1);
      break;
    case WorkloadId::kServeUpdate: {
      s.gen.scale = smoke ? 0.25 : 8.0;
      for (size_t t = 0; t < std::size(kServeSql); ++t) {
        s.templates.push_back({kServeNames[t], kServeSql[t], nullptr,
                               kServeModes[t]});
      }
      // Hot bindings: 16 distinct keys per template, drawn from the seed.
      std::mt19937_64 rng(Mix(seed ^ 0x5e7e));
      const int64_t n_cust = static_cast<int64_t>(Scaled(s.gen.scale, 150));
      const int64_t n_part = static_cast<int64_t>(Scaled(s.gen.scale, 200));
      const int64_t n_supp = static_cast<int64_t>(Scaled(s.gen.scale, 100));
      const int64_t domain[][2] = {{n_cust, 0}, {n_part, 0}, {n_cust, n_supp},
                                   {n_cust, 0}};
      s.hot.resize(s.templates.size());
      for (size_t t = 0; t < s.templates.size(); ++t) {
        std::vector<std::vector<int64_t>> seen;
        while (s.hot[t].size() < kHotPerTemplate) {
          std::vector<int64_t> key;
          for (int64_t n : domain[t]) {
            if (n > 0) key.push_back(Uniform(rng, 0, n - 1));
          }
          if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
          seen.push_back(key);
          std::vector<Value> binding;
          for (int64_t k : key) binding.push_back(Value::Int(k));
          s.hot[t].push_back(std::move(binding));
        }
      }
      s.trace_ops = smoke ? 200 : 2000;
      break;
    }
  }
  return s;
}

Database MakeData(const Spec& spec) {
  incdb::tpch::GenOptions gen = spec.gen;
  gen.null_rate = 0;
  Database db = incdb::tpch::Generate(gen);
  // tpch::Generate nulls each nullable cell independently, so a scale-2
  // column's null count varies by ~13% between seeds, and Q?'s cost (it
  // unifies every null-bearing row) with it. Nulling exactly null_rate of
  // each nullable column's cells keeps the positions seeded but the cost
  // comparable between seeds.
  static const std::pair<const char*, std::vector<size_t>> kNullable[] = {
      {"nation", {2}},         {"customer", {2, 3}},
      {"supplier", {2, 3}},    {"part", {2, 3}},
      {"orders", {1, 2, 3}},   {"lineitem", {0, 1, 2, 3, 4}}};
  std::mt19937_64 rng(Mix(spec.seed ^ 0x4e11));
  uint64_t next_null = 1;
  for (const auto& [name, cols] : kNullable) {
    const Relation& src = db.at(name);
    std::vector<Tuple> rows;
    for (const auto& [t, c] : src.rows()) rows.insert(rows.end(), c, t);
    std::vector<size_t> idx(rows.size());
    for (size_t col : cols) {
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      const size_t k = static_cast<size_t>(
          std::llround(spec.gen.null_rate * static_cast<double>(rows.size())));
      for (size_t i = 0; i < k; ++i) {  // partial Fisher-Yates
        std::swap(idx[i], idx[static_cast<size_t>(Uniform(
                              rng, static_cast<int64_t>(i),
                              static_cast<int64_t>(idx.size()) - 1))]);
        rows[idx[i]][col] = Value::Null(next_null++);
      }
    }
    Relation out(src.attrs());
    out.Reserve(rows.size());
    for (Tuple& t : rows) {
      Status st = out.Insert(std::move(t));
      if (!st.ok()) std::abort();  // same arity by construction
    }
    db.Put(name, std::move(out));
  }
  return db;
}

// --- OpStream ----------------------------------------------------------------

OpStream::OpStream(const Spec& spec, const Database& initial)
    : spec_(spec), rng_(Mix(spec.seed ^ 0x0b5)) {
  if (spec.id == WorkloadId::kAdhocSql) seen_.resize(spec.templates.size());
  if (spec.id == WorkloadId::kServeUpdate) {
    // Zipf(s = 1) over the 16 hot bindings of a template.
    double h = 0;
    for (size_t r = 1; r <= kHotPerTemplate; ++r) {
      h += 1.0 / static_cast<double>(r);
      zipf_cdf_.push_back(h);
    }
    for (double& c : zipf_cdf_) c /= h;
    next_orderkey_ =
        static_cast<int64_t>(initial.at("orders").DistinctSize());
  }
}

bool OpStream::AtCycleStart() const {
  if (spec_.id == WorkloadId::kCertainApprox) {
    return next_id_ % (spec_.templates.size() * kVariants + 1) == 0;
  }
  return cycle_pos_ == cycle_.size();
}

std::vector<Op> OpStream::Warmup() {
  std::vector<Op> ops;
  switch (spec_.id) {
    case WorkloadId::kAdhocSql:
      // Each template three times: fills the plan cache.
      for (int rep = 0; rep < 3; ++rep) {
        for (size_t t = 0; t < spec_.templates.size(); ++t) {
          Op op;
          op.query = t;
          op.params = FreshAdhocBinding(t);
          ops.push_back(std::move(op));
        }
      }
      break;
    case WorkloadId::kCertainApprox:
      // One full cycle: its results are the reference digests.
      for (size_t q = 0; q < spec_.templates.size(); ++q) {
        for (size_t v = 0; v < kVariants; ++v) {
          Op op;
          op.query = q;
          op.variant = static_cast<Variant>(v);
          ops.push_back(std::move(op));
        }
      }
      break;
    case WorkloadId::kServeUpdate:
      // The live inserted batches, then every hot binding once: fills the
      // result cache.
      while (live_.size() < kLiveBatches) ops.push_back(NextCommit());
      for (size_t t = 0; t < spec_.templates.size(); ++t) {
        for (const std::vector<Value>& b : spec_.hot[t]) {
          Op op;
          op.query = t;
          op.params = b;
          ops.push_back(std::move(op));
        }
      }
      break;
  }
  return ops;
}

Op OpStream::Next() {
  switch (spec_.id) {
    case WorkloadId::kAdhocSql:
      return NextAdhoc();
    case WorkloadId::kCertainApprox:
      return NextCertain();
    case WorkloadId::kServeUpdate:
      break;
  }
  return NextServe();
}

std::vector<Value> OpStream::FreshAdhocBinding(size_t t) {
  const std::vector<Range>& ranges = AdhocRanges()[t];
  std::vector<int64_t> key;
  do {
    key.clear();
    for (const Range& r : ranges) key.push_back(Uniform(rng_, r.lo, r.hi));
  } while (std::find(seen_[t].begin(), seen_[t].end(), key) != seen_[t].end());
  seen_[t].push_back(key);
  if (t == 3) key[1] += key[0];  // range: [lo, lo + width)
  std::vector<Value> out;
  for (int64_t k : key) out.push_back(Value::Int(k));
  return out;
}

Op OpStream::NextAdhoc() {
  // Templates run in shuffled cycles of kAdhocCycle, so every run has the
  // exact mix; "range" appears twice, which puts the median read inside
  // one template's latency band instead of in the gap between the fast
  // and the slow half of the templates.
  if (AtCycleStart()) {
    cycle_.assign(std::begin(kAdhocCycle), std::end(kAdhocCycle));
    std::shuffle(cycle_.begin(), cycle_.end(), rng_);
    cycle_pos_ = 0;
  }
  Op op;
  op.id = next_id_++;
  op.query = cycle_[cycle_pos_++];
  op.params = FreshAdhocBinding(op.query);
  op.check = std::uniform_real_distribution<double>(0, 1)(rng_) < kCheckShare;
  return op;
}

Op OpStream::NextCertain() {
  Op op;
  op.id = next_id_++;
  // A cycle is the 24 (query, variant) pairs plus W1's original once
  // more: with an odd cycle length the median read falls inside one
  // operation's latency band, never on the boundary between two.
  const uint64_t pairs = spec_.templates.size() * kVariants;
  const uint64_t pos = op.id % (pairs + 1);
  op.repeat = pos == pairs;
  op.query = op.repeat ? 0 : pos / kVariants;
  op.variant = op.repeat ? Variant::kOriginal : static_cast<Variant>(pos % kVariants);
  // Every operation is checked: Q+ ⊆ Q? and the set-up digests.
  op.check = true;
  return op;
}

RowEdit OpStream::MakeInsert(bool orders) {
  // Half of the inserted rows hit a hot binding, so maintenance has work.
  const bool hot = Uniform(rng_, 0, 1) == 0;
  auto pick_hot = [&](size_t t, size_t pos) {
    const auto& b = spec_.hot[t][static_cast<size_t>(
        Uniform(rng_, 0, kHotPerTemplate - 1))];
    return b[pos];
  };
  const int64_t n_cust =
      static_cast<int64_t>(Scaled(spec_.gen.scale, 150));
  const int64_t n_part =
      static_cast<int64_t>(Scaled(spec_.gen.scale, 200));
  const int64_t n_supp =
      static_cast<int64_t>(Scaled(spec_.gen.scale, 100));
  static const char* kStatuses[] = {"O", "F", "P"};
  RowEdit e;
  e.insert = true;
  if (orders) {
    e.rel = "orders";
    e.row = Tuple{Value::Int(next_orderkey_++),
                  hot ? pick_hot(0, 0) : Value::Int(Uniform(rng_, 0, n_cust - 1)),
                  Value::Int(Uniform(rng_, 100, 100000)),
                  Value::String(kStatuses[Uniform(rng_, 0, 2)])};
  } else {
    e.rel = "lineitem";
    const int64_t okey = Uniform(rng_, 0, next_orderkey_ - 1);
    e.row = Tuple{Value::Int(okey),
                  hot ? pick_hot(1, 0) : Value::Int(Uniform(rng_, 0, n_part - 1)),
                  hot ? pick_hot(2, 1) : Value::Int(Uniform(rng_, 0, n_supp - 1)),
                  Value::Int(Uniform(rng_, 1, 50)),
                  Value::Int(Uniform(rng_, 100, 10000))};
  }
  return e;
}

Op OpStream::NextServe() {
  Op op;
  op.id = next_id_++;
  std::uniform_real_distribution<double> unit(0, 1);
  if (AtCycleStart()) {
    cycle_.assign(kServeBlock, 0);
    cycle_[0] = 1;  // the commit
    std::shuffle(cycle_.begin(), cycle_.end(), rng_);
    cycle_pos_ = 0;
  }
  if (cycle_[cycle_pos_++] == 0) {
    const double pick = unit(rng_);
    op.query = 0;
    for (double acc = kServeWeights[0];
         pick >= acc && op.query + 1 < spec_.templates.size();
         acc += kServeWeights[op.query]) {
      ++op.query;
    }
    const double u = unit(rng_);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    op.params = spec_.hot[op.query][std::min(rank, kHotPerTemplate - 1)];
    op.check = unit(rng_) < kCheckShare;
    return op;
  }
  Op commit = NextCommit();
  commit.id = op.id;
  return commit;
}

Op OpStream::NextCommit() {
  Op op;
  op.commit = true;
  if (live_.size() >= kLiveBatches) {
    for (int i = 0; i < 2; ++i) {
      for (RowEdit& e : live_.front()) {
        e.insert = false;
        op.edits.push_back(std::move(e));
      }
      live_.pop_front();
    }
    return op;
  }
  const bool orders = Uniform(rng_, 0, 1) == 0;
  const int64_t n = Uniform(rng_, 1, 8);
  for (int64_t i = 0; i < n; ++i) op.edits.push_back(MakeInsert(orders));
  live_.push_back(op.edits);
  return op;
}

// --- SessionRunner -----------------------------------------------------------

SessionRunner::SessionRunner(const Spec& spec, Database db)
    : spec_(spec), session_(std::move(db), spec.opts) {}

StatusOr<std::unique_ptr<SessionRunner>> SessionRunner::Make(const Spec& spec,
                                                             Database db) {
  std::unique_ptr<SessionRunner> r(new SessionRunner(spec, std::move(db)));
  if (spec.id != WorkloadId::kAdhocSql) {
    for (const Template& t : spec.templates) {
      auto pq = t.alg ? r->session_.Prepare(t.alg, t.mode)
                      : r->session_.Prepare(t.sql, t.mode);
      if (!pq.ok()) return pq.status();
      r->prepared_.push_back(std::move(*pq));
    }
  }
  return r;
}

OpResult SessionRunner::Run(const Op& op) {
  OpResult out;
  if (op.commit) {
    out.status = session_.Mutate([&](Database::Txn& txn) -> Status {
      for (const RowEdit& e : op.edits) {
        INCDB_RETURN_IF_ERROR(e.insert ? txn.Insert(e.rel, e.row)
                                       : txn.Remove(e.rel, e.row));
      }
      return Status::OK();
    });
    return out;
  }
  StatusOr<Relation> rel = Read(op);
  if (rel.ok()) {
    out.rel = std::move(*rel);
  } else {
    out.status = rel.status();
  }
  return out;
}

StatusOr<Relation> SessionRunner::Read(const Op& op) {
  const Template& t = spec_.templates[op.query];
  switch (spec_.id) {
    case WorkloadId::kAdhocSql:
      return session_.Execute(t.sql, op.params, t.mode);
    case WorkloadId::kCertainApprox:
      switch (op.variant) {
        case Variant::kOriginal:
          return prepared_[op.query].Execute();
        case Variant::kPlus:
          return session_.CertainPlus(t.alg);
        case Variant::kMaybe:
          return session_.CertainMaybe(t.alg);
      }
      break;
    case WorkloadId::kServeUpdate:
      return prepared_[op.query].Execute(op.params);
  }
  return Status::Internal("unknown operation");
}

// --- Checks ------------------------------------------------------------------

StatusOr<Relation> ColdRecompute(const Spec& spec, const Op& op,
                                 const Database& snap) {
  const Template& t = spec.templates[op.query];
  AlgPtr alg = t.alg;
  if (!alg) {
    auto parsed = incdb::ParseSqlToAlgebra(t.sql, snap);
    if (!parsed.ok()) return parsed.status();
    alg = *parsed;
  }
  auto bound = incdb::BindParams(alg, op.params);
  if (!bound.ok()) return bound.status();
  EvalOptions cold = spec.opts;
  cold.use_plan_cache = false;
  cold.use_result_cache = false;
  switch (t.mode) {
    case EvalMode::kSetNaive:
      return incdb::EvalSet(*bound, snap, cold);
    case EvalMode::kBagNaive:
      return incdb::EvalBag(*bound, snap, cold);
    case EvalMode::kSetSql:
      break;
  }
  return incdb::EvalSql(*bound, snap, cold);
}

uint64_t Digest(const Relation& rel) {
  uint64_t d = Mix(rel.DistinctSize());
  for (const auto& [t, c] : rel.rows()) d += Mix(t.Hash() ^ Mix(c));
  return d;
}

bool SubsetOf(const Relation& a, const Relation& b) {
  for (const auto& [t, c] : a.rows()) {
    if (!b.Contains(t)) return false;
  }
  return true;
}

}  // namespace perfbench
