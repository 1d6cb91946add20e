// Tests for the physical-plan layer (src/eval/plan.h): every rewrite pass
// on/off must produce identical relations across all three evaluation
// modes on the desugar/chase corpus; compiled plans have the expected
// shape (a conjunctive query joins with exactly one HashJoin and no
// NLJoin); leaf scans borrow the database rows instead of copying; joins
// honour the tuple budget; and the query-identity
// plan cache (src/eval/plan_cache.h) accounts hits/misses, distinguishes
// α-renamed from structurally identical queries, invalidates on schema
// change and survives concurrent lookups.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "algebra/builder.h"
#include "approx/approx.h"
#include "eval/eval.h"
#include "eval/plan.h"
#include "eval/plan_cache.h"
#include "tests/testing_util.h"
#include "tpch/tpch.h"

namespace incdb {
namespace {

using testing_util::FigureOne;
using testing_util::QueryZoo;
using testing_util::RandomDatabase;

/// The corpus the optimizer must be invisible on: the sugar-free QueryZoo,
/// the sugared desugar-corpus shapes, and ⋉⇑ (the unify-index pass's only
/// consumer), all over the RandomDatabase schema.
std::vector<AlgPtr> OptimizerCorpus() {
  std::vector<AlgPtr> corpus = QueryZoo();
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");
  corpus.push_back(Join(r, s, CEq("R_b", "S_a")));
  corpus.push_back(Semijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(Antijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(InPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"},
                               CTrue()));
  corpus.push_back(NotInPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"},
                                  CTrue()));
  corpus.push_back(AntijoinUnify(r, s));
  corpus.push_back(Distinct(Project(r, {"R_a"})));
  // Join with a one-sided conjunct (exercises selection pushdown) and a
  // disjunctive join condition with no hashable key (one NLJoin).
  corpus.push_back(Select(Product(r, Rename(s, {"S_x", "S_y"})),
                          CAnd(CEq("R_b", "S_x"),
                               CNeqc("R_a", Value::Int(1)))));
  corpus.push_back(Project(
      Select(Product(r, Rename(s, {"S_x", "S_y"})),
             COr(CEq("R_b", "S_x"), CIsNull("S_y"))),
      {"R_a", "S_y"}));
  // θ* = (a = b ∨ null(a) ∨ null(b)) joins (the null-aware UnifyJoin):
  // full width, with a residual, and projected onto one side (the
  // semijoin form of Q⁺ of a difference).
  CondPtr star = COr(CEq("R_b", "S_x"), COr(CIsNull("R_b"), CIsNull("S_x")));
  AlgPtr rs = Product(r, Rename(s, {"S_x", "S_y"}));
  corpus.push_back(Select(rs, star));
  corpus.push_back(Select(rs, CAnd(star, CNeq("R_a", "S_y"))));
  corpus.push_back(Project(Select(rs, star), {"R_a", "R_b"}));
  corpus.push_back(
      Project(Select(rs, CAnd(CNeqc("S_y", Value::Int(0)), star)), {"S_y"}));
  return corpus;
}

std::vector<std::pair<const char*, EvalOptions>> ToggleConfigs() {
  std::vector<std::pair<const char*, EvalOptions>> configs;
  EvalOptions base;
  configs.push_back({"all passes", base});
  {
    EvalOptions o = base;
    o.enable_hash_join = false;
    configs.push_back({"- hash join", o});
  }
  {
    EvalOptions o = base;
    o.enable_projection_fusion = false;
    configs.push_back({"- projection fusion", o});
  }
  {
    EvalOptions o = base;
    o.enable_unify_index = false;
    configs.push_back({"- unify index", o});
  }
  {
    EvalOptions o = base;
    o.enable_selection_pushdown = false;
    configs.push_back({"- selection pushdown", o});
  }
  {
    EvalOptions o = base;
    o.enable_hash_join = false;
    o.enable_projection_fusion = false;
    o.enable_unify_index = false;
    o.enable_selection_pushdown = false;
    configs.push_back({"no passes", o});
  }
  return configs;
}

TEST(PlanPassesTest, EveryToggleConfigProducesIdenticalRelations) {
  using Evaluator =
      StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                             const EvalOptions&);
  std::vector<std::pair<const char*, Evaluator>> modes = {
      {"set", &EvalSet}, {"bag", &EvalBag}, {"sql", &EvalSql}};
  std::mt19937_64 rng(42);
  for (int round = 0; round < 5; ++round) {
    Database db = RandomDatabase(rng);
    for (const AlgPtr& q : OptimizerCorpus()) {
      for (const auto& [mode_name, eval] : modes) {
        auto reference = eval(q, db, EvalOptions{});
        ASSERT_TRUE(reference.ok())
            << mode_name << " " << q->ToString() << ": "
            << reference.status().ToString();
        for (const auto& [cfg_name, opts] : ToggleConfigs()) {
          auto res = eval(q, db, opts);
          ASSERT_TRUE(res.ok()) << mode_name << "/" << cfg_name << " "
                                << q->ToString();
          EXPECT_TRUE(reference->SameRows(*res))
              << mode_name << "/" << cfg_name << " " << q->ToString() << ": "
              << reference->ToString() << " vs " << res->ToString();
        }
      }
    }
  }
}

TEST(PlanPassesTest, FigureOneQueriesStableUnderToggles) {
  for (bool with_null : {false, true}) {
    Database db = FigureOne(with_null);
    AlgPtr unpaid = NotInPredicate(
        Project(Scan("Orders"), {"oid"}),
        Rename(Project(Scan("Payments"), {"oid"}), {"poid"}), {"oid"},
        {"poid"}, CTrue());
    for (const auto& [cfg_name, opts] : ToggleConfigs()) {
      auto sql_ref = EvalSql(unpaid, db);
      auto sql = EvalSql(unpaid, db, opts);
      ASSERT_TRUE(sql_ref.ok() && sql.ok()) << cfg_name;
      EXPECT_TRUE(sql_ref->SameRows(*sql)) << cfg_name;
    }
  }
}

TEST(PlanShapeTest, ConjunctiveQueryUsesExactlyOneHashJoin) {
  std::mt19937_64 rng(3);
  Database db = RandomDatabase(rng);
  // π(σ_{R_b = S_a}(R × S)) — the canonical conjunctive join query.
  AlgPtr q = Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                     {"R_a", "S_b"});
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 1u)
      << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kNLJoin), 0u) << PlanToString(**plan);
  // The fused projection lives on the join: no separate Project operator.
  EXPECT_EQ(CountOps(**plan, PhysOp::kProject), 0u) << PlanToString(**plan);

  // With the hash-join pass off, the same query falls back to NLJoin.
  EvalOptions no_hash;
  no_hash.enable_hash_join = false;
  auto nl = Compile(q, EvalMode::kSetNaive, no_hash, db);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(CountOps(**nl, PhysOp::kHashJoin), 0u);
  EXPECT_EQ(CountOps(**nl, PhysOp::kNLJoin), 1u);
}

TEST(PlanShapeTest, PushdownMovesOneSidedConjunctBelowJoin) {
  std::mt19937_64 rng(4);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Scan("S")),
                    CAnd(CEq("R_b", "S_a"), CEqc("R_a", Value::Int(0))));
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db);
  ASSERT_TRUE(plan.ok());
  // R_a = 0 filters the R scan below the hash join.
  EXPECT_EQ(CountOps(**plan, PhysOp::kFilterSel), 1u) << PlanToString(**plan);
  EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 1u) << PlanToString(**plan);

  EvalOptions no_push;
  no_push.enable_selection_pushdown = false;
  auto kept = Compile(q, EvalMode::kSetNaive, no_push, db);
  ASSERT_TRUE(kept.ok());
  // The conjunct stays in the join residual: no filter operator at all.
  EXPECT_EQ(CountOps(**kept, PhysOp::kFilterSel), 0u) << PlanToString(**kept);
}

TEST(PlanShapeTest, DisjunctiveJoinIsOneNLJoinOverATree) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Rename(Scan("S"), {"S_x", "S_y"})),
                    COr(CEq("R_a", "S_x"), CEq("R_b", "S_y")));
  for (EvalMode mode :
       {EvalMode::kSetNaive, EvalMode::kBagNaive, EvalMode::kSetSql}) {
    auto plan = Compile(q, mode, EvalOptions{}, db);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // A disjunction of equalities has no hash key: one nested loop, no
    // per-disjunct union.
    EXPECT_EQ(CountOps(**plan, PhysOp::kNLJoin), 1u) << PlanToString(**plan);
    EXPECT_EQ(CountOps(**plan, PhysOp::kUnion), 0u) << PlanToString(**plan);
    EXPECT_EQ(CountOps(**plan, PhysOp::kHashJoin), 0u)
        << PlanToString(**plan);
    EXPECT_EQ(CountOps(**plan, PhysOp::kScanView), 2u)
        << PlanToString(**plan);
    // The plan is a tree: no node is reached twice.
    std::set<const PhysNode*> seen;
    std::vector<const PhysNode*> stack = {(*plan)->root.get()};
    while (!stack.empty()) {
      const PhysNode* n = stack.back();
      stack.pop_back();
      EXPECT_TRUE(seen.insert(n).second)
          << ToString(n->op) << " reached twice\n" << PlanToString(**plan);
      if (n->left) stack.push_back(n->left.get());
      if (n->right) stack.push_back(n->right.get());
    }
    auto res = Execute(*plan, db);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
}

/// Q⁺ (plus) or Q? (maybe) of TPC-H-lite workload query `name`, compiled
/// under naive set semantics.
PlanPtr CompileApprox(const Database& db, const std::string& name, bool plus,
                      const EvalOptions& opts) {
  for (const tpch::BenchQuery& bq : tpch::Workload()) {
    if (bq.name.rfind(name, 0) != 0) continue;
    auto q = plus ? TranslatePlus(bq.algebra, db)
                  : TranslateMaybe(bq.algebra, db);
    EXPECT_TRUE(q.ok()) << name << ": " << q.status().ToString();
    if (!q.ok()) return nullptr;
    auto plan = Compile(*q, EvalMode::kSetNaive, opts, db);
    EXPECT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }
  ADD_FAILURE() << "no workload query " << name;
  return nullptr;
}

// The σ?-rule's θ* join condition takes the null-aware UnifyJoin, not a
// nested loop over the disjunction: W4's Q? is two UnifyJoins with no
// union, and no Q⁺ of a difference keeps a nested loop.
TEST(PlanShapeTest, ThetaStarJoinsUseUnifyJoin) {
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  Database db = tpch::Generate(gen);
  PlanPtr w4 = CompileApprox(db, "W4", /*plus=*/false, EvalOptions{});
  ASSERT_NE(w4, nullptr);
  EXPECT_EQ(CountOps(*w4, PhysOp::kUnifyJoin), 2u) << PlanToString(*w4);
  EXPECT_EQ(CountOps(*w4, PhysOp::kNLJoin), 0u) << PlanToString(*w4);
  EXPECT_EQ(CountOps(*w4, PhysOp::kUnion), 0u) << PlanToString(*w4);
  for (const char* name : {"W1", "W2", "W5", "W6"}) {
    PlanPtr plus = CompileApprox(db, name, /*plus=*/true, EvalOptions{});
    ASSERT_NE(plus, nullptr);
    EXPECT_EQ(CountOps(*plus, PhysOp::kNLJoin), 0u)
        << name << "\n" << PlanToString(*plus);
    EXPECT_EQ(CountOps(*plus, PhysOp::kUnifyJoin), 1u)
        << name << "\n" << PlanToString(*plus);
  }

  // The operator belongs to the hash-join pass: with it off, the plans
  // fall back to nested loops and never use UnifyJoin.
  EvalOptions no_hash;
  no_hash.enable_hash_join = false;
  for (const char* name : {"W1", "W2", "W4", "W5", "W6"}) {
    for (bool plus : {true, false}) {
      PlanPtr plan = CompileApprox(db, name, plus, no_hash);
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(CountOps(*plan, PhysOp::kUnifyJoin), 0u)
          << name << "\n" << PlanToString(*plan);
    }
  }
}

// Only the exact θ* leaf set {a = b, null(a), null(b)} across the two
// sides is a unification key; a plain equality still wins as a hash key.
TEST(PlanShapeTest, UnifyKeyRecognitionIsExact) {
  std::mt19937_64 rng(6);
  Database db = RandomDatabase(rng);
  AlgPtr rs = Product(Scan("R"), Rename(Scan("S"), {"S_x", "S_y"}));
  auto ops = [&](const CondPtr& c, PhysOp op) {
    auto plan = Compile(Select(rs, c), EvalMode::kBagNaive, EvalOptions{}, db);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? CountOps(**plan, op) : 0;
  };
  // Any OR-tree shape and leaf order.
  EXPECT_EQ(ops(COr(COr(CIsNull("S_x"), CEq("S_x", "R_b")), CIsNull("R_b")),
                PhysOp::kUnifyJoin),
            1u);
  // A null test on the wrong attribute is not θ*.
  EXPECT_EQ(ops(COr(CEq("R_b", "S_x"), COr(CIsNull("R_a"), CIsNull("S_x"))),
                PhysOp::kUnifyJoin),
            0u);
  // A fourth disjunct is not θ*.
  EXPECT_EQ(ops(COr(COr(CEq("R_b", "S_x"), CIsNull("R_a")),
                    COr(CIsNull("R_b"), CIsNull("S_x"))),
                PhysOp::kUnifyJoin),
            0u);
  // A plain equi-key wins; θ* stays in the hash join's residual.
  CondPtr star = COr(CEq("R_b", "S_x"), COr(CIsNull("R_b"), CIsNull("S_x")));
  EXPECT_EQ(ops(CAnd(star, CEq("R_a", "S_y")), PhysOp::kHashJoin), 1u);
  EXPECT_EQ(ops(CAnd(star, CEq("R_a", "S_y")), PhysOp::kUnifyJoin), 0u);
}

TEST(PlanExecTest, CompileOnceExecuteManyAcrossDatabases) {
  std::mt19937_64 rng(6);
  Database db1 = RandomDatabase(rng);
  Database db2 = RandomDatabase(rng);  // same schema, different rows
  AlgPtr q = Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                     {"R_a", "S_b"});
  auto plan = Compile(q, EvalMode::kSetNaive, EvalOptions{}, db1);
  ASSERT_TRUE(plan.ok());
  for (const Database* db : {&db1, &db2}) {
    auto via_plan = Execute(*plan, *db);
    auto direct = EvalSet(q, *db);
    ASSERT_TRUE(via_plan.ok() && direct.ok());
    EXPECT_TRUE(via_plan->SameRows(*direct));
  }
}

TEST(PlanExecTest, ScansAreBorrowedViews) {
  std::mt19937_64 rng(7);
  Database db = RandomDatabase(rng);  // RandomDatabase stores sets
  ScanResolver resolver(db);
  auto view = resolver.Resolve("R", /*collapse_to_set=*/true);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->borrowed());
  EXPECT_EQ(&view->rel(), &db.at("R"));  // zero-copy: the same object

  // A non-set relation under set collapse materialises once and is then
  // served from the cache.
  Relation bag({"x"});
  bag.Add({Value::Int(1)}, 3);
  db.Put("B", bag);
  auto b1 = resolver.Resolve("B", true);
  auto b2 = resolver.Resolve("B", true);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_NE(&b1->rel(), &db.at("B"));
  EXPECT_EQ(&b1->rel(), &b2->rel());  // cached copy is shared
  EXPECT_TRUE(b1->rel().IsSet());
  // Under bag semantics the same relation is borrowed untouched.
  auto braw = resolver.Resolve("B", false);
  ASSERT_TRUE(braw.ok());
  EXPECT_EQ(&braw->rel(), &db.at("B"));
}

TEST(PlanExecTest, RelationViewOwnBorrowRenameMaterialize) {
  Relation r({"a", "b"});
  r.Add({Value::Int(1), Value::Int(2)});
  RelationView borrowed = RelationView::Borrow(r);
  EXPECT_TRUE(borrowed.borrowed());
  RelationView renamed = borrowed.Renamed({"x", "y"});
  EXPECT_EQ(renamed.attrs(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(&renamed.rel(), &r);  // still zero-copy
  Relation materialized = std::move(renamed).Materialize();
  EXPECT_EQ(materialized.attrs(), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(materialized.SameRows(r));

  RelationView owned = RelationView::Own(std::move(r));
  EXPECT_FALSE(owned.borrowed());
  Relation back = std::move(owned).Materialize();
  EXPECT_EQ(back.Count(Tuple{Value::Int(1), Value::Int(2)}), 1u);
}

TEST(PlanExecTest, NLJoinHonoursBudget) {
  Database db;
  Relation l({"a", "b"}), r({"c", "d"});
  for (int i = 0; i < 600; ++i) {
    l.Add({Value::Int(i), Value::Int(i % 7)});
    r.Add({Value::Int(i), Value::Int((i + 1) % 7)});
  }
  db.Put("L", l);
  db.Put("Rr", r);
  // b ≠ d holds for most of the 360000 pairs — far beyond the budget.
  EvalOptions opts;
  opts.max_tuples = 10;
  opts.use_plan_cache = false;
  auto res = EvalSet(Join(Scan("L"), Scan("Rr"), CNeq("b", "d")), db, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlanCacheTest, HitMissAccountingAndLookupIdentity) {
  std::mt19937_64 rng(12);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  auto build = [] {
    return Project(Select(Product(Scan("R"), Scan("S")), CEq("R_b", "S_a")),
                   {"R_a", "S_b"});
  };
  auto p1 = cache.CompileCached(build(), EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(p1.ok());
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.size, 1u);
  // A structurally identical but independently built tree hits: identity
  // is structural, not pointer-based.
  auto p2 = cache.CompileCached(build(), EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(p2.ok());
  s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(p1->get(), p2->get());  // the same compiled plan object
  // The cached plan executes correctly.
  auto via_cache = Execute(*p2, db);
  auto direct = EvalSet(build(), db, opts);
  ASSERT_TRUE(via_cache.ok() && direct.ok());
  EXPECT_TRUE(via_cache->SameRows(*direct));
}

TEST(PlanCacheTest, AlphaRenamedAndDistinctQueriesKeySeparately) {
  std::mt19937_64 rng(13);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  // What participates in query identity, asserted on the key bytes
  // directly: structural equality of independently built trees, attribute
  // names, mode, toggles and the scanned schemas all do.
  EXPECT_EQ(PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db),
            PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db));
  EXPECT_NE(PlanCacheKey(Rename(Scan("R"), {"x", "y"}), EvalMode::kSetNaive,
                         opts, db),
            PlanCacheKey(Rename(Scan("R"), {"u", "v"}), EvalMode::kSetNaive,
                         opts, db));
  EXPECT_NE(PlanCacheKey(Scan("R"), EvalMode::kSetNaive, opts, db),
            PlanCacheKey(Scan("R"), EvalMode::kSetSql, opts, db));
  // α-renamed: same shape, different attribute names — attribute names
  // are semantic (they define the output schema), so these must not
  // collide on one entry.
  auto a = cache.CompileCached(Rename(Scan("R"), {"x", "y"}),
                               EvalMode::kSetNaive, opts, db);
  auto b = cache.CompileCached(Rename(Scan("R"), {"u", "v"}),
                               EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ((*a)->root->attrs, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ((*b)->root->attrs, (std::vector<std::string>{"u", "v"}));
  // Mode and option changes key separately too (the options are baked
  // into the compiled plan).
  AlgPtr q = Select(Scan("R"), CEq("R_a", "R_b"));
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q, EvalMode::kSetSql, opts, db);
  EvalOptions other = opts;
  other.enable_selection_pushdown = false;
  (void)cache.CompileCached(q, EvalMode::kSetNaive, other, db);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(PlanOptionsTest, BatchSizeZeroResolvesToOne) {
  std::mt19937_64 rng(15);
  Database db = RandomDatabase(rng);
  AlgPtr q = Project(Select(Product(Scan("R"), Rename(Scan("S"), {"x", "y"})),
                            COr(CEq("R_a", "x"), CIsNull("y"))),
                     {"R_b", "y"});
  EvalOptions zero;
  zero.batch_size = 0;
  EvalOptions one;
  one.batch_size = 1;
  // Compile stores the resolved value: 0 is the row-at-a-time cadence.
  EXPECT_EQ(ResolveBatchSize(0), 1u);
  auto plan = Compile(q, EvalMode::kSetNaive, zero, db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->opts.batch_size, 1u);
  // 0 and 1 share one plan-cache entry.
  EXPECT_EQ(PlanCacheKey(q, EvalMode::kSetNaive, zero, db),
            PlanCacheKey(q, EvalMode::kSetNaive, one, db));
  PlanCache cache;
  auto a = cache.CompileCached(q, EvalMode::kSetNaive, zero, db);
  auto b = cache.CompileCached(q, EvalMode::kSetNaive, one, db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // And it evaluates exactly like batch 1, row order included.
  using Evaluator = StatusOr<Relation> (*)(const AlgPtr&, const Database&,
                                           const EvalOptions&);
  for (Evaluator eval : {Evaluator{&EvalSet}, Evaluator{&EvalBag},
                         Evaluator{&EvalSql}}) {
    auto r0 = eval(q, db, zero);
    auto r1 = eval(q, db, one);
    ASSERT_TRUE(r0.ok() && r1.ok());
    EXPECT_TRUE(r0->IdenticalTo(*r1)) << r0->ToString() << r1->ToString();
  }
}

TEST(PlanCacheTest, SchemaChangeInvalidatesAndClearDropsEntries) {
  std::mt19937_64 rng(14);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  EvalOptions opts;
  AlgPtr q = Project(Scan("R"), {"R_a"});
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same rows, different schema: the scanned-schema bytes in the key
  // change, so the next lookup recompiles against the new schema.
  Relation renamed = db.at("R");
  ASSERT_TRUE(renamed.RenameAttrs({"R_a", "R_z"}).ok());
  db.Put("R", std::move(renamed));
  auto recompiled = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  auto res = Execute(*recompiled, db);
  ASSERT_TRUE(res.ok());
  // A schema change that breaks the query surfaces the compile error
  // instead of serving the stale plan.
  Relation narrow({"R_z"});
  db.Put("R", std::move(narrow));
  auto broken = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
  EXPECT_FALSE(broken.ok());
  // Clear() drops entries; the next lookup misses again.
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  std::mt19937_64 rng(15);
  Database db = RandomDatabase(rng);
  PlanCache cache(/*capacity=*/2);
  EvalOptions opts;
  AlgPtr q1 = Project(Scan("R"), {"R_a"});
  AlgPtr q2 = Project(Scan("R"), {"R_b"});
  AlgPtr q3 = Project(Scan("S"), {"S_a"});
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q2, EvalMode::kSetNaive, opts, db);
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);  // refresh q1
  (void)cache.CompileCached(q3, EvalMode::kSetNaive, opts, db);  // evicts q2
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.evictions, 1u);
  (void)cache.CompileCached(q1, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().hits, 2u);  // q1 survived the eviction
  (void)cache.CompileCached(q2, EvalMode::kSetNaive, opts, db);
  EXPECT_EQ(cache.stats().misses, 4u);  // q2 did not
}

TEST(PlanCacheTest, ConcurrentLookupsFromManyThreads) {
  std::mt19937_64 rng(16);
  Database db = RandomDatabase(rng);
  PlanCache cache;
  const std::vector<AlgPtr> queries = testing_util::QueryZoo();
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      EvalOptions opts;
      for (int i = 0; i < kIters; ++i) {
        const AlgPtr& q = queries[(w + i) % queries.size()];
        auto plan = cache.CompileCached(q, EvalMode::kSetNaive, opts, db);
        if (!plan.ok() || !(*plan)->root) {
          failures.fetch_add(1);
          continue;
        }
        auto res = Execute(*plan, db);
        if (!res.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = cache.stats();
  // Every lookup is accounted exactly once (racing cold-key compiles may
  // add extra misses but never lose a count).
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.size, s.capacity);
}

TEST(PlanCacheTest, GlobalCacheServesTheEvalWrappers) {
  std::mt19937_64 rng(17);
  Database db = RandomDatabase(rng);
  AlgPtr q = Select(Product(Scan("R"), Rename(Scan("S"), {"S_x", "S_y"})),
                    CEq("R_b", "S_x"));
  PlanCacheStats before = PlanCache::Global().stats();
  EvalOptions opts;  // use_plan_cache defaults to true
  auto r1 = EvalSet(q, db, opts);
  auto r2 = EvalSet(q, db, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1->IdenticalTo(*r2));
  PlanCacheStats after = PlanCache::Global().stats();
  EXPECT_GE(after.hits, before.hits + 1);
  // Opting out recompiles per call and never touches the counters.
  EvalOptions uncached;
  uncached.use_plan_cache = false;
  PlanCacheStats mid = PlanCache::Global().stats();
  auto r3 = EvalSet(q, db, uncached);
  ASSERT_TRUE(r3.ok());
  PlanCacheStats end = PlanCache::Global().stats();
  EXPECT_EQ(mid.hits + mid.misses, end.hits + end.misses);
}

TEST(PlanExecTest, JoinHonoursBudget) {
  Database db;
  Relation l({"a", "k"}), r({"k2", "b"});
  for (int i = 0; i < 1200; ++i) {
    l.Add({Value::Int(i), Value::Int(i % 8)});
    r.Add({Value::Int(i % 8), Value::Int(i)});
  }
  db.Put("L", l);
  db.Put("Rr", r);
  // 8 distinct keys with 150 rows per side each: 180000 distinct pairs,
  // far beyond the budget — the join must abort promptly.
  EvalOptions opts;
  opts.max_tuples = 10;
  auto res = EvalSet(Join(Scan("L"), Scan("Rr"), CEq("k", "k2")), db, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace incdb
