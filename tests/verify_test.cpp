// Tests for the plan verifier (src/eval/verify.h). Two halves:
//
//  * Zero-findings sweeps: every plan the compiler produces over the
//    QueryZoo, the sugar corpus, 150 seeded random queries, parameter
//    templates (before AND after binding), the Q⁺/Q? translations of the
//    TPC-H-lite workload W1–W8 and the c-table lowering must
//    pass VerifyPlan — across all three evaluation modes and a matrix of
//    rewrite-pass toggles. The verifier is also wired into Compile /
//    BindPlanParams / the plan cache / delta propagation in Debug builds,
//    so the rest of the test suite doubles as a corpus there; this sweep
//    keeps the coverage in every build type.
//
//  * Negatives: one hand-corrupted plan per check class — bad projection
//    index, dangling pred_attrs, cyclic child pointers, bogus
//    maintainable, malformed predicate register program (standalone and
//    stored on a plan node), missing stored program, uncovered parameter
//    slots, wrong scanned_rels / uses_dom, catalog mismatch, out-of-range
//    (hash and unify) join keys, unresolved batch_size —
//    each rejected with a kInternal diagnostic naming the offending node
//    by its root path.

#include "eval/verify.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algebra/builder.h"
#include "approx/approx.h"
#include "eval/batch.h"
#include "eval/eval.h"
#include "eval/plan.h"
#include "tests/testing_util.h"
#include "tpch/tpch.h"

namespace incdb {

/// Write access to a compiled register program (friend of BatchPredicate)
/// so the negatives can plant each defect class Validate() must catch.
struct BatchPredicateTestPeer {
  static std::vector<BatchPredicate::Insn>& prog(BatchPredicate& bp) {
    return bp.prog_;
  }
  static uint32_t& n_regs(BatchPredicate& bp) { return bp.n_regs_; }
  static std::vector<size_t>& referenced(BatchPredicate& bp) {
    return bp.referenced_;
  }
};

namespace {

using testing_util::QueryZoo;
using testing_util::RandomDatabase;
using testing_util::RandomQueryGen;

constexpr EvalMode kModes[] = {EvalMode::kSetNaive, EvalMode::kBagNaive,
                               EvalMode::kSetSql};

std::vector<EvalOptions> ToggleMatrix() {
  EvalOptions all_on;
  EvalOptions all_off;
  all_off.enable_hash_join = false;
  all_off.enable_projection_fusion = false;
  all_off.enable_unify_index = false;
  all_off.enable_selection_pushdown = false;
  EvalOptions no_fusion;  // keeps σ/π separate but joins hashed
  no_fusion.enable_projection_fusion = false;
  return {all_on, all_off, no_fusion};
}

/// QueryZoo plus every sugar operator and the two operators the random
/// generator excludes (÷ and Dom).
std::vector<AlgPtr> SweepCorpus() {
  std::vector<AlgPtr> corpus = QueryZoo();
  AlgPtr r = Scan("R");
  AlgPtr s = Scan("S");
  AlgPtr t = Scan("T");
  corpus.push_back(Join(r, s, CEq("R_b", "S_a")));
  corpus.push_back(Semijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(Antijoin(r, s, CEq("R_a", "S_a")));
  corpus.push_back(
      InPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue()));
  corpus.push_back(
      NotInPredicate(Project(r, {"R_a"}), t, {"R_a"}, {"T_a"}, CTrue()));
  corpus.push_back(AntijoinUnify(r, s));
  corpus.push_back(Distinct(Project(r, {"R_a"})));
  corpus.push_back(Division(r, Rename(Project(s, {"S_b"}), {"R_b"})));
  corpus.push_back(Diff(DomK({"R_a"}), Project(r, {"R_a"})));
  // Pushdown and disjunctive (NLJoin) join shapes.
  corpus.push_back(Select(Product(r, Rename(s, {"S_x", "S_y"})),
                          CAnd(CEq("R_b", "S_x"),
                               CNeqc("R_a", Value::Int(1)))));
  corpus.push_back(Project(
      Select(Product(r, Rename(s, {"S_x", "S_y"})),
             COr(CEq("R_b", "S_x"), CIsNull("S_y"))),
      {"R_a", "S_y"}));
  return corpus;
}

PlanPtr MustCompile(const AlgPtr& q, const Database& db,
                    EvalMode mode = EvalMode::kSetNaive,
                    const EvalOptions& opts = {}) {
  auto plan = Compile(q, mode, opts, db);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : nullptr;
}

/// Re-roots a copied plan so only the planted defect trips the verifier.
Plan WithRoot(const Plan& base, PhysPtr root) {
  Plan p = base;
  p.root = std::move(root);
  return p;
}

void ExpectRejected(const Plan& plan, const Database* db,
                    const std::string& needle) {
  Status st = VerifyPlan(plan, db);
  ASSERT_FALSE(st.ok()) << "verifier accepted a corrupted plan (wanted: "
                        << needle << ")";
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("plan verifier"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("root"), std::string::npos)
      << "diagnostic lacks a node path: " << st.message();
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.message();
}

// ---------------------------------------------------------------------------
// Zero-findings sweeps.
// ---------------------------------------------------------------------------

TEST(VerifySweep, ZooAndSugarAcrossModesAndToggles) {
  std::mt19937_64 rng(7);
  Database db = RandomDatabase(rng);
  std::vector<AlgPtr> corpus = SweepCorpus();
  size_t verified = 0;
  for (EvalMode mode : kModes) {
    for (const EvalOptions& opts : ToggleMatrix()) {
      for (const AlgPtr& q : corpus) {
        auto plan = Compile(q, mode, opts, db);
        if (!plan.ok()) continue;  // ÷ is unsupported under EvalSql etc.
        Status st = VerifyPlan(*plan, &db);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ++verified;
      }
    }
  }
  // Most of the corpus compiles in most configurations; a regression that
  // silently skips the sweep would trip this floor.
  EXPECT_GE(verified, corpus.size() * 6);
}

TEST(VerifySweep, RandomQueriesZeroFindings) {
  std::mt19937_64 rng(20260808);
  Database db = RandomDatabase(rng);
  RandomQueryGen gen(rng);
  std::vector<EvalOptions> toggles = ToggleMatrix();
  for (int i = 0; i < 150; ++i) {
    AlgPtr q = gen.Gen(1 + i % 4);
    auto plan = Compile(q, kModes[i % 3], toggles[i % toggles.size()], db);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Status st = VerifyPlan(*plan, &db);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(VerifySweep, ParamTemplatesBeforeAndAfterBinding) {
  std::mt19937_64 rng(11);
  Database db = RandomDatabase(rng);
  std::vector<AlgPtr> templates;
  templates.push_back(Select(Scan("R"), CEqc("R_a", Value::Param(0))));
  templates.push_back(Select(Scan("R"), COr(CEqc("R_a", Value::Param(0)),
                                            CNeqc("R_b", Value::Param(1)))));
  templates.push_back(Join(Scan("R"), Scan("S"),
                           CAnd(CEq("R_b", "S_a"),
                                CGec("S_b", Value::Param(0)))));
  for (const AlgPtr& q : templates) {
    for (EvalMode mode : kModes) {
      PlanPtr plan = MustCompile(q, db, mode);
      ASSERT_NE(plan, nullptr);
      EXPECT_GE(plan->param_count, 1u);
      Status st = VerifyPlan(plan, &db);
      ASSERT_TRUE(st.ok()) << st.ToString();
      auto bound = BindPlanParams(plan, {Value::Int(1), Value::Int(2)});
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ((*bound)->param_count, 0u);
      st = VerifyPlan(*bound, &db);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }
}

/// A small TPC-H-lite instance with nulls in every nullable column.
Database TpchWithNulls() {
  tpch::GenOptions gen;
  gen.scale = 0.1;
  gen.null_rate = 0.05;
  return tpch::Generate(gen);
}

TEST(VerifySweep, WorkloadApproxPlansZeroFindings) {
  Database db = TpchWithNulls();
  size_t verified = 0;
  for (const tpch::BenchQuery& bq : tpch::Workload()) {
    for (bool plus : {true, false}) {
      auto q = plus ? TranslatePlus(bq.algebra, db)
                    : TranslateMaybe(bq.algebra, db);
      ASSERT_TRUE(q.ok()) << bq.name << ": " << q.status().ToString();
      for (EvalMode mode : kModes) {
        for (const EvalOptions& opts : ToggleMatrix()) {
          auto plan = Compile(*q, mode, opts, db);
          ASSERT_TRUE(plan.ok()) << bq.name << ": " << plan.status().ToString();
          Status st = VerifyPlan(*plan, &db);
          ASSERT_TRUE(st.ok()) << bq.name << ": " << st.ToString();
          ++verified;
        }
      }
    }
  }
  EXPECT_EQ(verified, tpch::Workload().size() * 2 * 3 * ToggleMatrix().size());
}

TEST(VerifySweep, CTableLoweringsVerify) {
  std::mt19937_64 rng(13);
  Database db = RandomDatabase(rng);
  for (const AlgPtr& q : QueryZoo()) {
    auto plan = CompileForCTables(q, db);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE((*plan)->for_ctables);
    EXPECT_FALSE((*plan)->maintainable);
    Status st = VerifyPlan(*plan, &db);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(VerifyWiring, RuntimeToggleMatchesEnvironment) {
  const char* env = std::getenv("INCDB_VERIFY_PLANS");
  bool expect = env == nullptr || std::string(env) != "0";
  EXPECT_EQ(PlanVerificationEnabled(), expect);
}

TEST(VerifyWiring, NullPlanRejected) {
  Status st = VerifyPlan(PlanPtr{});
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Negatives: one corrupted plan per check class.
// ---------------------------------------------------------------------------

TEST(VerifyNegative, ProjectionIndexOutOfRange) {
  std::mt19937_64 rng(1);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Project(Scan("R"), {"R_a"}), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kProject);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->proj_pos = {5};
  ExpectRejected(WithRoot(*plan, bad), &db, "out of range");
}

TEST(VerifyNegative, ProjectionNameMismatch) {
  std::mt19937_64 rng(1);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Project(Scan("R"), {"R_a"}), db);
  ASSERT_NE(plan, nullptr);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->proj_pos = {1};  // position 1 is R_b, output schema says R_a
  ExpectRejected(WithRoot(*plan, bad), &db, "names input position");
}

TEST(VerifyNegative, DanglingPredAttrs) {
  std::mt19937_64 rng(2);
  Database db = RandomDatabase(rng);
  // A parameterised condition must record the exact input schema.
  PlanPtr tmpl =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Param(0))), db);
  ASSERT_NE(tmpl, nullptr);
  ASSERT_EQ(tmpl->root->op, PhysOp::kFilterSel);
  auto bad = std::make_shared<PhysNode>(*tmpl->root);
  bad->pred_attrs = {"bogus"};
  ExpectRejected(WithRoot(*tmpl, bad), &db, "pred_attrs");

  // ...and a parameter-free condition must not record one at all (a bound
  // plan that kept its template's pred_attrs would be re-bound wrongly).
  PlanPtr plain =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Int(0))), db);
  ASSERT_NE(plain, nullptr);
  auto stale = std::make_shared<PhysNode>(*plain->root);
  stale->pred_attrs = {"R_a", "R_b"};
  ExpectRejected(WithRoot(*plain, stale), &db, "parameter-free");
}

TEST(VerifyNegative, CondReferencesUnknownAttribute) {
  std::mt19937_64 rng(2);
  Database db = RandomDatabase(rng);
  PlanPtr plan =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Int(0))), db);
  ASSERT_NE(plan, nullptr);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->cond = CEq("R_a", "ghost");
  ExpectRejected(WithRoot(*plan, bad), &db, "outside the input schema");
}

TEST(VerifyNegative, CyclicShare) {
  auto a = std::make_shared<PhysNode>();
  auto b = std::make_shared<PhysNode>();
  a->op = PhysOp::kDistinct;
  a->attrs = {"x"};
  b->op = PhysOp::kDistinct;
  b->attrs = {"x"};
  a->left = b;
  b->left = a;  // the cycle
  Plan plan;
  plan.root = a;
  plan.mode = EvalMode::kSetNaive;
  Status st = VerifyPlan(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("root"), std::string::npos) << st.message();
  // Break the cycle so the shared_ptr pair can be reclaimed (keeps the
  // LeakSanitizer job quiet).
  a->left = nullptr;
}

TEST(VerifyNegative, BogusMaintainable) {
  std::mt19937_64 rng(3);
  Database db = RandomDatabase(rng);
  // Difference is outside the delta-propagation subset.
  PlanPtr diff = MustCompile(Diff(Scan("R"), Scan("S")), db);
  ASSERT_NE(diff, nullptr);
  ASSERT_FALSE(diff->maintainable);
  Plan lying = *diff;
  lying.maintainable = true;
  ExpectRejected(lying, &db, "maintainable set");

  // A plain scan is maintainable; claiming otherwise is also a defect.
  PlanPtr scan = MustCompile(Scan("R"), db);
  ASSERT_NE(scan, nullptr);
  ASSERT_TRUE(scan->maintainable);
  Plan denying = *scan;
  denying.maintainable = false;
  ExpectRejected(denying, &db, "maintainable unset");

  // C-table lowerings are never maintainable, whatever their operators.
  auto ct = CompileForCTables(Scan("R"), db);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  Plan ct_lying = **ct;
  ct_lying.maintainable = true;
  ExpectRejected(ct_lying, &db, "maintainable set");
}

TEST(VerifyNegative, MalformedPredicateProgram) {
  const std::vector<std::string> attrs = {"a", "b"};
  CondPtr cond = CAnd(CEqc("a", Value::Int(1)), CNeqc("b", Value::Int(2)));
  auto make = [&] {
    auto bp = BatchPredicate::Make(cond, attrs, CondMode::kNaive);
    EXPECT_TRUE(bp.ok()) << bp.status().ToString();
    return *bp;
  };
  {
    BatchPredicate bp = make();
    ASSERT_TRUE(bp.Validate(attrs.size()).ok());
  }
  {  // Connective breaking the postorder stack discipline.
    BatchPredicate bp = make();
    auto& prog = BatchPredicateTestPeer::prog(bp);
    ASSERT_EQ(prog.back().kind, CondKind::kAnd);
    prog.back().dst = 1;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("stack discipline"), std::string::npos)
        << st.message();
  }
  {  // Connective with an empty stack.
    BatchPredicate bp = make();
    auto& prog = BatchPredicateTestPeer::prog(bp);
    prog.erase(prog.begin(), prog.begin() + 2);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("underflow"), std::string::npos)
        << st.message();
  }
  {  // Column operand past the input arity.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].col = 9;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out of range"), std::string::npos)
        << st.message();
  }
  {  // Unbound parameter left in a constant operand.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].constant = Value::Param(0);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("parameter"), std::string::npos)
        << st.message();
  }
  {  // Register count disagreeing with the program's stack depth.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::n_regs(bp) = 7;
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("register count"), std::string::npos)
        << st.message();
  }
  {  // Dangling value left on the stack (no combining connective).
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp).pop_back();
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("on the register stack"), std::string::npos)
        << st.message();
  }
  {  // Opcode outside the interpreter's dispatch table.
    BatchPredicate bp = make();
    BatchPredicateTestPeer::prog(bp)[0].kind = static_cast<CondKind>(0xEE);
    Status st = bp.Validate(attrs.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("unknown opcode"), std::string::npos)
        << st.message();
  }
}

TEST(VerifyNegative, ParamCountDoesNotCoverCondition) {
  std::mt19937_64 rng(4);
  Database db = RandomDatabase(rng);
  PlanPtr plan =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Param(1))), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->param_count, 2u);
  Plan bad = *plan;
  bad.param_count = 0;
  ExpectRejected(bad, &db, "param_count is 0");
}

TEST(VerifyNegative, WrongScannedRels) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")), db);
  ASSERT_NE(plan, nullptr);
  Plan missing = *plan;
  missing.scanned_rels = {"R"};
  ExpectRejected(missing, &db, "scanned_rels");
  Plan phantom = *plan;
  phantom.scanned_rels = {"R", "S", "Z"};
  ExpectRejected(phantom, &db, "scanned_rels");
}

TEST(VerifyNegative, UsesDomFlagDisagrees) {
  std::mt19937_64 rng(5);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  Plan bad = *plan;
  bad.uses_dom = true;
  ExpectRejected(bad, &db, "uses_dom");
}

TEST(VerifyNegative, CatalogMismatch) {
  std::mt19937_64 rng(8);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  // Same relation name, different schema.
  Database reshaped;
  reshaped.Put("R", Relation({"R_a", "R_b", "R_c"}).ToSet());
  ExpectRejected(*plan, &reshaped, "catalog schema");
  // Relation dropped entirely.
  Database empty;
  ExpectRejected(*plan, &empty, "not in the catalog");
}

TEST(VerifyNegative, JoinKeyOutOfRange) {
  std::mt19937_64 rng(9);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Join(Scan("R"), Scan("S"), CEq("R_b", "S_a")), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kHashJoin);
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->lkeys = {9};
  ExpectRejected(WithRoot(*plan, bad), &db, "out of range");
  auto keyless = std::make_shared<PhysNode>(*plan->root);
  keyless->lkeys.clear();
  keyless->rkeys.clear();
  ExpectRejected(WithRoot(*plan, keyless), &db, "without key columns");
}

TEST(VerifyNegative, UnifyJoinKeyOutOfRange) {
  Database db = TpchWithNulls();
  AlgPtr w4;
  for (const tpch::BenchQuery& bq : tpch::Workload()) {
    if (bq.name.rfind("W4", 0) == 0) w4 = bq.algebra;
  }
  ASSERT_NE(w4, nullptr);
  auto maybe = TranslateMaybe(w4, db);
  ASSERT_TRUE(maybe.ok()) << maybe.status().ToString();
  PlanPtr plan = MustCompile(*maybe, db);
  ASSERT_NE(plan, nullptr);
  // W4's Q? is UnifyJoin(UnifyJoin(customer, orders), nation): corrupt the
  // inner join, whose diagnostic must name it by its path.
  ASSERT_EQ(plan->root->op, PhysOp::kUnifyJoin) << PlanToString(*plan);
  ASSERT_EQ(plan->root->left->op, PhysOp::kUnifyJoin) << PlanToString(*plan);
  auto inner = std::make_shared<PhysNode>(*plan->root->left);
  inner->rkeys = {99};
  auto root = std::make_shared<PhysNode>(*plan->root);
  root->left = inner;
  ExpectRejected(WithRoot(*plan, root), &db, "root.left (UnifyJoin)");
  ExpectRejected(WithRoot(*plan, root), &db, "right key position 99");
  auto two_keys = std::make_shared<PhysNode>(*plan->root);
  two_keys->lkeys.push_back(0);
  two_keys->rkeys.push_back(0);
  ExpectRejected(WithRoot(*plan, two_keys), &db, "exactly one key per side");
}

TEST(VerifyNegative, UnresolvedBatchSize) {
  std::mt19937_64 rng(10);
  Database db = RandomDatabase(rng);
  PlanPtr plan = MustCompile(Scan("R"), db);
  ASSERT_NE(plan, nullptr);
  Plan bad = *plan;
  bad.opts.batch_size = 0;
  ExpectRejected(bad, &db, "root: EvalOptions::batch_size was not resolved");
}

TEST(VerifyNegative, FilterWithoutStoredProgram) {
  std::mt19937_64 rng(12);
  Database db = RandomDatabase(rng);
  // A filter under a rename: the diagnostic must name the inner node.
  PlanPtr plan = MustCompile(
      Rename(Select(Scan("R"), CNeqc("R_a", Value::Int(1))), {"x", "y"}), db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kRename) << PlanToString(*plan);
  ASSERT_EQ(plan->root->left->op, PhysOp::kFilterSel) << PlanToString(*plan);
  ASSERT_NE(plan->root->left->batch_pred, nullptr);
  auto filter = std::make_shared<PhysNode>(*plan->root->left);
  filter->batch_pred = nullptr;
  auto root = std::make_shared<PhysNode>(*plan->root);
  root->left = filter;
  ExpectRejected(WithRoot(*plan, root), &db,
                 "root.left (FilterSel): missing columnar predicate program");

  // A template's parameterised filter carries no program until binding.
  PlanPtr tmpl =
      MustCompile(Select(Scan("R"), CEqc("R_a", Value::Param(0))), db);
  ASSERT_NE(tmpl, nullptr);
  EXPECT_EQ(tmpl->root->batch_pred, nullptr);
  auto early = std::make_shared<PhysNode>(*tmpl->root);
  early->batch_pred = plan->root->left->batch_pred;
  ExpectRejected(WithRoot(*tmpl, early), &db, "compiled before binding");

  // A condition-free operator carries none either.
  auto project = std::make_shared<PhysNode>(*MustCompile(
      Project(Scan("R"), {"R_a"}), db)->root);
  ASSERT_EQ(project->op, PhysOp::kProject);
  project->batch_pred = plan->root->left->batch_pred;
  PlanPtr proj_plan = MustCompile(Project(Scan("R"), {"R_a"}), db);
  ExpectRejected(WithRoot(*proj_plan, project), &db,
                 "unexpected columnar predicate program");
}

TEST(VerifyNegative, CorruptedStoredProgram) {
  std::mt19937_64 rng(12);
  Database db = RandomDatabase(rng);
  // The join's residual R_a ≠ S_b is parameter-free: its stored program is
  // what the verifier validates (it compiles no copy of its own).
  PlanPtr plan = MustCompile(
      Project(Join(Scan("R"), Scan("S"),
                   CAnd(CEq("R_b", "S_a"), CNeq("R_a", "S_b"))),
              {"R_a"}),
      db);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->root->op, PhysOp::kHashJoin) << PlanToString(*plan);
  ASSERT_NE(plan->root->batch_pred, nullptr);
  ASSERT_TRUE(plan->root->batch_pred->Validate(4).ok());
  auto program = std::make_shared<BatchPredicate>(*plan->root->batch_pred);
  BatchPredicateTestPeer::prog(*program)[0].col = 9;
  auto bad = std::make_shared<PhysNode>(*plan->root);
  bad->batch_pred = program;
  ExpectRejected(WithRoot(*plan, bad), &db,
                 "root (HashJoin): malformed predicate program");

  // Same defect one level down, on a filter feeding the join.
  PlanPtr filtered = MustCompile(
      Join(Select(Scan("R"), COr(CEqc("R_a", Value::Int(0)), CIsNull("R_b"))),
           Scan("S"), CEq("R_b", "S_a")),
      db);
  ASSERT_NE(filtered, nullptr);
  ASSERT_EQ(filtered->root->op, PhysOp::kHashJoin) << PlanToString(*filtered);
  ASSERT_EQ(filtered->root->left->op, PhysOp::kFilterSel)
      << PlanToString(*filtered);
  auto filter_prog =
      std::make_shared<BatchPredicate>(*filtered->root->left->batch_pred);
  BatchPredicateTestPeer::n_regs(*filter_prog) = 7;
  auto filter = std::make_shared<PhysNode>(*filtered->root->left);
  filter->batch_pred = filter_prog;
  auto root = std::make_shared<PhysNode>(*filtered->root);
  root->left = filter;
  ExpectRejected(WithRoot(*filtered, root), &db,
                 "root.left (FilterSel): malformed predicate program");
}

}  // namespace
}  // namespace incdb
