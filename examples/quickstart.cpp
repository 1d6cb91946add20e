// Quickstart: the Session facade end to end — build an incomplete
// database, prepare one parameterized SQL query, execute it under
// different bindings and disciplines, stream it through a cursor, inspect
// the plan with EXPLAIN, and ask for certain-answer approximations.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "api/session.h"

using namespace incdb;  // NOLINT — example brevity

int main() {
  // An incomplete database: employees, and orders where one price is
  // unknown (the marked null ⊥1).
  Database db;
  Relation emp({"name"});
  emp.Add({Value::String("ann")});
  emp.Add({Value::String("bob")});
  emp.Add({Value::String("eve")});
  Relation orders({"who", "price"});
  orders.Add({Value::String("ann"), Value::Int(30)});
  orders.Add({Value::String("bob"), Value::Null(1)});  // price unknown
  db.Put("Emp", std::move(emp));
  db.Put("Orders", std::move(orders));

  // A session owns the database, the evaluation options and a private
  // plan cache. All queries go through it.
  Session sess(std::move(db));
  std::printf("Database:\n%s\n", sess.db().ToString().c_str());

  // Prepare once: `?` is a parameter placeholder. The query compiles to a
  // single cached plan template shared by every binding below.
  auto pq = sess.Prepare("SELECT who FROM Orders WHERE price > ?");
  if (!pq.ok()) {
    std::printf("prepare failed: %s\n", pq.status().ToString().c_str());
    return 1;
  }

  // Execute many: each call binds the placeholder and runs the same plan.
  for (int64_t threshold : {10, 30, 100}) {
    auto r = pq->Execute({Value::Int(threshold)});
    if (!r.ok()) continue;
    std::printf("price > %-3lld (SQL 3VL): %s\n",
                static_cast<long long>(threshold), r->ToString().c_str());
  }
  std::printf(
      "(bob's unknown price compares 'unknown' under SQL's 3VL, so bob\n"
      "never appears — exactly what a SQL engine would do.)\n\n");

  // EXPLAIN: the compiled operator tree plus the session cache counters —
  // note misses=1: all three executions shared one compile.
  std::printf("%s\n", pq->Explain().c_str());

  // Streaming cursor: rows are delivered one at a time, while the root
  // filter chain runs over small windows of base rows (batch_size 1 is
  // row-at-a-time); stop whenever you have enough.
  auto cur = pq->OpenCursor({Value::Int(10)});
  if (cur.ok()) {
    std::printf("cursor (streaming=%s):", cur->streaming() ? "yes" : "no");
    while (cur->Next()) {
      std::printf(" %s", cur->row().ToString().c_str());
    }
    std::printf("\n\n");
  }

  // The other disciplines ride the same facade: naive set evaluation
  // treats ⊥1 as a fresh constant.
  auto naive = sess.Prepare("SELECT who FROM Orders WHERE price > ?",
                            EvalMode::kSetNaive);
  if (naive.ok()) {
    auto r = naive->Execute({Value::Int(10)});
    if (r.ok()) std::printf("naive evaluation: %s\n", r->ToString().c_str());
  }

  // Certain answers: employees with no order (relational difference).
  // Q+ under-approximates (sound), Q? over-approximates (complete), and
  // the exact cert⊥ is the brute-force ground truth.
  AlgPtr q = Diff(Scan("Emp"),
                  Project(Rename(Scan("Orders"), {"name", "price"}), {"name"}));
  auto plus = sess.CertainPlus(q);
  auto maybe = sess.CertainMaybe(q);
  auto cert = sess.CertainWithNulls(q);
  if (plus.ok() && maybe.ok() && cert.ok()) {
    std::printf("\nEmployees with no order, Q = %s\n", q->ToString().c_str());
    std::printf("certain   (Q+) : %s\n", plus->ToString().c_str());
    std::printf("possible  (Q?) : %s\n", maybe->ToString().c_str());
    std::printf("exact cert⊥    : %s\n", cert->ToString().c_str());
  }

  SessionStats stats = sess.stats();
  std::printf(
      "\nSession: %llu prepares, %llu executes, %llu cursors; plan cache "
      "%llu hit(s) / %llu miss(es)\n",
      static_cast<unsigned long long>(stats.prepares),
      static_cast<unsigned long long>(stats.executes),
      static_cast<unsigned long long>(stats.cursors_opened),
      static_cast<unsigned long long>(stats.plan_cache.hits),
      static_cast<unsigned long long>(stats.plan_cache.misses));
  return 0;
}
