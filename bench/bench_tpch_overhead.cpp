// Experiment E3 (paper §4.2, the PODS'16 feasibility study [37] on TPC-H):
// the Q+ rewriting's performance overhead over the original queries was a
// 1–4% slowdown in the DBMS study. We regenerate the experiment's shape on
// the TPC-H-lite workload: per query, time the original (naive) evaluation
// vs the rewritten Q+ and report the relative overhead.

#include <string>

#include "approx/approx.h"
#include "bench/bench_util.h"
#include "eval/eval.h"
#include "tpch/tpch.h"

using namespace incdb;  // NOLINT

INCDB_BENCH(tpch_overhead) {
  bench::Header(
      "E3", "Q+ rewriting overhead on the TPC-H-like workload ([37])",
      "\"performance overhead of the rewritten queries is limited to a "
      "slowdown of 1-4% w.r.t. the original SQL queries\" (commercial "
      "DBMS, TPC-H; our substrate is incdb's own evaluator, so absolute "
      "numbers differ — the claim's shape is a small constant-factor "
      "overhead).");

  tpch::GenOptions opts;
  opts.scale = 2.0;
  opts.null_rate = 0.02;
  opts.seed = 7;
  Database db = tpch::Generate(opts);
  std::printf("instance: %llu tuples, %zu nulls\n\n",
              static_cast<unsigned long long>(db.TotalSize()),
              db.NullIds().size());

  std::printf("%-24s %12s %12s %12s %10s\n", "query", "orig ms", "Q+ ms",
              "Q? ms", "Q+ ovh %");
  double worst_ratio = 0.0;
  double worst_maybe_ratio = 0.0;  // informational: not part of the shape
  bool all_ok = true;
  for (const tpch::BenchQuery& bq : tpch::Workload()) {
    auto plus_q = TranslatePlus(bq.algebra, db);
    auto maybe_q = TranslateMaybe(bq.algebra, db);
    if (!plus_q.ok() || !maybe_q.ok()) {
      std::printf("%-24s translation failed\n", bq.name.c_str());
      all_ok = false;
      continue;
    }
    bool ok = true;
    double t_orig = ctx.TimeMs([&] { ok &= EvalSet(bq.algebra, db).ok(); });
    double t_plus = ctx.TimeMs([&] { ok &= EvalSet(*plus_q, db).ok(); });
    double t_maybe = ctx.TimeMs([&] { ok &= EvalSet(*maybe_q, db).ok(); });
    all_ok &= ok;
    double ovh = t_orig > 0 ? (t_plus / t_orig - 1.0) * 100.0 : 0.0;
    worst_ratio = std::max(worst_ratio, t_plus / std::max(t_orig, 1e-9));
    worst_maybe_ratio =
        std::max(worst_maybe_ratio, t_maybe / std::max(t_orig, 1e-9));
    std::printf("%-24s %12.2f %12.2f %12.2f %9.1f%%\n", bq.name.c_str(),
                t_orig, t_plus, t_maybe, ovh);
    ctx.Report("tpch_query", t_plus)
        .Param("query", bq.name)
        .Param("orig_ms", t_orig)
        .Param("maybe_ms", t_maybe)
        .Param("overhead_pct", ovh)
        .Param("scale", opts.scale);
  }

  // Shape: the rewriting stays within a small constant factor (we allow
  // 3× here — far from the Dom-product explosion of scheme (a), and in
  // line with "feasible on a real workload"; the paper's 1–4% relies on a
  // cost-based optimizer we do not reproduce).
  bool shape = all_ok && worst_ratio < 3.0;
  bench::Footer(shape,
                ("worst Q+/original time ratio " +
                 std::to_string(worst_ratio).substr(0, 4) +
                 "x — constant-factor overhead, no blow-up on any of the "
                 "8 workload queries (worst Q?/original " +
                 std::to_string(worst_maybe_ratio).substr(0, 4) + "x)")
                    .c_str());
  ctx.ReportInfo("tpch_shape")
      .Param("shape_holds", shape)
      .Param("worst_ratio", worst_ratio)
      .Param("worst_maybe_ratio", worst_maybe_ratio);
  if (!shape) ctx.SetFailed();
}
