// The repository benchmark: one workload per process, one client thread,
// closed loop, through the public Session facade.
//
//   perfbench --workload adhoc_sql|certain_approx|serve_update
//             --seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]
//
// --trace 0 sets up the workload five times (reporting the median set-up
// time), then runs its seeded operation stream for S seconds and reports
// the end-to-end metrics. --trace 1 runs a fixed prefix of the same
// stream untraced, replays it through each layer's public entry points
// with spans (perfbench/traced.h), checks that both runs produced the same
// results, and reports the per-layer metrics (spans go to PATH). Lines
// for people start with '#'; the last line is one JSON object. The
// process exits 1 when any output check fails and 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/traced.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using incdb::Database;
using incdb::Relation;
using incdb::Status;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in print order, each printed on a '#' line as it is added.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("# %-40s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
                note.empty() ? "" : "  ", note.c_str());
  }
  /// A metric that does not apply to this workload: printed, not reported.
  void NotApplicable(const std::string& name, const std::string& unit) {
    std::printf("# %-40s n/a %s\n", name.c_str(), unit.c_str());
  }
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Failure bookkeeping shared by the checks. A non-OK status and a wrong
/// result both count as a failed operation.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Fail(const Op& op, const std::string& why) {
    ++failed;
    if (failed <= 5) {
      std::printf("# FAILED op %llu (query %zu): %s\n",
                  static_cast<unsigned long long>(op.id), op.query,
                  why.c_str());
    }
  }
};

/// One set-up of the workload: data generation, Session, Prepare and the
/// warm-up operations. certain_approx keeps the warm-up cycle's digests as
/// the reference every later cycle must reproduce.
struct Setup {
  std::unique_ptr<OpStream> stream;
  std::unique_ptr<SessionRunner> runner;
  std::vector<std::vector<uint64_t>> ref_digest;  // [query][variant]
};

bool DoSetup(const Spec& spec, Setup* s) {
  Database db = MakeData(spec);
  s->stream = std::make_unique<OpStream>(spec, db);
  auto runner = SessionRunner::Make(spec, std::move(db));
  if (!runner.ok()) {
    std::printf("# set-up failed: %s\n", runner.status().ToString().c_str());
    return false;
  }
  s->runner = std::move(*runner);
  s->ref_digest.assign(spec.templates.size(),
                       std::vector<uint64_t>(kVariants, 0));
  for (const Op& op : s->stream->Warmup()) {
    OpResult r = s->runner->Run(op);
    if (!r.status.ok()) {
      std::printf("# warm-up failed: %s\n", r.status.ToString().c_str());
      return false;
    }
    if (spec.id == WorkloadId::kCertainApprox) {
      s->ref_digest[op.query][static_cast<size_t>(op.variant)] =
          Digest(*r.rel);
    }
  }
  return true;
}

/// Per-operation output checks of the untraced run (outside the timed
/// region). `last_plus` keeps certain_approx's latest Q+ per query.
void CheckOp(const Spec& spec, const Setup& s, const Op& op,
             const OpResult& r, std::vector<std::optional<Relation>>* last_plus,
             Outcome* out) {
  if (!r.status.ok()) {
    out->Fail(op, r.status.ToString());
    return;
  }
  if (op.commit || !op.check) return;
  if (spec.id == WorkloadId::kCertainApprox) {
    const size_t v = static_cast<size_t>(op.variant);
    if (Digest(*r.rel) != s.ref_digest[op.query][v]) {
      out->Fail(op, "result differs from the set-up result");
    }
    if (op.variant == Variant::kPlus) (*last_plus)[op.query] = *r.rel;
    if (op.variant == Variant::kMaybe && (*last_plus)[op.query] &&
        !SubsetOf(*(*last_plus)[op.query], *r.rel)) {
      out->Fail(op, "Q+ is not contained in Q?");
    }
    return;
  }
  Database snap = s.runner->session().db().Snapshot();
  auto cold = ColdRecompute(spec, op, snap);
  if (!cold.ok()) {
    out->Fail(op, "cold recompute: " + cold.status().ToString());
  } else if (!cold->SameRows(*r.rel)) {
    out->Fail(op, "result differs from a cold recompute");
  }
}

void PrintHeader(const Spec& spec, double seconds, int trace) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%g null_rate=%g clients=1 loop=closed\n",
              WorkloadName(spec.id),
              static_cast<unsigned long long>(spec.seed), seconds, trace,
              spec.gen.scale, spec.gen.null_rate);
}

/// Throughput is the median over windows of at least kWindowSeconds of
/// operation time, each holding whole cycles of the workload's mix: a
/// burst of load from other processes slows a few windows, not the figure.
constexpr double kWindowSeconds = 0.5;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Operation time between two host-speed probes (taken at cycle starts).
constexpr double kProbeEverySeconds = 0.1;

/// The timings the JSON reports are the process's CPU time (the client
/// thread waits for nothing but the library, so on a core of its own this
/// is its wall time), scaled to the reference host speed by the probes
/// taken around them (perfbench/probe.h). Wall times as this host ran
/// them are printed on '#' lines as raw.*.
int RunUntraced(const Spec& spec, double seconds) {
  Outcome out;
  SpeedProbe probe;
  std::vector<double> setup_s, raw_setup_s, speeds;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};  // release the previous set-up before timing the next
    const double before = probe.MeasureMs();
    const auto t0 = Clock::now();
    const double c0 = ProcessCpuMs();
    if (!DoSetup(spec, &s)) return 1;
    const double cpu_s = (ProcessCpuMs() - c0) / 1e3;
    raw_setup_s.push_back(Seconds(t0, Clock::now()));
    const double probe_ms = (before + probe.MeasureMs()) / 2;
    setup_s.push_back(cpu_s * SpeedProbe::ReferenceMs() / probe_ms);
  }

  std::vector<double> read_ms, commit_ms, window_tput;
  std::vector<double> raw_read_ms, raw_window_tput;
  // The current window: its operations' CPU times and its probes.
  std::vector<double> win_read_ms, win_commit_ms, win_probe_ms;
  double window_cpu_s = 0, window_wall_s = 0, since_probe_s = 0;
  uint64_t window_ops = 0;
  auto close_window = [&](bool whole) {
    win_probe_ms.push_back(probe.MeasureMs());
    const double speed =
        SpeedProbe::ReferenceMs() / Percentile(win_probe_ms, 0.5);
    speeds.push_back(speed);
    for (double ms : win_read_ms) read_ms.push_back(ms * speed);
    for (double ms : win_commit_ms) commit_ms.push_back(ms * speed);
    if (whole || window_tput.empty()) {
      const double ops = static_cast<double>(window_ops);
      window_tput.push_back(ops / (window_cpu_s * speed));
      raw_window_tput.push_back(ops / window_wall_s);
    }
    // The probe that closes a window also opens the next.
    win_probe_ms.erase(win_probe_ms.begin(), win_probe_ms.end() - 1);
    win_read_ms.clear();
    win_commit_ms.clear();
    window_cpu_s = window_wall_s = since_probe_s = 0;
    window_ops = 0;
  };
  std::vector<double> variant_ms(kVariants, 0.0);
  std::vector<std::vector<double>> per_template(spec.templates.size() *
                                               kVariants);
  std::vector<std::optional<Relation>> last_plus(spec.templates.size());
  win_probe_ms.push_back(probe.MeasureMs());
  const auto start = Clock::now();
  while (Seconds(start, Clock::now()) < seconds || !s.stream->AtCycleStart()) {
    if (s.stream->AtCycleStart() && since_probe_s >= kProbeEverySeconds) {
      win_probe_ms.push_back(probe.MeasureMs());
      since_probe_s = 0;
    }
    const Op op = s.stream->Next();
    const auto t0 = Clock::now();
    const double c0 = ProcessCpuMs();
    const OpResult r = s.runner->Run(op);
    const double ms = ProcessCpuMs() - c0;
    const double wall_s = Seconds(t0, Clock::now());
    ++out.attempted;
    window_cpu_s += ms / 1e3;
    window_wall_s += wall_s;
    since_probe_s += ms / 1e3;
    if (r.status.ok()) ++window_ops;
    if (op.commit) {
      win_commit_ms.push_back(ms);
    } else {
      win_read_ms.push_back(ms);
      raw_read_ms.push_back(wall_s * 1e3);
      per_template[op.query * kVariants + static_cast<size_t>(op.variant)]
          .push_back(ms);
      if (!op.repeat) variant_ms[static_cast<size_t>(op.variant)] += ms;
    }
    CheckOp(spec, s, op, r, &last_plus, &out);
    if (window_wall_s >= kWindowSeconds && s.stream->AtCycleStart()) {
      close_window(true);
    }
  }
  if (window_wall_s > 0) close_window(false);
  if (spec.id == WorkloadId::kServeUpdate) {
    // Final check: every hot result as served equals a cold recompute.
    for (size_t t = 0; t < spec.templates.size(); ++t) {
      for (const auto& b : spec.hot[t]) {
        Op op;
        op.id = ~0ULL;
        op.query = t;
        op.params = b;
        op.check = true;
        CheckOp(spec, s, op, s.runner->Run(op), &last_plus, &out);
      }
    }
  }

  PrintHeader(spec, seconds, 0);
  static const char* kVariantNames[] = {"", "/Q+", "/Q?"};
  for (size_t i = 0; i < per_template.size(); ++i) {
    if (per_template[i].empty()) continue;
    const std::string name =
        spec.templates[i / kVariants].name + kVariantNames[i % kVariants];
    std::printf("# template %-28s n=%zu p50=%.3f ms p99=%.3f ms (cpu)\n",
                name.c_str(), per_template[i].size(),
                Percentile(per_template[i], 0.5),
                Percentile(per_template[i], 0.99));
  }
  const incdb::SessionStats st = s.runner->session().stats();
  const uint64_t lookups = st.result_cache.hits + st.result_cache.misses;

  const std::string reads = "n=" + std::to_string(read_ms.size());
  // The same figures unscaled, as this host ran them.
  Report raw;
  raw.Add("host_speed", Percentile(speeds, 0.5), "ratio",
          "reference probe time / probe time, median of " +
              std::to_string(speeds.size()) + " windows");
  raw.Add("raw.setup_s", Percentile(raw_setup_s, 0.5), "s");
  raw.Add("raw.throughput_ops_s", Percentile(raw_window_tput, 0.5), "ops/s");
  raw.Add("raw.read_p50_ms", Percentile(raw_read_ms, 0.5), "ms", reads);
  raw.Add("raw.read_p99_ms", Percentile(raw_read_ms, 0.99), "ms", reads);
  Report rep;
  rep.Add("setup_s", Percentile(setup_s, 0.5), "s",
          "median of " + std::to_string(kSetups) + " set-ups");
  rep.Add("throughput_ops_s", Percentile(window_tput, 0.5), "ops/s",
          "median of " + std::to_string(window_tput.size()) + " windows");
  rep.Add("read_p50_ms", Percentile(read_ms, 0.5), "ms", reads);
  rep.Add("read_p99_ms", Percentile(read_ms, 0.99), "ms", reads);
  rep.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  // Workload-specific end-to-end figures, printed only (see README.md).
  Report extra;
  if (spec.id == WorkloadId::kServeUpdate) {
    const std::string commits = "n=" + std::to_string(commit_ms.size());
    extra.Add("commit_p50_ms", Percentile(commit_ms, 0.5), "ms", commits);
    extra.Add("commit_p99_ms", Percentile(commit_ms, 0.99), "ms", commits);
  } else {
    extra.NotApplicable("commit_p50_ms", "ms");
    extra.NotApplicable("commit_p99_ms", "ms");
  }
  if (spec.id == WorkloadId::kCertainApprox) {
    const double orig = variant_ms[0];
    extra.Add("qplus_overhead", variant_ms[1] / orig, "ratio",
              "sum Q+ time / sum original time");
    extra.Add("qmaybe_overhead", variant_ms[2] / orig, "ratio",
              "sum Q? time / sum original time");
  } else {
    extra.NotApplicable("qplus_overhead", "ratio");
    extra.NotApplicable("qmaybe_overhead", "ratio");
  }
  extra.Add("failed_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<uint64_t>(1, out.attempted)),
            "fraction",
            std::to_string(out.failed) + "/" + std::to_string(out.attempted));
  extra.Add("result_cache.hit_ratio",
            lookups ? static_cast<double>(st.result_cache.hits) /
                          static_cast<double>(lookups)
                    : 0.0,
            "fraction");
  rep.PrintJson(out.failed == 0, out.attempted, out.failed);
  return out.failed == 0 ? 0 : 1;
}

/// --trace 1: the first spec.trace_ops operations of the stream, each run
/// untraced through the Session and replayed through the layers with spans
/// on a second instance of the same data. The two runs alternate which
/// goes first, so both see the same load from other processes, and must
/// produce the same results.
int RunTraced(const Spec& spec, const std::string& spans_path) {
  Outcome out;
  Setup s;
  if (!DoSetup(spec, &s)) return 1;
  Database db = MakeData(spec);
  OpStream stream(spec, db);
  Tracer tracer;
  TracedRunner tr(spec, std::move(db), &tracer);
  if (Status st = tr.Prepare(); !st.ok()) {
    std::printf("# traced prepare failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const Op& op : stream.Warmup()) {
    if (!tr.Run(op).status.ok()) return 1;
  }
  const incdb::PlanCacheStats pc0 = tr.plan_cache_stats();
  const incdb::ResultCacheStats rc0 = tr.result_cache_stats();
  std::vector<std::optional<Relation>> last_plus(spec.templates.size());
  double untraced_s = 0;
  std::vector<double> untraced_ns(spec.trace_ops, 0.0);
  for (size_t i = 0; i < spec.trace_ops; ++i) {
    const Op op = s.stream->Next();
    const Op replay = stream.Next();
    OpResult r, t;
    auto untraced = [&] {
      const auto t0 = Clock::now();
      r = s.runner->Run(op);
      const double dt = Seconds(t0, Clock::now());
      untraced_s += dt;
      untraced_ns[i] = dt * 1e9;
    };
    auto traced = [&] {
      tracer.enabled = true;
      t = tr.Run(replay);
      tracer.enabled = false;
    };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    ++out.attempted;
    CheckOp(spec, s, op, r, &last_plus, &out);
    const auto digest = [](const OpResult& x) {
      return x.rel ? std::optional<uint64_t>(Digest(*x.rel)) : std::nullopt;
    };
    if (!t.status.ok()) {
      out.Fail(op, "traced: " + t.status.ToString());
    } else if (digest(t) != digest(r)) {
      out.Fail(op, "traced replay differs from the untraced run");
    }
  }
  const incdb::PlanCacheStats pc1 = tr.plan_cache_stats();
  const incdb::ResultCacheStats rc1 = tr.result_cache_stats();
  if (!spans_path.empty() && !tracer.WriteTsv(spans_path)) {
    std::printf("# could not write spans to %s\n", spans_path.c_str());
  }

  // Self time per span name: duration minus the children's durations.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& sp : spans) {
    if (sp.parent >= 0) child_ns[sp.parent] += sp.end_ns - sp.start_ns;
  }
  std::array<double, kSpanNames> self_ns{};
  double op_ns = 0;
  // Per operation: the untraced time minus the layer spans of its replay.
  std::vector<double> api_ns = untraced_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const int64_t dur = sp.end_ns - sp.start_ns;
    self_ns[static_cast<size_t>(sp.name)] += static_cast<double>(dur - child_ns[i]);
    if (sp.name == SpanName::kOp) op_ns += static_cast<double>(dur);
    if (sp.parent >= 0 && spans[sp.parent].name == SpanName::kOp &&
        sp.op < api_ns.size()) {
      api_ns[sp.op] -= static_cast<double>(dur);
    }
  }
  const LayerCounters& c = tr.counters();
  const double ops = static_cast<double>(std::max<uint64_t>(1, c.ops));
  const double commits = static_cast<double>(c.commits);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto per_op_us = [&](SpanName n) {
    return self_ns[static_cast<size_t>(n)] / ops / 1e3;
  };
  auto per_commit_us = [&](SpanName n) {
    return ratio(self_ns[static_cast<size_t>(n)], commits) / 1e3;
  };

  PrintHeader(spec, 0, 1);
  std::printf("# traced operations=%zu (reads=%llu commits=%llu)\n",
              spec.trace_ops,
              static_cast<unsigned long long>(c.reads),
              static_cast<unsigned long long>(c.commits));
  Report rep;
  rep.Add("trace_overhead", ratio(untraced_s * 1e9, op_ns), "ratio",
          "traced / untraced throughput_ops_s");
  rep.Add("api.self_us", Percentile(api_ns, 0.5) / 1e3, "us/op",
          "median over ops of untraced op time - the replay's layer spans");
  rep.Add("sql.parse_translate_us", per_op_us(SpanName::kSqlParseTranslate),
          "us/op");
  rep.Add("approx.translate_us", per_op_us(SpanName::kApproxTranslate),
          "us/op");
  rep.Add("approx.plan_ops",
          ratio(static_cast<double>(c.approx_plan_ops),
                static_cast<double>(c.approx_plans)),
          "ops/plan");
  rep.Add("approx.nljoin_share",
          ratio(static_cast<double>(c.approx_nljoin_plans),
                static_cast<double>(c.approx_plans)),
          "fraction");
  rep.Add("plan.compile_us", per_op_us(SpanName::kPlanCompile), "us/op");
  rep.Add("plan.bind_us", per_op_us(SpanName::kPlanBind), "us/op");
  rep.Add("plan_cache.hit_ratio",
          ratio(static_cast<double>(pc1.hits - pc0.hits),
                static_cast<double>(pc1.hits - pc0.hits + pc1.misses -
                                    pc0.misses)),
          "fraction");
  rep.Add("exec.execute_us", per_op_us(SpanName::kExecExecute), "us/op");
  rep.Add("exec.rows_out", static_cast<double>(c.rows_out) / ops, "rows/op");
  for (incdb::PhysOp k : kTracedOps) {
    const std::string base = std::string("exec.op.") + incdb::ToString(k);
    const size_t i = static_cast<size_t>(k);
    rep.Add(base + ".self_us", static_cast<double>(c.op_self_ns[i]) / ops / 1e3,
            "us/op");
    rep.Add(base + ".rows", static_cast<double>(c.op_rows[i]) / ops,
            "rows/op");
  }
  rep.Add("relation.insert_ns_per_row",
          ratio(static_cast<double>(c.insert_ns),
                static_cast<double>(c.insert_rows)),
          "ns/row");
  rep.Add("relation.copy_ns_per_row",
          ratio(static_cast<double>(c.copy_ns),
                static_cast<double>(c.copied_rows)),
          "ns/row");
  rep.Add("relation.rows_materialized",
          static_cast<double>(c.materialized_rows) / ops, "rows/op");
  const double hits = static_cast<double>(rc1.hits - rc0.hits);
  const double misses = static_cast<double>(rc1.misses - rc0.misses);
  const double maintained =
      static_cast<double>(rc1.maintained - rc0.maintained);
  const double invalidated =
      static_cast<double>(rc1.invalidations - rc0.invalidations);
  rep.Add("result_cache.hit_ratio", ratio(hits, hits + misses), "fraction");
  rep.Add("result_cache.hit_us",
          ratio(static_cast<double>(c.hit_ns), static_cast<double>(c.hits)) /
              1e3,
          "us/hit");
  rep.Add("result_cache.maintained_per_commit", ratio(maintained, commits),
          "entries/commit");
  rep.Add("result_cache.invalidations_per_commit", ratio(invalidated, commits),
          "entries/commit");
  rep.Add("result_cache.invalidation_share",
          ratio(invalidated, invalidated + maintained), "fraction",
          "invalidated / (invalidated + maintained) at commits");
  rep.Add("result_cache.evictions",
          static_cast<double>(rc1.evictions - rc0.evictions), "count");
  rep.Add("result_cache.late_drops",
          static_cast<double>(rc1.late_drops - rc0.late_drops), "count");
  rep.Add("delta.propagate_us", per_commit_us(SpanName::kDeltaPropagate),
          "us/commit");
  rep.Add("delta.apply_us", per_commit_us(SpanName::kDeltaApply), "us/commit");
  rep.Add("delta.rows", ratio(static_cast<double>(c.delta_rows), commits),
          "rows/commit");
  rep.Add("database.commit_us", per_commit_us(SpanName::kDatabaseCommit),
          "us/commit");
  rep.Add("database.cow_rows", ratio(static_cast<double>(c.cow_rows), commits),
          "rows/commit");
  rep.Add("database.snapshot_us", per_op_us(SpanName::kDatabaseSnapshot),
          "us/op");
  rep.PrintJson(out.failed == 0, out.attempted, out.failed);
  return out.failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "adhoc_sql|certain_approx|serve_update --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  std::optional<WorkloadId> workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  bool have_seed = false;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--spans" && has_value) {
      spans = argv[++i];
    } else if (a == "--workload" && has_value) {
      workload = ParseWorkload(argv[++i]);
      if (!workload) return Usage();
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return Usage();
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(seconds > 0)) return Usage();
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage();
      trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (!workload || !have_seed || seconds <= 0 || trace < 0) return Usage();
  const Spec spec = MakeSpec(*workload, seed, smoke);
  const int rc = trace ? RunTraced(spec, spans) : RunUntraced(spec, seconds);
  std::fflush(stdout);
  return rc;
}
