#include "perfbench/probe.h"

#include <time.h>

#include <algorithm>
#include <unordered_map>

namespace perfbench {
namespace {

// The probe is two hash joins over heap-allocated rows (a hash table built
// afresh, probes, materialised matches and a sort, the kinds of work an
// operation does): one whose rows fit in the core's own caches and one
// whose table does not. Host load slowed the workloads more than the first
// and less than the second; their sum tracked them best.
struct JoinSize {
  size_t build_rows, probe_rows;
  int64_t keys;
};
constexpr JoinSize kJoins[] = {{2048, 4096, 3000}, {16384, 4096, 20000}};

uint64_t HashJoin(const std::vector<std::vector<int64_t>>& build,
                  const std::vector<std::vector<int64_t>>& probe) {
  std::unordered_multimap<int64_t, const std::vector<int64_t>*> table;
  table.reserve(build.size());
  for (const auto& row : build) table.emplace(row[0], &row);
  std::vector<std::vector<int64_t>> out;
  for (const auto& row : probe) {
    auto [lo, hi] = table.equal_range(row[0]);
    for (auto it = lo; it != hi; ++it) {
      std::vector<int64_t> joined = *it->second;
      joined.push_back(row[1]);
      out.push_back(std::move(joined));
    }
  }
  std::sort(out.begin(), out.end());
  uint64_t sum = 0;
  for (const auto& row : out) sum += static_cast<uint64_t>(row[1] ^ row[3]);
  return sum;
}

}  // namespace

SpeedProbe::SpeedProbe() {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>(x >> 33);
  };
  for (const JoinSize& j : kJoins) {
    Input in;
    for (size_t i = 0; i < j.build_rows; ++i) {
      in.build.push_back({next() % j.keys, next(), next()});
    }
    for (size_t i = 0; i < j.probe_rows; ++i) {
      in.probe.push_back({next() % j.keys, next()});
    }
    inputs_.push_back(std::move(in));
  }
}

double SpeedProbe::MeasureMs() {
  const double t0 = ProcessCpuMs();
  for (const Input& in : inputs_) sink_ += HashJoin(in.build, in.probe);
  return ProcessCpuMs() - t0;
}

double ProcessCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace perfbench
