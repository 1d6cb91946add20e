// Host-speed probe: a fixed unit of CPU and memory work that uses nothing
// from incdb, timed between operations so the timings can be stated at a
// reference host speed.
//
// On a shared virtual machine the same instructions run up to ~30 % slower
// for minutes at a time as neighbours load the host, and other tenants'
// processes take the client's core for tens of ms at a time. Timing in
// process CPU time removes the second; a probe taken next to the
// operations sees the first, and scaling an operation's CPU time by
// ReferenceMs() / (the probe's CPU time) removes the host's share and
// leaves the program's. The probe is hash joins over heap-allocated rows,
// the kind of work whose speed the host's load moves most: on a 4-vCPU VM
// its time per half-second window tracked the workloads' throughput with
// a correlation of about 0.9 and a slope of about 1, where a pure
// arithmetic loop or random reads of a large table tracked at 0.5-0.8.
// Its code and sizes are part of the benchmark and never depend on the
// library, so a change to incdb moves the operations' times and not the
// probe's.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the probe's work once and returns its CPU time in ms.
  double MeasureMs();

  /// The probe time the scaled timings are stated at: about the probe's
  /// time on a 2.0 GHz x86-64 virtual machine.
  static constexpr double ReferenceMs() { return 3.0; }

 private:
  struct Input {
    std::vector<std::vector<int64_t>> build, probe;
  };
  std::vector<Input> inputs_;
  uint64_t sink_ = 0;
};

/// CPU time used so far by all threads of this process, in ms.
double ProcessCpuMs();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
