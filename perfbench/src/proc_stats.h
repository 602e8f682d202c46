#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <chrono>
#include <cstdint>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// VmHWM of this process in MiB (0 if /proc is unreadable).
double PeakRssMb();

/// `rchar` of /proc/self/io: bytes this process read through read(2) and
/// friends, page-cache hits included (0 if unreadable).
uint64_t ReadChars();

/// CPU time of the calling thread / of the whole process, in ms.
double ThreadCpuMs();
double ProcessCpuMs();

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
