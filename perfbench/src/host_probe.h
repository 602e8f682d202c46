#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace perfbench {

/// A fixed piece of work that never touches the engine, timed next to each
/// recovery cycle so that the host's speed at that moment can be divided
/// out of the cycle's times.
///
/// On a shared host the CPU speed a process gets moves by up to 1.7x over
/// minutes (user and kernel time alike), far more than the code changes a
/// benchmark has to resolve. The probe does what the timed calls mostly do,
/// in about the same shares: it lists a tree of small files and reads each
/// one whole through std::ifstream (kernel work), then hashes the bytes and
/// parses a header from them (user work). A cycle's time times
/// kReferenceMs / (probe time) is then what the cycle would have taken on a
/// host where the probe takes kReferenceMs: the host's speed cancels, the
/// program's does not (the probe runs none of its code).
class HostProbe {
 public:
  /// The probe's median time on the reference host (4-core Xeon VM, quiet).
  static constexpr double kReferenceMs = 15.5;

  /// Writes the probe's file tree under `dir` (created if missing).
  static polaris::common::Status Create(const std::string& dir,
                                        HostProbe* probe);

  /// Runs the probe once and returns its steady-clock time in ms.
  double RunMs();

  /// `ms` scaled to the reference host, given the probe time next to it.
  static double Normalize(double ms, double probe_ms) {
    return probe_ms > 0 ? ms * kReferenceMs / probe_ms : 0;
  }

 private:
  std::string dir_;
  /// Folded into every run, so the work cannot be optimised away.
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
