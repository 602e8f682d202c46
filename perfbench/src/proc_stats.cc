#include "proc_stats.h"

#include <time.h>

#include <fstream>
#include <string>

namespace perfbench {

namespace {

double CpuMs(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

uint64_t ReadChars() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") return value;
  }
  return 0;
}

double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
