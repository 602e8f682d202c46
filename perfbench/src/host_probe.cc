#include "host_probe.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "proc_stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kDirs = 64;
constexpr int kFilesPerDir = 32;
constexpr size_t kFileBytes = 1536;

}  // namespace

polaris::common::Status HostProbe::Create(const std::string& dir,
                                          HostProbe* probe) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::string body(kFileBytes, '\0');
  for (int d = 0; d < kDirs; ++d) {
    const fs::path sub = fs::path(dir) / ("d" + std::to_string(d));
    fs::create_directories(sub, ec);
    if (ec) return polaris::common::Status::IOError("probe: " + ec.message());
    for (int f = 0; f < kFilesPerDir; ++f) {
      for (size_t i = 0; i < body.size(); ++i) {
        body[i] = static_cast<char>((d * 131 + f * 31 + i * 7) & 0xff);
      }
      std::ofstream out(sub / ("f" + std::to_string(f) + ".blob"),
                        std::ios::binary);
      out << body;
      if (!out) return polaris::common::Status::IOError("probe: write failed");
    }
  }
  probe->dir_ = dir;
  return polaris::common::Status::OK();
}

double HostProbe::RunMs() {
  const auto t0 = SteadyClock::now();
  uint64_t hash = 1469598103934665603ull;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    std::ifstream in(it->path(), std::ios::binary);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    // Several FNV-1a passes give the user-time share of the timed calls.
    for (int pass = 0; pass < 2; ++pass) {
      for (const char c : content) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
    }
  }
  sink_ += hash;
  return MsBetween(t0, SteadyClock::now());
}

}  // namespace perfbench
