// Machine and build metadata for the bench_* --json result files: the
// fields perfbench's meta line reports (CPU model, nproc, build type,
// compiler, git SHA), so tools/bench_compare.py can warn when a run and the
// baseline it is compared with come from different machines or builds.
#ifndef MAD_BENCH_BENCH_META_H_
#define MAD_BENCH_BENCH_META_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace mad {
namespace bench {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// HEAD of the source checkout the binary was built from, or "unknown"
/// when git or the checkout is unavailable.
inline std::string GitSha() {
  std::string sha;
  FILE* pipe =
      popen("git -C \"" MAD_BENCH_SOURCE_DIR "\" rev-parse HEAD 2>/dev/null",
            "r");
  if (pipe != nullptr) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha += buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#else
inline constexpr const char* kCompiler = "unknown";
#endif

/// The `"meta": {...}` member of a result file, without a trailing comma.
inline std::string MetaJsonMember() {
  return "\"meta\": {\"cpu_model\": \"" + JsonEscape(CpuModel()) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" + JsonEscape(MAD_BENCH_BUILD_TYPE) +
         "\", \"compiler\": \"" + JsonEscape(kCompiler) +
         "\", \"git_sha\": \"" + JsonEscape(GitSha()) + "\"}";
}

}  // namespace bench
}  // namespace mad

#endif  // MAD_BENCH_BENCH_META_H_
