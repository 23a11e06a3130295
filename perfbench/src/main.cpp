// efd_perfbench: runs one benchmark workload in this process and prints one
// JSON result line (the last line of stdout). perfbench/run.py builds this
// binary and is the documented entry point.
//
//   efd_perfbench --workload explore|explore-spill|farm --seed N --seconds S
//                 --trace 0|1 --work-dir DIR [--spans FILE]
//
// With --setup-only 1 it runs only the workload's set-up and exits; untraced
// runs start it that way to time setup_s from process start.
//
// Exit codes: 0 every verdict matched its known answer; 1 some did not (the
// result line still prints, with "correct": false); 2 usage error; 3 other
// error (no result line).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: efd_perfbench --workload explore|explore-spill|farm --seed N --seconds S\n"
               "                     --trace 0|1 --work-dir DIR [--spans FILE]\n");
  return 2;
}

/// Shortest round-trip form of a double, so no measured digit is lost.
std::string number(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

int run(int argc, char** argv) {
  RunOptions opts;
  opts.threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::string spans_path;
  bool have_workload = false, have_dir = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 120) return usage();
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage();
      opts.trace = v[0] == '1';
    } else if (a == "--work-dir") {
      opts.work_dir = v;
      have_dir = true;
    } else if (a == "--setup-only") {
      setup_only = std::strcmp(v, "1") == 0;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (!have_workload || !have_dir ||
      std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage();
  }
  std::filesystem::create_directories(opts.work_dir);
  if (setup_only) {
    run_setup(opts);
    return 0;
  }

  const RunResult r = run_workload(opts);

  std::fprintf(stderr, "[perfbench] %s seed=%" PRIu64 " threads=%d trace=%d\n",
               opts.workload.c_str(), opts.seed, opts.threads, opts.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::fprintf(stderr, "[perfbench]   %s\n", line.c_str());
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "[perfbench]   %-40s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "[perfbench]   attempted=%" PRId64 " failed=%" PRId64 " error_rate=%g\n",
               r.oracle.attempted(), r.oracle.failed(), r.oracle.error_rate());
  for (const std::string& e : r.oracle.errors()) {
    std::fprintf(stderr, "[perfbench]   MISMATCH %s\n", e.c_str());
  }
  if (opts.trace && !spans_path.empty()) {
    if (!write_spans_jsonl(r.spans, spans_path)) {
      std::fprintf(stderr, "efd_perfbench: cannot write %s\n", spans_path.c_str());
      return 3;
    }
    for (const auto& [name, t] : summarize_spans(r.spans)) {
      std::fprintf(stderr, "[perfbench]   span %-44s n=%-8" PRId64 " total=%.4fs self=%.4fs\n",
                   name.c_str(), t.count, t.total_s, t.self_s);
    }
  }

  const bool correct = r.oracle.failed() == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.oracle.attempted());
  line += ", \"failed\": " + std::to_string(r.oracle.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_perfbench: %s\n", e.what());
    return 3;
  }
}
