// The benchmark's workloads, driven through the library's public entry
// points only: explore_k_concurrent (core/solvability), run_farm / run_plan /
// shrink_finding (core/campaign), replay_tape (sim/replay) and CorpusStore
// (core/corpus). See perfbench/README.md for why each workload exists and
// which layer each metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/diskset.hpp"
#include "core/solvability.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< "explore", "explore-spill" or "farm"
  std::uint64_t seed = 42;
  double seconds = 10;   ///< measuring time of the run (set-up excluded)
  bool trace = false;    ///< false: end-to-end metrics; true: per-layer metrics
  int threads = 4;       ///< explorer threads / farm workers: min(4, nproc)
  std::string work_dir;  ///< spill dirs, corpora and the span file go here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  std::vector<Metric> metrics;  ///< in metric_catalog order
  Oracle oracle;
  std::vector<std::string> notes;  ///< human-readable report lines (stderr)
  std::vector<SpanRecord> spans;   ///< traced runs only
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every metric a run prints, with its unit: the end-to-end set for
/// untraced runs, the per-layer set for traced ones. Every workload prints
/// the whole set; a per-layer metric of a layer the workload bypasses is 0.
[[nodiscard]] const std::vector<Metric>& metric_catalog(bool trace);

/// Runs one workload. Throws std::invalid_argument on an unknown workload.
[[nodiscard]] RunResult run_workload(const RunOptions& opts);

/// The workload's set-up alone: what a process does between its start and
/// its first timed call (fixtures, world factories, spill root, target list,
/// corpus directory). Untraced runs time it in fresh processes of this binary
/// (`--setup-only 1`) and report the median as setup_s.
void run_setup(const RunOptions& opts);

// ---- the explore workloads' sweep table (exposed for the self-tests) ----

enum class Protocol { kOneConcurrent, kFloodMin };

struct SweepCase {
  std::string name;
  bool certify = true;  ///< certify set (clean) or refute set (violated)
  Protocol protocol = Protocol::kOneConcurrent;
  int n = 0;            ///< C-processes
  int set_k = 1;        ///< k of k-set agreement (1 = consensus)
  int level = 1;        ///< concurrency level explored
  SweepAnswer answer;
};

[[nodiscard]] const std::vector<SweepCase>& sweep_cases();

/// Distinct input values drawn from `seed`, increasing in the process
/// index. Keeping their order fixed keeps the explored tree, and with it the
/// known answer, the same for every seed; the values themselves differ.
[[nodiscard]] efd::ValueVec sweep_inputs(const SweepCase& c, std::uint64_t seed);

struct PreparedSweep {
  const SweepCase* spec = nullptr;
  efd::TaskPtr task;
  BodyFactory body;
  efd::ValueVec inputs;
  efd::ExploreConfig cfg;
};

/// Builds the task, body factory, world factory and config of one sweep.
/// With `traced`, the task, bodies and world builds are wrapped in the
/// timing decorators of probes.hpp.
[[nodiscard]] PreparedSweep prepare_sweep(const SweepCase& c, std::uint64_t seed, int threads,
                                          const efd::DedupConfig& store, bool traced,
                                          SpanRecorder* rec);

}  // namespace perfbench
