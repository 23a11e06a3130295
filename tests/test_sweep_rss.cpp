// Memory-retention regression for repeated parallel sweeps in one process.
//
// A resident process (the campaign farm daemon, a max_clean_level loop)
// sweeps again and again. The dedup tables of a 4-thread sweep grow on pool
// workers; while their slot arrays came from malloc they were freed into
// those threads' glibc arenas, which keep the memory. Measured before the
// fix on this workload: RSS after a finished round climbed from 7 to 27 MB
// over six rounds and peak RSS from 45 to 61 MB, while one thread stayed
// flat. Large slot arrays are now mapped and unmapped directly
// (core/sigset.hpp), so every round must leave the process where round one
// left it.
//
// Its own binary: ru_maxrss is a process-wide high-water mark, so no other
// test may share the process. Skipped under sanitizers, whose allocators
// and shadow memory make RSS meaningless.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <tuple>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/solvability.hpp"
#include "tasks/set_agreement.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EFD_RSS_UNDER_SANITIZER 1
#else
#define EFD_RSS_UNDER_SANITIZER 0
#endif

namespace efd {
namespace {

/// Resident set size now, in KiB.
long current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Peak resident set size so far, in KiB.
long peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

/// One round: a clean (4,2) sweep and a violating (5,2) level-3 sweep, both
/// at 4 threads. The violating one also reruns sequentially, so the round
/// frees tables grown on the workers and on the calling thread.
void sweep_round() {
  for (const auto& [n, level, clean] : {std::tuple{4, 2, true}, std::tuple{5, 3, false}}) {
    const TaskPtr task = std::make_shared<SetAgreementTask>(n, 2);
    ValueVec in;
    std::vector<int> arrival;
    for (int i = 0; i < n; ++i) {
      in.emplace_back(std::int64_t{7} * i + 1);
      arrival.push_back(i);
    }
    ExploreConfig cfg;
    cfg.k = level;
    cfg.arrival = arrival;
    cfg.max_states = 10'000'000;
    cfg.threads = 4;
    cfg.dedup_store = DedupConfig{};
    const auto body = [task](int, Value input) {
      return make_one_concurrent(task, std::move(input), "rss");
    };
    const ExploreOutcome o = explore_k_concurrent(task, body, in, cfg);
    ASSERT_EQ(o.ok, clean) << "n=" << n << " level=" << level;
    ASSERT_FALSE(o.budget_exhausted);
  }
}

TEST(SweepRss, RepeatedParallelSweepsReturnTheirTables) {
  if (EFD_RSS_UNDER_SANITIZER) GTEST_SKIP() << "RSS is meaningless under sanitizers";
  const long before_kb = current_rss_kb();
  std::vector<long> after_kb;
  std::vector<long> peak_kb;
  for (int round = 1; round <= 6; ++round) {
    sweep_round();
    if (HasFatalFailure()) return;
    after_kb.push_back(current_rss_kb());
    peak_kb.push_back(peak_rss_kb());
  }
  constexpr long kMarginKb = 6 * 1024;
  for (std::size_t r = 0; r < after_kb.size(); ++r) {
    EXPECT_LE(after_kb[r], before_kb + kMarginKb)
        << "round " << r + 1 << " left " << after_kb[r] - before_kb
        << " KB of dead dedup tables resident";
  }
  EXPECT_LE(peak_kb.back(), peak_kb.front() + kMarginKb)
      << "peak RSS crept from " << peak_kb.front() << " KB after round 1 to " << peak_kb.back()
      << " KB after round 6";
}

}  // namespace
}  // namespace efd
