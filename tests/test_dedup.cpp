// Dedup-layer tests: the FlatSigSet bugfix pass and the dedup store every
// sweep uses (core/diskset.hpp): its atomic size counter and its tiers.
//
//  * FlatSigSet regression — inserting a DUPLICATE at the 70% load boundary
//    must not grow the table (the old code ran the grow check before
//    probing), and the aside-tracked zero signature must not count toward
//    the load factor;
//  * TieredSigSet::size() — hammered from 8 writer threads while a poller
//    asserts monotonicity (the per-stripe counts are summed without
//    locking, and one reader's successive sums must never go backwards);
//  * TieredSigSet property tests against a std::unordered_set oracle —
//    random streams with duplicates, forced spills at tiny byte budgets
//    (and no spill per insert below an empty stripe's footprint),
//    merge-then-query equivalence, and the mem-exhaustion latch;
//  * explorer integration — ExploreOutcome through the disk tier is
//    byte-identical to the unbudgeted store across {1,2,8} threads, and a
//    memory-capped store with no disk tier degrades to a lower bound;
//  * budget accounting — the chunked budget is exact at max_states
//    S-1 / S / S+1 with and without the disk tier, one thread included,
//    and the per-explorer tallies give thread-count-invariant dedup
//    telemetry whose tier shares add up.
//
// Labeled `dedup` in ctest; sized to stay viable under ASan/TSan builds.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/diskset.hpp"
#include "core/sigset.hpp"
#include "core/solvability.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

// ---------------------------------------------------------------------------
// FlatSigSet bugfix regressions.
// ---------------------------------------------------------------------------

/// Distinct non-zero signatures, deterministic (splitmix64 stream).
std::vector<std::uint64_t> distinct_sigs(std::size_t n, std::uint64_t seed = 42) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t x = seed;
  while (out.size() < n) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    if (z != 0) out.push_back(z);
  }
  return out;
}

TEST(FlatSigSet, DuplicateAtLoadBoundaryDoesNotGrowTable) {
  FlatSigSet set;
  const std::size_t initial_bytes = set.bytes();  // 1024 slots
  // Fill to one below the growth boundary: with 1024 slots the table grows
  // on the insert that would make (table_size + 1) * 10 >= 1024 * 7, i.e.
  // while placing the 717th distinct non-zero signature.
  const auto sigs = distinct_sigs(716);
  for (const std::uint64_t s : sigs) ASSERT_TRUE(set.insert(s));
  ASSERT_EQ(set.bytes(), initial_bytes) << "716 entries must fit in 1024 slots";

  // The regression: duplicates at the boundary triggered a spurious doubling
  // when the grow check ran before the probe. Re-insert every signature —
  // the table must not move.
  for (const std::uint64_t s : sigs) EXPECT_FALSE(set.insert(s));
  EXPECT_EQ(set.bytes(), initial_bytes) << "duplicate insert grew the table";
  EXPECT_EQ(set.size(), sigs.size());

  // The 717th distinct signature is the legitimate growth trigger.
  EXPECT_TRUE(set.insert(distinct_sigs(1, 777)[0]));
  EXPECT_EQ(set.bytes(), initial_bytes * 2);
}

TEST(FlatSigSet, AsideZeroDoesNotSkewLoadFactor) {
  FlatSigSet set;
  const std::size_t initial_bytes = set.bytes();
  EXPECT_TRUE(set.insert(0));    // tracked aside: occupies no slot
  EXPECT_FALSE(set.insert(0));   // duplicate zero
  const auto sigs = distinct_sigs(716);
  for (const std::uint64_t s : sigs) ASSERT_TRUE(set.insert(s));
  // 716 slot-occupying entries + the aside zero: were the zero counted
  // toward the load factor, the table would already have doubled.
  EXPECT_EQ(set.bytes(), initial_bytes);
  EXPECT_EQ(set.size(), sigs.size() + 1);
  EXPECT_TRUE(set.contains(0));
}

TEST(FlatSigSet, DrainIntoMovesEverythingAndResets) {
  FlatSigSet set;
  const auto sigs = distinct_sigs(1000);
  for (const std::uint64_t s : sigs) set.insert(s);
  set.insert(0);
  const std::size_t grown_bytes = set.bytes();
  EXPECT_GT(grown_bytes, 1024 * sizeof(std::uint64_t));

  std::vector<std::uint64_t> drained;
  set.drain_into(drained);
  EXPECT_EQ(drained.size(), sigs.size() + 1);
  std::unordered_set<std::uint64_t> want(sigs.begin(), sigs.end());
  want.insert(0);
  for (const std::uint64_t s : drained) EXPECT_TRUE(want.count(s)) << s;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.bytes(), 1024 * sizeof(std::uint64_t)) << "drain must release the table";
  // Drained signatures read as fresh again.
  EXPECT_TRUE(set.insert(sigs[0]));
  EXPECT_TRUE(set.insert(0));
}

// ---------------------------------------------------------------------------
// TieredSigSet atomic size.
// ---------------------------------------------------------------------------

TEST(TieredSigSet, SizeIsMonotonicUnderConcurrentInserts) {
  TieredSigSet set;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::atomic<bool> monotonic{true};

  std::thread poller([&] {
    std::size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t now = set.size();
      if (now < last) monotonic.store(false, std::memory_order_relaxed);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Disjoint ranges: every insert is a first insert.
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kPerThread;
      for (std::uint64_t i = 0; i < kPerThread; ++i) set.insert(base + i);
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_TRUE(monotonic.load()) << "size() went backwards mid-sweep (torn total)";
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TieredSigSet, SizeCountsDuplicatesOnce) {
  TieredSigSet set;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t s = 1; s <= 5000; ++s) set.insert(s);
  }
  EXPECT_EQ(set.size(), 5000u);
}

// ---------------------------------------------------------------------------
// TieredSigSet vs std::unordered_set oracle.
// ---------------------------------------------------------------------------

/// Feeds an identical random stream (with many duplicates, including 0) to
/// the store and an oracle; every insert verdict must match.
void oracle_stream(TieredSigSet& store, std::size_t n, std::uint64_t seed,
                   std::uint64_t key_range) {
  std::mt19937_64 rng(seed);
  std::unordered_set<std::uint64_t> oracle;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sig = rng() % key_range;  // small range forces dups
    const bool fresh_oracle = oracle.insert(sig).second;
    const bool fresh_store = store.insert(sig);
    ASSERT_EQ(fresh_store, fresh_oracle)
        << "insert #" << i << " sig " << sig << " diverged from the oracle";
  }
  EXPECT_EQ(store.size(), oracle.size());
  // Merge-then-query equivalence: everything ever inserted reads as a
  // duplicate, wherever it now lives (tier 1 table or merged disk runs).
  for (const std::uint64_t sig : oracle) {
    EXPECT_FALSE(store.insert(sig)) << "sig " << sig << " lost after spill/merge";
  }
  EXPECT_EQ(store.size(), oracle.size());
}

TEST(TieredSigSet, PlainConfigMatchesOracle) {
  DedupConfig cfg;  // no budget, no disk: tier 0 and the stripes only
  TieredSigSet store(cfg);
  oracle_stream(store, 60000, 7, 40000);
  EXPECT_FALSE(store.mem_exhausted());
  const TierStats t = store.tier_stats();
  EXPECT_EQ(t.spills, 0);
  EXPECT_EQ(t.cold_hits, 0);
}

TEST(TieredSigSet, TinyBudgetSpillsToDiskAndMatchesOracle) {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;  // each stripe floored at an empty table's 8 KiB
  TieredSigSet store(cfg);
  // ~466k distinct signatures: ~7.3k per stripe, past the 8 spills of ~717
  // signatures each that trigger a run merge.
  oracle_stream(store, 900000, 11, 600000);
  EXPECT_FALSE(store.mem_exhausted());
  const TierStats t = store.tier_stats();
  EXPECT_GT(t.spills, 0) << "budget this small must spill";
  EXPECT_GT(t.spilled_sigs, 0);
  EXPECT_GT(t.spill_bytes, 0);
  EXPECT_GT(t.merges, 0) << "enough spills per shard must trigger run merges";
  EXPECT_GT(t.cold_hits, 0) << "post-merge queries must hit the disk runs";
}

// Regression: the per-stripe budget was floored at 4 KiB, below an empty
// stripe's own 8 KiB table, so under any total budget under 512 KiB every
// fresh insert spilled a one-signature run (these 1,000 inserts: 1,000
// spills, 106 merges). The floor is now the empty table's footprint.
TEST(TieredSigSet, BudgetFloorDoesNotSpillEveryInsert) {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;
  TieredSigSet store(cfg);
  for (const std::uint64_t sig : distinct_sigs(1000)) ASSERT_TRUE(store.insert(sig));
  EXPECT_EQ(store.size(), 1000u);
  const TierStats t = store.tier_stats();
  EXPECT_LE(t.spills, 10) << "a fresh stripe must hold more than one signature";
  EXPECT_LE(t.merges, 1);
}

TEST(TieredSigSet, ConcurrentInsertersAgreeWithOracleSet) {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;
  TieredSigSet store(cfg);
  constexpr int kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::atomic<std::int64_t> fresh_total{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::int64_t fresh = 0;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (store.insert(rng() % 50000)) ++fresh;
      }
      fresh_total.fetch_add(fresh, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  // First-insert-wins: across all threads exactly one insert per distinct
  // signature reported fresh, so the fresh count equals the union's size.
  std::unordered_set<std::uint64_t> oracle;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + t);
    for (std::size_t i = 0; i < kPerThread; ++i) oracle.insert(rng() % 50000);
  }
  EXPECT_EQ(fresh_total.load(), static_cast<std::int64_t>(oracle.size()));
  EXPECT_EQ(store.size(), oracle.size());
  for (const std::uint64_t sig : oracle) EXPECT_FALSE(store.insert(sig));
}

TEST(TieredSigSet, MemBudgetWithoutDiskLatchesExhaustion) {
  DedupConfig cfg;
  cfg.mem_budget_bytes = 64 * 1024;  // capped, nowhere to spill
  TieredSigSet store(cfg);
  std::unordered_set<std::uint64_t> oracle;
  std::mt19937_64 rng(17);
  // ~940 signatures per stripe: past the ~717 an 8 KiB stripe holds.
  for (std::size_t i = 0; i < 60000; ++i) {
    const std::uint64_t sig = rng();
    // Insert semantics stay exact even past the latch; only the flag trips.
    ASSERT_EQ(store.insert(sig), oracle.insert(sig).second);
  }
  EXPECT_TRUE(store.mem_exhausted());
  EXPECT_EQ(store.size(), oracle.size());
}

TEST(TieredSigSet, SpillDirIsRemovedOnDestruction) {
  std::string dir;
  {
    DedupConfig cfg;
    cfg.disk_tier = true;
    cfg.mem_budget_bytes = 64 * 1024;
    TieredSigSet store(cfg);
    for (std::uint64_t s = 1; s <= 60000; ++s) store.insert(s);
    dir = store.spill_dir();
    ASSERT_FALSE(dir.empty()) << "spills must have created the directory";
    // Run files are unlinked at mmap time: the directory exists but is empty.
  }
  struct stat st {};
  EXPECT_NE(::stat(dir.c_str(), &st), 0) << dir << " leaked after destruction";
}

// ---------------------------------------------------------------------------
// DedupConfig::from_env.
// ---------------------------------------------------------------------------

/// setenv/unsetenv guard (tests run single-threaded).
struct EnvGuard {
  std::string key;
  EnvGuard(const std::string& k, const std::string& v) : key(k) {
    ::setenv(k.c_str(), v.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(key.c_str()); }
};

TEST(DedupConfig, FromEnvParsesTiersBudgetAndDir) {
  {
    const DedupConfig cfg = DedupConfig::from_env();
    EXPECT_FALSE(cfg.disk_tier) << "default environment must mean in memory";
    EXPECT_EQ(cfg.mem_budget_bytes, 0u) << "default environment must mean no budget";
  }
  {
    EnvGuard t("EFD_DEDUP_TIERS", "tiered");
    EnvGuard m("EFD_DEDUP_MEM_MB", "512");
    EnvGuard d("EFD_DEDUP_DIR", "/tmp/efd-test-spill");
    const DedupConfig cfg = DedupConfig::from_env();
    EXPECT_TRUE(cfg.disk_tier);
    EXPECT_EQ(cfg.mem_budget_bytes, 512u * 1024 * 1024);
    EXPECT_EQ(cfg.spill_dir, "/tmp/efd-test-spill");
  }
  {
    EnvGuard t("EFD_DEDUP_TIERS", "mem");
    const DedupConfig cfg = DedupConfig::from_env();
    EXPECT_FALSE(cfg.disk_tier);
    EXPECT_EQ(cfg.mem_budget_bytes, 0u);
  }
  {
    EnvGuard t("EFD_DEDUP_TIERS", "bogus");
    EXPECT_THROW(DedupConfig::from_env(), std::runtime_error);
  }
  {
    EnvGuard m("EFD_DEDUP_MEM_MB", "-3");
    EXPECT_THROW(DedupConfig::from_env(), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Explorer integration: thread-count invariance with the disk tier, and the
// memory-capped lower-bound path.
// ---------------------------------------------------------------------------

ExploreOutcome sweep_with_store(const DedupConfig& store, int threads,
                                std::int64_t max_states = 400000, int n = 4) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(n, 2);
  const ValueVec in = task->sample_input(1);
  const auto body = [task](int, Value input) {
    return make_one_concurrent(task, input, "dedup/sweep");
  };
  ExploreConfig cfg;
  cfg.k = 2;
  for (int i = 0; i < n; ++i) cfg.arrival.push_back(i);
  cfg.max_states = max_states;
  cfg.engine = ExploreEngine::kIncremental;
  cfg.threads = threads;
  cfg.dedup_store = store;
  return explore_k_concurrent(task, body, in, cfg);
}

/// The (5,2) level-2 sweep: ~103k signatures, enough to overflow the 8 KiB
/// floor of all 64 stripes under a 64 KiB budget (the (4,2) sweep's ~25k
/// signatures fit without a spill).
ExploreOutcome spilling_sweep(const DedupConfig& store, int threads) {
  return sweep_with_store(store, threads, 400000, 5);
}

TEST(TieredExplore, OutcomeInvariantAcrossThreadCountsWithDiskTier) {
  const ExploreOutcome plain = spilling_sweep(DedupConfig{}, 1);
  ASSERT_TRUE(plain.ok) << plain.violation;
  ASSERT_FALSE(plain.budget_exhausted);

  DedupConfig tiered;
  tiered.disk_tier = true;
  tiered.mem_budget_bytes = 64 * 1024;  // tiny: the (5,2) sweep spills
  for (const int threads : {1, 2, 8}) {
    const ExploreOutcome o = spilling_sweep(tiered, threads);
    EXPECT_TRUE(o.ok) << o.violation;
    EXPECT_FALSE(o.budget_exhausted);
    EXPECT_FALSE(o.mem_exhausted);
    EXPECT_EQ(o.states, plain.states) << "threads=" << threads;
    EXPECT_EQ(o.terminal_runs, plain.terminal_runs) << "threads=" << threads;
    EXPECT_EQ(o.stats.dedup_queries, plain.stats.dedup_queries) << "threads=" << threads;
    EXPECT_EQ(o.stats.dedup_misses, plain.stats.dedup_misses) << "threads=" << threads;
    EXPECT_GT(o.stats.dedup_spills, 0) << "threads=" << threads;
  }
}

TEST(TieredExplore, MemoryCapWithoutDiskReportsLowerBound) {
  DedupConfig capped;
  capped.mem_budget_bytes = 64 * 1024;  // no disk tier: must abort
  const ExploreOutcome o = spilling_sweep(capped, 1);
  EXPECT_TRUE(o.mem_exhausted);
  EXPECT_TRUE(o.budget_exhausted) << "mem exhaustion must read as budget exhaustion";
  EXPECT_TRUE(o.stats.mem_exhausted);

  const ExploreOutcome full = spilling_sweep(DedupConfig{}, 1);
  EXPECT_LT(o.states, full.states) << "the capped sweep must have stopped early";
}

// ---------------------------------------------------------------------------
// Parallel accounting: chunked budget reservation, per-explorer tallies.
// ---------------------------------------------------------------------------

/// Disk tier with a budget so small that the (5,2) sweep spills.
DedupConfig spilling_store() {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;
  return cfg;
}

TEST(ParallelBudget, OutcomeAtTheBudgetBoundaryMatchesOneThread) {
  const ExploreOutcome full = sweep_with_store(DedupConfig{}, 1);
  ASSERT_TRUE(full.ok) << full.violation;
  ASSERT_FALSE(full.budget_exhausted);
  const std::int64_t s = full.states;
  // Both store shapes; the tiered one without a memory cap, since spill
  // traffic has no bearing on budget accounting.
  DedupConfig tiered_store;
  tiered_store.disk_tier = true;
  for (const bool tiered : {false, true}) {
    const DedupConfig store = tiered ? tiered_store : DedupConfig{};
    for (const std::int64_t budget : {s - 1, s, s + 1}) {
      const ExploreOutcome ref = sweep_with_store(store, 1, budget);
      EXPECT_EQ(ref.budget_exhausted, budget < s) << "budget " << budget;
      // One explorer draws its budget chunk by chunk and still stops on
      // exactly the first state past max_states, which is itself counted.
      EXPECT_EQ(ref.states, s) << "budget " << budget;
      for (const int threads : {2, 4, 8}) {
        const ExploreOutcome o = sweep_with_store(store, threads, budget);
        const std::string where = std::string(tiered ? "tiered" : "plain") + " budget " +
                                  std::to_string(budget) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(o.ok, ref.ok) << where;
        EXPECT_EQ(o.budget_exhausted, ref.budget_exhausted) << where;
        EXPECT_EQ(o.states, ref.states) << where;
        EXPECT_EQ(o.terminal_runs, ref.terminal_runs) << where;
        EXPECT_EQ(o.bad_schedule, ref.bad_schedule) << where;
        if (!o.budget_exhausted) {
          EXPECT_LE(o.states, budget) << where << ": certified clean beyond the budget";
        }
      }
    }
  }
}

TEST(ParallelTallies, DeterministicTelemetryIsThreadCountInvariant) {
  const ExploreOutcome ref = spilling_sweep(DedupConfig{}, 1);
  ASSERT_TRUE(ref.ok) << ref.violation;
  for (const bool tiered : {false, true}) {
    const DedupConfig store = tiered ? spilling_store() : DedupConfig{};
    for (const int threads : {1, 2, 4, 8}) {
      const ExploreOutcome o = spilling_sweep(store, threads);
      const std::string where =
          std::string(tiered ? "tiered" : "plain") + " threads " + std::to_string(threads);
      ASSERT_TRUE(o.ok) << where;
      EXPECT_EQ(o.stats.states, ref.stats.states) << where;
      EXPECT_EQ(o.stats.terminal_runs, ref.stats.terminal_runs) << where;
      EXPECT_EQ(o.stats.dedup_queries, ref.stats.dedup_queries) << where;
      EXPECT_EQ(o.stats.dedup_misses, ref.stats.dedup_misses) << where;
      EXPECT_EQ(o.stats.dedup_hits, o.stats.dedup_queries - o.stats.dedup_misses) << where;
      EXPECT_EQ(o.stats.dedup_recent_hits + o.stats.dedup_mem_hits + o.stats.dedup_cold_hits,
                o.stats.dedup_hits)
          << where << ": tier shares do not add up";
      if (tiered) EXPECT_GT(o.stats.dedup_spills, 0) << where;
    }
  }
}

}  // namespace
}  // namespace efd
