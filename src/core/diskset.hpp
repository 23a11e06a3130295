// Tiered out-of-core signature dedup store (DESIGN.md 4f).
//
// The exploration dedup set used to be the RAM ceiling of every hierarchy
// sweep: 10⁸–10⁹ visited signatures at 8 bytes each (plus hash-table slack)
// exhaust memory long before the schedule tree is covered, so E9/E14-family
// experiments could only report "N+" lower bounds. This store keeps the hot
// dedup traffic in memory and pushes the long tail to disk:
//
//   tier 0  per-thread recent-signature cache — a direct-mapped, completely
//           unsynchronized array of signatures this thread recently proved
//           present. A hit answers "duplicate" with no lock. Only
//           definitely-inserted signatures enter the cache, so a hit can
//           never lose a state.
//   tier 1  the mutex-striped ShardedSigSet (core/workpool.hpp) — the
//           authoritative in-memory set, now with a per-shard byte budget.
//   tier 2  DiskTier — per shard, a bloom prefilter in front of mmap'd
//           sorted runs. When a shard crosses its budget it is drained,
//           sorted, written to a run file and dropped from RAM; runs are
//           merged (and the bloom rebuilt) whenever a shard accumulates
//           kMergeRuns of them. Because a signature is only inserted into
//           tier 1 after missing tier 2, the runs of one shard are DISJOINT
//           sorted arrays — merging never needs to dedup, and the store's
//           total size is the plain sum of tier sizes.
//
// First-insert-wins is preserved exactly: the entire probe (mem table →
// bloom → runs) and the insert happen under the owning shard's mutex, so the
// clean-sweep state counts remain thread-count-invariant with the disk tier
// active (PR 2's soundness argument is untouched). With the disk tier
// disabled (EFD_DEDUP_TIERS=mem) behavior and counters are byte-identical
// to the flat in-memory store; with a byte budget but no disk tier the
// store latches mem_exhausted() and the sweep reports a lower bound.
//
// Run files are unlinked immediately after mmap, so a crash can never leak
// spill files; the per-store spill directory (created lazily under
// EFD_DEDUP_DIR / $TMPDIR / /tmp) is removed on destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/workpool.hpp"

namespace efd {

/// Configuration of one dedup store. Default-constructed = plain in-memory
/// (exactly the pre-tiered behavior); from_env() reads:
///   EFD_DEDUP_TIERS   "mem" (default) | "tiered" (alias "disk")
///   EFD_DEDUP_MEM_MB  in-memory byte budget in MiB (0 / unset = unlimited)
///   EFD_DEDUP_DIR     spill directory root (default $TMPDIR, then /tmp)
struct DedupConfig {
  bool disk_tier = false;            ///< spill overflowing shards to disk
  std::size_t mem_budget_bytes = 0;  ///< total in-memory cap; 0 = unlimited
  std::string spill_dir;             ///< root for run files; "" = env default
  int recent_bits = 12;              ///< tier-0 cache has 2^bits slots; 0 = off

  [[nodiscard]] static DedupConfig from_env();

  /// True when the store degenerates to the plain flat/sharded in-memory
  /// set (no budget, no disk): explorers then keep their zero-overhead
  /// legacy containers.
  [[nodiscard]] bool plain() const noexcept {
    return !disk_tier && mem_budget_bytes == 0;
  }
};

/// Per-tier traffic of one store (all counters monotone; snapshot via
/// TieredSigSet::tier_stats). Deterministic only for single-threaded sweeps:
/// which tier answers a duplicate depends on thread interleaving.
struct TierStats {
  std::int64_t recent_hits = 0;   ///< duplicates answered by the tier-0 cache
  std::int64_t mem_hits = 0;      ///< duplicates found in the in-memory shard
  std::int64_t cold_probes = 0;   ///< in-memory misses that consulted tier 2
  std::int64_t bloom_skips = 0;   ///< cold probes settled by the bloom alone
  std::int64_t cold_hits = 0;     ///< duplicates found in an mmap'd run
  std::int64_t spills = 0;        ///< shard drains to disk
  std::int64_t spilled_sigs = 0;  ///< signatures moved to disk in total
  std::int64_t spill_bytes = 0;   ///< bytes written to run files in total
  std::int64_t merges = 0;        ///< per-shard run merges
};

/// Tier 2: per-shard bloom prefilter + mmap'd disjoint sorted runs.
/// All per-shard calls arrive under that shard's ShardedSigSet mutex.
class DiskTier final : public ShardedSigSet::ColdTier {
 public:
  /// `dir_root`: where the (lazily created, mkdtemp-named) spill directory
  /// goes; resolved via DedupConfig rules when empty.
  explicit DiskTier(std::string dir_root);
  ~DiskTier() override;
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  bool contains(std::size_t shard, std::uint64_t sig) override;
  void spill(std::size_t shard, FlatSigSet& set) override;

  [[nodiscard]] std::int64_t cold_probes() const noexcept {
    return sum_shards(shards_, &Shard::cold_probes);
  }
  [[nodiscard]] std::int64_t bloom_skips() const noexcept {
    return sum_shards(shards_, &Shard::bloom_skips);
  }
  [[nodiscard]] std::int64_t cold_hits() const noexcept {
    return sum_shards(shards_, &Shard::cold_hits);
  }
  [[nodiscard]] std::int64_t spills() const noexcept { return spills_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t spilled_sigs() const noexcept { return spilled_sigs_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t spill_bytes() const noexcept { return spill_bytes_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t merges() const noexcept { return merges_.load(std::memory_order_relaxed); }
  /// The mkdtemp'd spill directory ("" until the first spill creates it).
  [[nodiscard]] std::string dir() const;

  /// Runs per shard before a merge compacts them into one.
  static constexpr std::size_t kMergeRuns = 8;

 private:
  struct Bloom {
    std::vector<std::uint64_t> words;  ///< power-of-two sized bit array
    void reset(std::size_t expected_keys);
    void add(std::uint64_t sig) noexcept;
    [[nodiscard]] bool maybe(std::uint64_t sig) const noexcept;
  };
  struct Run {
    void* map = nullptr;
    std::size_t bytes = 0;
    const std::uint64_t* data = nullptr;
    std::size_t count = 0;
  };
  /// One cache line (or more) per shard: the probe counters are bumped on
  /// every in-memory miss, under the owning ShardedSigSet shard's mutex.
  struct alignas(kCacheLine) Shard {
    Bloom bloom;
    std::vector<Run> runs;
    std::size_t spilled = 0;              ///< signatures across all runs
    std::vector<std::uint64_t> scratch;   ///< drain/merge buffer (reused)
    std::atomic<std::int64_t> cold_probes{0};
    std::atomic<std::int64_t> bloom_skips{0};
    std::atomic<std::int64_t> cold_hits{0};
  };

  void ensure_dir();
  Run write_run(const std::vector<std::uint64_t>& sigs, std::size_t shard);
  static void drop_run(Run& r) noexcept;
  void merge_shard(Shard& s, std::size_t shard_idx);

  std::string dir_root_;
  mutable std::mutex dir_mu_;  ///< guards lazy creation of dir_ across shards
  std::string dir_;
  std::atomic<std::uint64_t> run_seq_{0};
  std::vector<Shard> shards_;

  // Spill-side counters: bumped once per spill or merge, not per probe.
  std::atomic<std::int64_t> spills_{0};
  std::atomic<std::int64_t> spilled_sigs_{0};
  std::atomic<std::int64_t> spill_bytes_{0};
  std::atomic<std::int64_t> merges_{0};
};

/// The full tiered store: tier-0 per-thread cache in front of the budgeted
/// ShardedSigSet, which overflows into a DiskTier when configured. insert()
/// is first-insert-wins and thread-safe; semantics (which inserts report
/// fresh) are IDENTICAL to a flat in-memory set on every workload — the
/// tiers only change where duplicates are detected and where memory lives.
class TieredSigSet {
 public:
  explicit TieredSigSet(const DedupConfig& cfg);

  /// True iff `sig` was never inserted before (across all tiers). A
  /// duplicate answered by the tier-0 cache adds one to `recent_hits`, a
  /// counter the caller owns: the hot path writes no store-wide line. Hand
  /// the count back with add_recent_hits() when done.
  bool insert(std::uint64_t sig, std::int64_t& recent_hits);

  /// insert() that books its tier-0 hit (if any) into the store directly.
  bool insert(std::uint64_t sig) {
    std::int64_t hits = 0;
    const bool fresh = insert(sig, hits);
    add_recent_hits(hits);
    return fresh;
  }

  /// Books tier-0 hits counted by insert(sig, recent_hits) callers.
  void add_recent_hits(std::int64_t n) noexcept {
    if (n != 0) recent_hits_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Unique signatures ever inserted (per-shard counts summed; see
  /// ShardedSigSet::size).
  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  /// True once the in-memory budget was exceeded with no disk tier to
  /// spill into: the sweep's dedup coverage is no longer exhaustive.
  [[nodiscard]] bool mem_exhausted() const noexcept { return mem_.mem_exhausted(); }

  [[nodiscard]] TierStats tier_stats() const;
  [[nodiscard]] const DedupConfig& config() const noexcept { return cfg_; }
  /// Current spill directory ("" when the disk tier is off or never spilled).
  [[nodiscard]] std::string spill_dir() const { return disk_ ? disk_->dir() : std::string(); }

 private:
  DedupConfig cfg_;
  std::unique_ptr<DiskTier> disk_;  ///< null when the disk tier is off
  ShardedSigSet mem_;
  std::uint64_t id_;  ///< nonce binding tier-0 TLS caches to this store
  /// Tier-0 hits handed back by callers. Duplicates of the locked path
  /// (tier 1 or tier 2) are counted per shard by mem_; tier_stats derives
  /// mem_hits as those minus cold_hits.
  std::atomic<std::int64_t> recent_hits_{0};
};

}  // namespace efd
