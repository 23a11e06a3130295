// The exploration dedup store (DESIGN.md 4f): the one signature set every
// sweep uses, sequential or parallel, capped or not.
//
// An exhaustive sweep asks "seen this configuration?" once per node, from
// one thread or many, and a large sweep's 10⁸–10⁹ signatures exhaust memory
// long before the schedule tree is covered. The store answers from three
// layers:
//
//   tier 0  per-thread recent-signature cache — a direct-mapped, completely
//           unsynchronized array of kRecentSlots signatures this thread
//           recently proved present. A hit answers "duplicate" with no
//           lock. Only definitely-inserted signatures enter the cache, so a
//           hit can never lose a state.
//   tier 1  kShards mutex stripes, one FlatSigSet (core/sigset.hpp) each —
//           the authoritative in-memory set, with an optional per-stripe
//           byte budget. Each stripe is padded to its own cache line(s), so
//           an insert writes no line but its own stripe's.
//   tier 2  an optional disk tier — per stripe, a bloom prefilter in front
//           of mmap'd sorted runs. When a stripe crosses its budget it is
//           drained, sorted, written to a run file and dropped from RAM;
//           runs are merged (and the bloom rebuilt) whenever a stripe
//           accumulates kMergeRuns of them. Because a signature is only
//           inserted into tier 1 after missing tier 2, the runs of one
//           stripe are DISJOINT sorted arrays — merging never needs to
//           dedup, and the store's total size is the plain sum of tier
//           sizes.
//
// First-insert-wins is exact: the entire probe (mem table → bloom → runs)
// and the insert happen under the owning stripe's mutex, so clean-sweep
// state counts are thread-count-invariant whatever the configuration (see
// DESIGN.md, "Exploration engine"). With a byte budget but no disk tier the
// store latches mem_exhausted() and the sweep reports a lower bound.
//
// Run files are unlinked immediately after mmap, so a crash can never leak
// spill files; the per-store spill directory (created lazily under
// EFD_DEDUP_DIR / $TMPDIR / /tmp) is removed on destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/sigset.hpp"

namespace efd {

/// Configuration of one dedup store. Default-constructed = in memory, no
/// budget; from_env() reads:
///   EFD_DEDUP_TIERS   "mem" (default) | "tiered" (alias "disk")
///   EFD_DEDUP_MEM_MB  in-memory byte budget in MiB (0 / unset = unlimited)
///   EFD_DEDUP_DIR     spill directory root (default $TMPDIR, then /tmp)
struct DedupConfig {
  bool disk_tier = false;            ///< spill overflowing stripes to disk
  std::size_t mem_budget_bytes = 0;  ///< total in-memory cap; 0 = unlimited
  std::string spill_dir;             ///< root for run files; "" = env default

  [[nodiscard]] static DedupConfig from_env();
};

/// Per-tier traffic of one store (all counters monotone; snapshot via
/// TieredSigSet::tier_stats). Deterministic only for single-threaded sweeps:
/// which tier answers a duplicate depends on thread interleaving.
struct TierStats {
  std::int64_t recent_hits = 0;   ///< duplicates answered by the tier-0 cache
  std::int64_t mem_hits = 0;      ///< duplicates found in the in-memory stripe
  std::int64_t cold_probes = 0;   ///< in-memory misses that consulted tier 2
  std::int64_t bloom_skips = 0;   ///< cold probes settled by the bloom alone
  std::int64_t cold_hits = 0;     ///< duplicates found in an mmap'd run
  std::int64_t spills = 0;        ///< stripe drains to disk
  std::int64_t spilled_sigs = 0;  ///< signatures moved to disk in total
  std::int64_t spill_bytes = 0;   ///< bytes written to run files in total
  std::int64_t merges = 0;        ///< per-stripe run merges
};

/// Cache-line size the concurrent structures pad their hot members to.
inline constexpr std::size_t kCacheLine = 64;

/// Sums one per-shard counter, written only under its shard's mutex, over
/// an array of shards, one relaxed load each. Every per-shard count only
/// grows, so one reader's successive sums never go backwards.
template <class Shards, class Shard>
[[nodiscard]] std::int64_t sum_shards(const Shards& shards,
                                      std::atomic<std::int64_t> Shard::*field) noexcept {
  std::int64_t n = 0;
  for (const Shard& s : shards) n += (s.*field).load(std::memory_order_relaxed);
  return n;
}

/// Tier 2 (core/diskset.cpp): per-stripe bloom prefilter + mmap'd disjoint
/// sorted runs, called under the owning stripe's mutex.
class DiskTier;

/// The dedup store. insert() is first-insert-wins and thread-safe; which
/// inserts report fresh is IDENTICAL to a flat in-memory set on every
/// workload — the tiers only change where duplicates are detected and
/// where memory lives.
class TieredSigSet {
 public:
  static constexpr std::size_t kShards = 64;

  explicit TieredSigSet(const DedupConfig& cfg = {});
  ~TieredSigSet();
  TieredSigSet(const TieredSigSet&) = delete;
  TieredSigSet& operator=(const TieredSigSet&) = delete;

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

  /// Signatures ever first-inserted (in memory + spilled): the per-stripe
  /// counts summed without locking (monotone for any one reader).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(sum_shards(shards_, &Shard::inserted));
  }

  /// True once the in-memory budget was exceeded with no disk tier to
  /// spill into: the sweep's dedup coverage is no longer exhaustive.
  [[nodiscard]] bool mem_exhausted() const noexcept {
    return mem_exhausted_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] TierStats tier_stats() const;
  /// Current spill directory ("" when the disk tier is off or never spilled).
  [[nodiscard]] std::string spill_dir() const;

 private:
  /// Tier-0 cache slots per (thread, store); a power of two.
  static constexpr std::size_t kRecentSlots = std::size_t{1} << 12;

  static std::size_t shard_of(std::uint64_t sig) noexcept {
    // Fibonacci mix so consecutive sigs don't pile onto one stripe.
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 58) % kShards;
  }

  /// One stripe per cache line (or more): packed, neighbouring stripes
  /// would share lines, and an insert on one would invalidate the others'
  /// lines on every other core.
  struct alignas(kCacheLine) Shard {
    std::mutex mu;
    FlatSigSet set;  ///< flat probing set: no node alloc per insert
    std::atomic<std::int64_t> inserted{0};    ///< first inserts (written under mu)
    std::atomic<std::int64_t> duplicates{0};  ///< duplicate inserts (written under mu)
  };

  Shard shards_[kShards];
  std::unique_ptr<DiskTier> disk_;  ///< null when the disk tier is off
  std::size_t shard_budget_ = 0;    ///< bytes per stripe; 0 = unlimited
  std::uint64_t id_;                ///< nonce binding tier-0 TLS caches to this store
  std::atomic<bool> mem_exhausted_{false};
  /// Tier-0 hits handed back by callers. Duplicates of the locked path
  /// (tier 1 or tier 2) are counted per stripe; tier_stats derives
  /// mem_hits as those minus cold_hits.
  std::atomic<std::int64_t> recent_hits_{0};
};

}  // namespace efd
