// Small concurrency utilities for the parallel exploration frontier
// (core/solvability, core/bivalence):
//
//  * WorkStealingPool — batch executor: a fixed set of tasks is dealt
//    round-robin onto per-worker deques; each worker drains its own deque
//    LIFO and steals FIFO from the others when empty. No dynamic task
//    spawning — the explorers shard a DFS frontier up front, so a worker
//    may exit as soon as every deque is empty.
//
//  * ShardedSigSet — concurrent signature (de-dup) set: 64 mutex-striped
//    hash sets keyed by a mixed shard index, one cache line per stripe, so
//    an insert writes no line but its own stripe's. insert() is
//    first-insert-wins, which is what makes the parallel explorers'
//    clean-sweep state counts thread-count-invariant (see DESIGN.md,
//    "Exploration engine"). It is also the hot middle tier of the tiered
//    dedup store (core/diskset.hpp): an optional per-shard byte budget +
//    ColdTier hook spill overflowing shards to bloom-prefiltered disk runs,
//    all under the shard mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sigset.hpp"

namespace efd {

/// Telemetry of one WorkStealingPool::run call. Steals count tasks a worker
/// pulled from ANOTHER worker's deque — a measure of how unevenly the
/// frontier shards were sized, not of correctness (clean-sweep outcomes are
/// thread-count-invariant regardless).
struct PoolStats {
  std::int64_t tasks = 0;                 ///< tasks executed in total
  std::int64_t steals = 0;                ///< tasks executed off a foreign deque
  std::vector<std::int64_t> per_worker;   ///< tasks executed by each worker
};

class WorkStealingPool {
 public:
  /// Runs every task to completion on `threads` workers (the calling thread
  /// is worker 0; `threads - 1` std::threads are spawned). Exceptions thrown
  /// by tasks are rethrown on the calling thread after all workers join
  /// (first one wins). threads <= 1 degenerates to a sequential loop.
  /// `stats`, when non-null, is overwritten with this run's telemetry.
  static void run(std::vector<std::function<void()>>&& tasks, int threads,
                  PoolStats* stats = nullptr);
};

/// Resident variant of WorkStealingPool: a fixed crew of worker threads is
/// spawned once and parked on a condition variable between run() calls.
/// Batch semantics are identical to WorkStealingPool::run (calling thread
/// is worker 0, LIFO own-deque / FIFO steal, first task exception rethrown
/// after the batch completes) — but the crew persists, so thread-local
/// state stays warm across batches. That matters for callers issuing many
/// small batches: the campaign farm runs thousands of batches per minute,
/// and per-call std::thread spawn left every batch's workers with cold
/// register-interner memos and allocator arenas (measured as NEGATIVE
/// scaling — 8 workers slower than 1 — before this class existed).
class ResidentPool {
 public:
  /// Spawns `threads - 1` persistent workers (clamped to >= 1; with one
  /// thread every run() degenerates to an inline sequential loop).
  explicit ResidentPool(int threads);
  ~ResidentPool();
  ResidentPool(const ResidentPool&) = delete;
  ResidentPool& operator=(const ResidentPool&) = delete;

  /// Runs every task to completion and returns once all have finished.
  /// The calling thread participates as worker 0. Not reentrant: callers
  /// must not overlap run() invocations on the same pool.
  void run(std::vector<std::function<void()>>&& tasks, PoolStats* stats = nullptr);

  [[nodiscard]] int threads() const noexcept { return threads_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< null when threads_ == 1
  int threads_ = 1;
};

/// Cache-line size the concurrent structures pad their hot members to.
inline constexpr std::size_t kCacheLine = 64;

/// Adds `n` to a counter that is only ever written under one mutex: a
/// relaxed load + store, no locked RMW. Lock-free readers see it grow
/// monotonically.
inline void bump_locked(std::atomic<std::int64_t>& c, std::int64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Sums one bump_locked counter over an array of shards, one relaxed load
/// each. Every per-shard count only grows, so one reader's successive sums
/// never go backwards.
template <class Shards, class Shard>
[[nodiscard]] std::int64_t sum_shards(const Shards& shards,
                                      std::atomic<std::int64_t> Shard::*field) noexcept {
  std::int64_t n = 0;
  for (const Shard& s : shards) n += (s.*field).load(std::memory_order_relaxed);
  return n;
}

class ShardedSigSet {
 public:
  static constexpr std::size_t kShards = 64;

  /// Cold storage a shard overflows into (core/diskset.hpp implements this
  /// over bloom-prefiltered mmap'd sorted runs). Both methods are invoked
  /// UNDER the owning shard's mutex, so per-shard cold state needs no
  /// further synchronization.
  class ColdTier {
   public:
    virtual ~ColdTier() = default;
    /// True iff `sig` was spilled to this shard's cold storage earlier.
    virtual bool contains(std::size_t shard, std::uint64_t sig) = 0;
    /// Moves the shard's in-memory contents to cold storage (the set is
    /// drained and reset to its initial footprint).
    virtual void spill(std::size_t shard, FlatSigSet& set) = 0;
  };

  ShardedSigSet() = default;
  /// Budgeted form: when a shard's table crosses `shard_byte_budget` bytes
  /// after an insert, it is spilled into `cold` — or, with no cold tier,
  /// the set latches mem_exhausted() so the sweep can stop and report a
  /// lower bound instead of growing without bound.
  ShardedSigSet(std::size_t shard_byte_budget, ColdTier* cold)
      : shard_budget_(shard_byte_budget), cold_(cold) {}

  /// True iff `sig` was not present in the shard OR its cold storage (first
  /// insert wins). Thread-safe; the whole probe-insert-spill sequence holds
  /// the shard mutex, which is what keeps clean-sweep counts
  /// thread-count-invariant with the disk tier active. Touches no cache
  /// line but the shard's own: the shard's counters are bumped under its
  /// mutex, and shards are padded to a line each.
  bool insert(std::uint64_t sig) {
    const std::size_t idx = shard_of(sig);
    Shard& s = shards_[idx];
    std::lock_guard<std::mutex> lk(s.mu);
    bool fresh = false;
    if (cold_ == nullptr && shard_budget_ == 0) {
      fresh = s.set.insert(sig);
    } else if (!s.set.contains(sig) && (cold_ == nullptr || !cold_->contains(idx, sig))) {
      fresh = true;
      s.set.insert(sig);
      if (shard_budget_ != 0 && s.set.bytes() > shard_budget_) {
        if (cold_ != nullptr) {
          cold_->spill(idx, s.set);
        } else {
          mem_exhausted_.store(true, std::memory_order_relaxed);
        }
      }
    }
    bump_locked(fresh ? s.inserted : s.duplicates);
    return fresh;
  }

  /// Signatures ever first-inserted (in-memory + spilled): the per-shard
  /// counts summed without locking (monotone for any one reader).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(sum_shards(shards_, &Shard::inserted));
  }

  /// insert() calls that reported a duplicate (summed like size()).
  [[nodiscard]] std::int64_t duplicates() const noexcept {
    return sum_shards(shards_, &Shard::duplicates);
  }

  /// True once any shard crossed its byte budget with no cold tier to spill
  /// into (memory-capped mem-only mode).
  [[nodiscard]] bool mem_exhausted() const noexcept {
    return mem_exhausted_.load(std::memory_order_relaxed);
  }

  /// Bytes currently held by the in-memory shard tables (snapshot; shards
  /// are sampled one at a time).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lk(s.mu);
      n += s.set.bytes();
    }
    return n;
  }

 private:
  static std::size_t shard_of(std::uint64_t sig) noexcept {
    // Fibonacci mix so consecutive sigs don't pile onto one stripe.
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 58) % kShards;
  }

  /// One stripe per cache line (or more): packed, neighbouring stripes
  /// would share lines, and an insert on one would invalidate the others'
  /// lines on every other core.
  struct alignas(kCacheLine) Shard {
    mutable std::mutex mu;
    FlatSigSet set;  ///< flat probing set: no node alloc per insert
    std::atomic<std::int64_t> inserted{0};    ///< first inserts (written under mu)
    std::atomic<std::int64_t> duplicates{0};  ///< duplicate inserts (written under mu)
  };

  Shard shards_[kShards];
  std::size_t shard_budget_ = 0;  ///< bytes per shard; 0 = unlimited
  ColdTier* cold_ = nullptr;      ///< overflow target; null = latch exhaustion
  std::atomic<bool> mem_exhausted_{false};
};

}  // namespace efd
