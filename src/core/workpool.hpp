// The thread pool behind every parallel search (the exploration frontier
// in core/solvability, max_clean_level, core/bivalence's lasso shards) and
// the campaign farm (core/campaign).
//
// ResidentPool is a batch executor: a fixed set of tasks is dealt
// round-robin onto per-worker deques; each worker drains its own deque LIFO
// and steals FIFO from the others when empty. No dynamic task spawning — the
// callers shard their work up front, so a worker may stop as soon as every
// deque is empty. The crew is spawned once per pool and parked between
// batches; one-shot callers build a pool for the call.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace efd {

/// Telemetry of one ResidentPool::run call. Steals count tasks a worker
/// pulled from ANOTHER worker's deque — a measure of how unevenly the
/// frontier shards were sized, not of correctness (clean-sweep outcomes are
/// thread-count-invariant regardless).
struct PoolStats {
  std::int64_t tasks = 0;                 ///< tasks executed in total
  std::int64_t steals = 0;                ///< tasks executed off a foreign deque
  std::vector<std::int64_t> per_worker;   ///< tasks executed by each worker
};

/// A fixed crew of worker threads, spawned once and parked on a condition
/// variable between run() calls. The calling thread is worker 0, workers
/// pop their own deque LIFO and steal FIFO, and the first task exception is
/// rethrown after the batch completes. The crew persists, so thread-local
/// state stays warm across batches. That matters for callers issuing many
/// small batches: the campaign farm runs thousands of batches per minute,
/// and per-batch std::thread spawn left every batch's workers with cold
/// register-interner memos and allocator arenas (measured as NEGATIVE
/// scaling — 8 workers slower than 1).
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

}  // namespace efd
