// Flat open-addressing set of 64-bit exploration signatures.
//
// The dedup set is the hottest container in an exploration sweep: one lookup
// per DFS node, one insert per unseen configuration. std::unordered_set
// allocates a node per insert and chases a bucket pointer per lookup; this
// set stores the signatures in one flat power-of-two array with linear
// probing, so a sweep's dedup traffic performs zero allocations outside the
// (amortized, doubling) table growths.
//
// Semantics match unordered_set::insert().second exactly: first insert wins,
// duplicates report false. Signatures are already avalanche-mixed by the
// explorers (mix64 / content hashes), but the probe index is remixed here
// anyway so a structured signature family cannot cluster the table.
// Not thread-safe; the dedup store (core/diskset.hpp) stripes instances of
// this set behind per-stripe mutexes, and drains a stripe into disk runs
// via drain_into() when it crosses its byte budget.
//
// Slot arrays of kMapBytes and up are mapped straight from the kernel and
// unmapped on free. A table grown on a pool worker would otherwise live in
// that thread's glibc arena, which keeps freed memory: on the workload of
// tests/test_sweep_rss, RSS after a finished 4-thread round crept from 7 to
// 27 MB over six rounds (flat at 1 thread), and peak RSS with it. Fresh
// anonymous pages are zero, which is also the empty-slot marker, so a
// mapped table needs no fill pass.
#pragma once

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

namespace efd {

/// Zero-filled power-of-two array of signature slots (see the file comment
/// for why large ones bypass malloc).
class SlotArray {
 public:
  /// Arrays of this many bytes or more are mmap'd (64 KiB: 8192 slots).
  static constexpr std::size_t kMapBytes = std::size_t{64} << 10;

  explicit SlotArray(std::size_t n) : n_(n) {
    const std::size_t bytes = n * sizeof(std::uint64_t);
    if (bytes >= kMapBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      p_ = static_cast<std::uint64_t*>(p);
    } else {
      p_ = static_cast<std::uint64_t*>(std::calloc(n, sizeof(std::uint64_t)));
      if (p_ == nullptr) throw std::bad_alloc();
    }
  }
  ~SlotArray() { release(); }
  SlotArray(SlotArray&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  SlotArray& operator=(SlotArray&& o) noexcept {
    if (this != &o) {
      release();
      p_ = std::exchange(o.p_, nullptr);
      n_ = std::exchange(o.n_, 0);
    }
    return *this;
  }
  SlotArray(const SlotArray&) = delete;
  SlotArray& operator=(const SlotArray&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  std::uint64_t& operator[](std::size_t i) noexcept { return p_[i]; }
  const std::uint64_t& operator[](std::size_t i) const noexcept { return p_[i]; }
  [[nodiscard]] const std::uint64_t* begin() const noexcept { return p_; }
  [[nodiscard]] const std::uint64_t* end() const noexcept { return p_ + n_; }

 private:
  void release() noexcept {
    if (p_ == nullptr) return;
    const std::size_t bytes = n_ * sizeof(std::uint64_t);
    if (bytes >= kMapBytes) {
      ::munmap(p_, bytes);
    } else {
      std::free(p_);
    }
    p_ = nullptr;
  }

  std::uint64_t* p_ = nullptr;
  std::size_t n_ = 0;
};

class FlatSigSet {
 public:
  FlatSigSet() : slots_(kInitialCap) {}

  /// Inserts `sig`; true iff it was unseen (first insert wins). The load
  /// check runs only when the probe proved the signature fresh: inserting a
  /// duplicate can never grow the table, and the aside-tracked zero
  /// signature never counts toward the load factor (it occupies no slot).
  bool insert(std::uint64_t sig) {
    // 0 cannot live in the table (it marks empty slots); track it aside.
    if (sig == kEmpty) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = probe_start(sig, mask);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == sig) return false;
      i = (i + 1) & mask;
    }
    if ((table_size_ + 1) * 10 >= slots_.size() * 7) {
      grow();
      // The table moved: re-derive the insertion slot (no duplicate can
      // appear — growth only rehashes existing, distinct signatures).
      const std::size_t m2 = slots_.size() - 1;
      i = probe_start(sig, m2);
      while (slots_[i] != kEmpty) i = (i + 1) & m2;
    }
    slots_[i] = sig;
    ++table_size_;
    return true;
  }

  /// True iff `sig` was inserted before. Never grows the table.
  [[nodiscard]] bool contains(std::uint64_t sig) const noexcept {
    if (sig == kEmpty) return has_zero_;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = probe_start(sig, mask);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == sig) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return table_size_ + (has_zero_ ? 1u : 0u);
  }

  /// Bytes held by the slot array (the set's whole footprint; used by the
  /// tiered store's per-shard spill budget).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.size() * sizeof(std::uint64_t);
  }

  /// bytes() of an empty set: the footprint clear() and drain_into() return
  /// to, so no byte budget below it can be met.
  [[nodiscard]] static constexpr std::size_t empty_bytes() noexcept {
    return kInitialCap * sizeof(std::uint64_t);
  }

  /// Moves every stored signature (including an aside-tracked zero) into
  /// `out` (appended, unsorted) and resets the set to its initial capacity,
  /// releasing the table memory. Spill primitive of the tiered store.
  void drain_into(std::vector<std::uint64_t>& out) {
    for (const std::uint64_t sig : slots_) {
      if (sig != kEmpty) out.push_back(sig);
    }
    if (has_zero_) out.push_back(kEmpty);
    clear();
  }

  /// Empties the set and shrinks it back to the initial capacity, releasing
  /// the grown table's memory (the whole point of spilling a shard).
  void clear() {
    slots_ = SlotArray(kInitialCap);
    table_size_ = 0;
    has_zero_ = false;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;  // SlotArray arrives zero-filled
  static constexpr std::size_t kInitialCap = 1024;  // power of two

  [[nodiscard]] static std::size_t probe_start(std::uint64_t sig, std::size_t mask) noexcept {
    return static_cast<std::size_t>((sig * 0x9E3779B97F4A7C15ULL) >> 17) & mask;
  }

  void grow() {
    SlotArray old = std::move(slots_);
    slots_ = SlotArray(old.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t sig : old) {
      if (sig == kEmpty) continue;
      std::size_t i = probe_start(sig, mask);
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = sig;
    }
  }

  SlotArray slots_;
  std::size_t table_size_ = 0;  ///< slots occupied (excludes the aside zero)
  bool has_zero_ = false;
};

}  // namespace efd
