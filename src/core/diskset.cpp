#include "core/diskset.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/hash.hpp"

namespace efd {
namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("diskset: " + what + ": " + std::strerror(errno));
}

std::string default_dir_root() {
  if (const char* d = std::getenv("EFD_DEDUP_DIR"); d != nullptr && *d != '\0') return d;
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') return t;
  return "/tmp";
}

/// Tier-0 cache: one direct-mapped signature array per (thread, store).
/// `owner` is the owning store's nonce — a thread that alternates between
/// stores simply re-seeds the array. Only signatures that are KNOWN inserted
/// are written here, so a hit is always a true duplicate. Signature 0 is
/// never cached (0 marks an empty slot).
struct RecentCache {
  std::uint64_t owner = 0;
  std::vector<std::uint64_t> slots;
};
thread_local RecentCache t_recent;

std::atomic<std::uint64_t> g_store_nonce{1};

/// Adds one to a counter that is only ever written under one mutex: a
/// relaxed load + store, no locked RMW. Lock-free readers see it grow
/// monotonically.
void bump_locked(std::atomic<std::int64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

/// Tier 2: per-stripe bloom prefilter + mmap'd disjoint sorted runs. Every
/// per-stripe call arrives under that stripe's TieredSigSet mutex, so
/// per-stripe state needs no further synchronization.
class DiskTier {
 public:
  /// `dir_root`: where the (lazily created, mkdtemp-named) spill directory
  /// goes; resolved via DedupConfig rules when empty.
  explicit DiskTier(std::string dir_root);
  ~DiskTier();
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// True iff `sig` was spilled to this stripe's runs earlier.
  bool contains(std::size_t shard, std::uint64_t sig);
  /// Moves the stripe's in-memory contents to a run (the set is drained
  /// and reset to its initial footprint).
  void spill(std::size_t shard, FlatSigSet& set);

  /// Copies this tier's counters into `t` (all but the tier-0 and
  /// in-memory hits, which the store counts).
  void copy_stats(TierStats& t) const noexcept;
  /// The mkdtemp'd spill directory ("" until the first spill creates it).
  [[nodiscard]] std::string dir() const;

  /// Runs per stripe before a merge compacts them into one.
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
  /// One cache line (or more) per stripe: the probe counters are bumped on
  /// every in-memory miss, under the owning stripe's mutex.
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
  mutable std::mutex dir_mu_;  ///< guards lazy creation of dir_ across stripes
  std::string dir_;
  std::atomic<std::uint64_t> run_seq_{0};
  std::vector<Shard> shards_;

  // Spill-side counters: bumped once per spill or merge, not per probe.
  std::atomic<std::int64_t> spills_{0};
  std::atomic<std::int64_t> spilled_sigs_{0};
  std::atomic<std::int64_t> spill_bytes_{0};
  std::atomic<std::int64_t> merges_{0};
};

// ---------------------------------------------------------------------------
// DedupConfig
// ---------------------------------------------------------------------------

DedupConfig DedupConfig::from_env() {
  DedupConfig cfg;
  if (const char* t = std::getenv("EFD_DEDUP_TIERS"); t != nullptr && *t != '\0') {
    const std::string tiers(t);
    if (tiers == "tiered" || tiers == "disk") {
      cfg.disk_tier = true;
    } else if (tiers != "mem") {
      throw std::runtime_error("EFD_DEDUP_TIERS must be \"mem\" or \"tiered\", got \"" + tiers +
                               "\"");
    }
  }
  if (const char* m = std::getenv("EFD_DEDUP_MEM_MB"); m != nullptr && *m != '\0') {
    char* end = nullptr;
    const long long mb = std::strtoll(m, &end, 10);
    if (end == m || *end != '\0' || mb < 0) {
      throw std::runtime_error("EFD_DEDUP_MEM_MB must be a non-negative integer");
    }
    cfg.mem_budget_bytes = static_cast<std::size_t>(mb) * 1024 * 1024;
  }
  if (const char* d = std::getenv("EFD_DEDUP_DIR"); d != nullptr && *d != '\0') {
    cfg.spill_dir = d;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// DiskTier::Bloom — two-probe bloom filter at ~16 bits per expected key
// (false-positive rate ≈ 1.5%; every positive is verified against the runs,
// so a false positive costs a binary search, never a wrong answer).
// ---------------------------------------------------------------------------

void DiskTier::Bloom::reset(std::size_t expected_keys) {
  std::size_t bits = 1024;
  while (bits < expected_keys * 16) bits *= 2;
  words.assign(bits / 64, 0);
}

void DiskTier::Bloom::add(std::uint64_t sig) noexcept {
  const std::uint64_t h = mix64(sig);
  const std::uint64_t mask = words.size() * 64 - 1;
  const std::uint64_t b1 = h & mask;
  const std::uint64_t b2 = (h >> 32 | h << 32) & mask;
  words[b1 / 64] |= 1ULL << (b1 % 64);
  words[b2 / 64] |= 1ULL << (b2 % 64);
}

bool DiskTier::Bloom::maybe(std::uint64_t sig) const noexcept {
  if (words.empty()) return false;
  const std::uint64_t h = mix64(sig);
  const std::uint64_t mask = words.size() * 64 - 1;
  const std::uint64_t b1 = h & mask;
  const std::uint64_t b2 = (h >> 32 | h << 32) & mask;
  return (words[b1 / 64] >> (b1 % 64) & 1) != 0 && (words[b2 / 64] >> (b2 % 64) & 1) != 0;
}

// ---------------------------------------------------------------------------
// DiskTier
// ---------------------------------------------------------------------------

DiskTier::DiskTier(std::string dir_root)
    : dir_root_(dir_root.empty() ? default_dir_root() : std::move(dir_root)),
      shards_(TieredSigSet::kShards) {}

DiskTier::~DiskTier() {
  for (Shard& s : shards_) {
    for (Run& r : s.runs) drop_run(r);
  }
  if (!dir_.empty()) ::rmdir(dir_.c_str());  // runs are unlinked at mmap time
}

std::string DiskTier::dir() const {
  std::lock_guard<std::mutex> lk(dir_mu_);
  return dir_;
}

void DiskTier::ensure_dir() {
  std::lock_guard<std::mutex> lk(dir_mu_);
  if (!dir_.empty()) return;
  std::string tmpl = dir_root_ + "/efd-dedup-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) die("mkdtemp " + tmpl);
  dir_.assign(buf.data());
}

/// Writes `sigs` (sorted, distinct) as one run file, maps it read-only and
/// unlinks it immediately — the mapping keeps the data alive, the directory
/// entry never outlives a crash.
DiskTier::Run DiskTier::write_run(const std::vector<std::uint64_t>& sigs, std::size_t shard) {
  ensure_dir();
  const std::string path = dir_ + "/shard" + std::to_string(shard) + "-run" +
                           std::to_string(run_seq_.fetch_add(1, std::memory_order_relaxed)) +
                           ".sigs";
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) die("open " + path);
  const auto* bytes = reinterpret_cast<const char*>(sigs.data());
  std::size_t total = sigs.size() * sizeof(std::uint64_t);
  std::size_t off = 0;
  while (off < total) {
    const ssize_t n = ::write(fd, bytes + off, total - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(path.c_str());
      die("write " + path);
    }
    off += static_cast<std::size_t>(n);
  }
  Run r;
  r.bytes = total;
  r.count = sigs.size();
  r.map = ::mmap(nullptr, total, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  ::unlink(path.c_str());
  if (r.map == MAP_FAILED) die("mmap " + path);
  r.data = static_cast<const std::uint64_t*>(r.map);
  return r;
}

void DiskTier::copy_stats(TierStats& t) const noexcept {
  t.cold_probes = sum_shards(shards_, &Shard::cold_probes);
  t.bloom_skips = sum_shards(shards_, &Shard::bloom_skips);
  t.cold_hits = sum_shards(shards_, &Shard::cold_hits);
  t.spills = spills_.load(std::memory_order_relaxed);
  t.spilled_sigs = spilled_sigs_.load(std::memory_order_relaxed);
  t.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
  t.merges = merges_.load(std::memory_order_relaxed);
}

void DiskTier::drop_run(Run& r) noexcept {
  if (r.map != nullptr && r.map != MAP_FAILED) ::munmap(r.map, r.bytes);
  r = Run{};
}

bool DiskTier::contains(std::size_t shard, std::uint64_t sig) {
  Shard& s = shards_[shard];
  if (s.runs.empty()) return false;
  bump_locked(s.cold_probes);
  if (!s.bloom.maybe(sig)) {
    bump_locked(s.bloom_skips);
    return false;
  }
  // Newest-first: DFS dedup hits skew heavily toward recent spills.
  for (auto it = s.runs.rbegin(); it != s.runs.rend(); ++it) {
    if (std::binary_search(it->data, it->data + it->count, sig)) {
      bump_locked(s.cold_hits);
      return true;
    }
  }
  return false;
}

void DiskTier::spill(std::size_t shard, FlatSigSet& set) {
  Shard& s = shards_[shard];
  s.scratch.clear();
  set.drain_into(s.scratch);
  if (s.scratch.empty()) return;
  std::sort(s.scratch.begin(), s.scratch.end());
  Run r = write_run(s.scratch, shard);
  if (s.runs.empty()) s.bloom.reset(s.scratch.size() * 4);
  for (const std::uint64_t sig : s.scratch) s.bloom.add(sig);
  s.runs.push_back(r);
  s.spilled += s.scratch.size();
  spills_.fetch_add(1, std::memory_order_relaxed);
  spilled_sigs_.fetch_add(static_cast<std::int64_t>(s.scratch.size()),
                          std::memory_order_relaxed);
  spill_bytes_.fetch_add(static_cast<std::int64_t>(r.bytes), std::memory_order_relaxed);
  if (s.runs.size() >= kMergeRuns) merge_shard(s, shard);
}

/// Compacts a shard's runs into one and re-sizes the bloom for the merged
/// population (an in-place bloom saturates as spills accumulate; the merge
/// checkpoint is where it is rebuilt at the target bits-per-key). Runs of
/// one shard are disjoint — a signature is only ever inserted after missing
/// the cold tier — so this is a pure k-way merge without dedup.
void DiskTier::merge_shard(Shard& s, std::size_t shard_idx) {
  s.scratch.clear();
  s.scratch.reserve(s.spilled);
  for (const Run& r : s.runs) s.scratch.insert(s.scratch.end(), r.data, r.data + r.count);
  std::sort(s.scratch.begin(), s.scratch.end());
  Run merged = write_run(s.scratch, shard_idx);
  for (Run& r : s.runs) drop_run(r);
  s.runs.clear();
  s.runs.push_back(merged);
  s.bloom.reset(s.scratch.size());
  for (const std::uint64_t sig : s.scratch) s.bloom.add(sig);
  merges_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TieredSigSet
// ---------------------------------------------------------------------------

namespace {
std::size_t per_shard_budget(const DedupConfig& cfg) noexcept {
  if (cfg.mem_budget_bytes == 0) return 0;
  // Floor at an empty stripe's own footprint: a share below it is exceeded
  // by the first insert into a freshly drained stripe, so every fresh insert
  // would spill a one-signature run.
  return std::max<std::size_t>(cfg.mem_budget_bytes / TieredSigSet::kShards,
                               FlatSigSet::empty_bytes());
}
}  // namespace

TieredSigSet::TieredSigSet(const DedupConfig& cfg)
    : disk_(cfg.disk_tier ? std::make_unique<DiskTier>(cfg.spill_dir) : nullptr),
      shard_budget_(per_shard_budget(cfg)),
      id_(g_store_nonce.fetch_add(1, std::memory_order_relaxed)) {}

TieredSigSet::~TieredSigSet() = default;

bool TieredSigSet::insert(std::uint64_t sig, std::int64_t& recent_hits) {
  RecentCache& rc = t_recent;
  if (rc.owner != id_) {
    rc.owner = id_;
    rc.slots.assign(kRecentSlots, 0);
  }
  const std::size_t slot = static_cast<std::size_t>(mix64(sig)) & (kRecentSlots - 1);
  if (sig != 0 && rc.slots[slot] == sig) {
    ++recent_hits;
    return false;
  }

  const std::size_t idx = shard_of(sig);
  Shard& s = shards_[idx];
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (disk_ == nullptr) {
      fresh = s.set.insert(sig);
    } else if (!s.set.contains(sig) && !disk_->contains(idx, sig)) {
      fresh = true;
      s.set.insert(sig);
    }
    if (fresh && shard_budget_ != 0 && s.set.bytes() > shard_budget_) {
      if (disk_ != nullptr) {
        disk_->spill(idx, s.set);
      } else {
        mem_exhausted_.store(true, std::memory_order_relaxed);
      }
    }
    bump_locked(fresh ? s.inserted : s.duplicates);
  }
  rc.slots[slot] = sig;
  return fresh;
}

TierStats TieredSigSet::tier_stats() const {
  TierStats t;
  t.recent_hits = recent_hits_.load(std::memory_order_relaxed);
  if (disk_) disk_->copy_stats(t);
  t.mem_hits = std::max<std::int64_t>(0, sum_shards(shards_, &Shard::duplicates) - t.cold_hits);
  return t;
}

std::string TieredSigSet::spill_dir() const { return disk_ ? disk_->dir() : std::string(); }

}  // namespace efd
