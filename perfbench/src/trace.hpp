// Outside-in tracing for the benchmark: spans recorded around the calls the
// benchmark makes into each layer, and per-thread call counters for the
// probes that fire too often for a span each (task relation checks,
// coroutine builds).
//
// Nothing here reaches inside the library. A span is opened by benchmark
// code right before it calls a public entry point and closed right after,
// so a layer's span time is what its caller waits for. The untraced runs
// that produce the end-to-end numbers pass a null recorder, which turns
// every Span into a no-op.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 for a root span
  std::int64_t run = 0;     ///< request id shared by a root span and its descendants
  std::string name;         ///< "<layer>:<call>", e.g. "core.solvability:explore_k_concurrent"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Collects finished spans in memory; write_spans_jsonl() dumps them once the run
/// ends. Thread-safe: spans may close on any thread.
class SpanRecorder {
 public:
  /// Span ids start at 1 so that 0 can mean "no parent".
  [[nodiscard]] std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(SpanRecord rec);

  /// Parent for spans opened on a thread with no open span of its own:
  /// worker threads of a parallel sweep attach their spans to the sweep.
  void set_ambient(std::int64_t parent, std::int64_t run) {
    ambient_parent_.store(parent);
    ambient_run_.store(run);
  }
  [[nodiscard]] std::int64_t ambient_parent() const { return ambient_parent_.load(); }
  [[nodiscard]] std::int64_t ambient_run() const { return ambient_run_.load(); }

  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::int64_t> ambient_parent_{0};
  std::atomic<std::int64_t> ambient_run_{0};
};

/// RAII span. With a null recorder it records nothing. The parent is the
/// innermost open span on this thread, else the recorder's ambient parent.
/// `run` < 0 inherits the parent's run id.
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, std::int64_t run = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const { return rec_.id; }
  [[nodiscard]] std::int64_t run() const { return rec_.run; }

 private:
  SpanRecorder* recorder_;
  SpanRecord rec_;
};

/// Writes one JSON object per span and line; false when the file cannot be
/// written.
[[nodiscard]] bool write_spans_jsonl(const std::vector<SpanRecord>& spans,
                                     const std::string& path);

/// Per-name totals of a span set. Self time is span time minus the part of
/// its interval covered by the union of its children's intervals.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> summarize_spans(
    const std::vector<SpanRecord>& spans);
/// Same totals folded by layer (the part of the name before ':').
[[nodiscard]] std::map<std::string, SpanTotals> summarize_layers(
    const std::vector<SpanRecord>& spans);
/// Empty when every child starts and ends inside its parent and every parent
/// id names a recorded span; otherwise a description of the first offender.
[[nodiscard]] std::string check_nesting(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Probe counters: calls and nanoseconds per probe, one cache-line-aligned
// block per thread (the owner writes, summaries read with relaxed atomics),
// so timing a call made millions of times by four explorer threads costs two
// clock reads and no shared cache line.
// ---------------------------------------------------------------------------

enum class Probe : int { kRelation, kPickOutput, kSpawn, kWorldBuild, kCount };
constexpr std::size_t kProbeCount = static_cast<std::size_t>(Probe::kCount);

struct ProbeTotals {
  std::array<std::int64_t, kProbeCount> calls{};
  std::array<std::int64_t, kProbeCount> ns{};

  [[nodiscard]] std::int64_t calls_of(Probe p) const { return calls[static_cast<std::size_t>(p)]; }
  [[nodiscard]] double seconds_of(Probe p) const {
    return static_cast<double>(ns[static_cast<std::size_t>(p)]) * 1e-9;
  }
};

void probe_add(Probe p, std::int64_t ns);
/// Sum over every thread that ever recorded a probe.
[[nodiscard]] ProbeTotals probe_totals();
/// Zeroes every block. Call only while no probed call is running.
void probe_reset();

}  // namespace perfbench
