#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::add(SpanRecord rec) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool write_spans_jsonl(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  for (const SpanRecord& s : spans) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
      << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(f);
}

namespace {

struct OpenSpan {
  std::int64_t id;
  std::int64_t run;
};
thread_local std::vector<OpenSpan> t_open;

}  // namespace

Span::Span(SpanRecorder* rec, std::string name, std::int64_t run) : recorder_(rec) {
  if (recorder_ == nullptr) return;
  rec_.id = recorder_->next_id();
  if (!t_open.empty()) {
    rec_.parent = t_open.back().id;
    rec_.run = t_open.back().run;
  } else {
    rec_.parent = recorder_->ambient_parent();
    rec_.run = recorder_->ambient_run();
  }
  if (run >= 0) rec_.run = run;
  rec_.name = std::move(name);
  t_open.push_back({rec_.id, rec_.run});
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  rec_.end_ns = now_ns();
  t_open.pop_back();
  recorder_->add(std::move(rec_));
}

namespace {

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
                     std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = -1;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::string layer_of(const std::string& name) {
  const auto colon = name.find(':');
  return colon == std::string::npos ? name : name.substr(0, colon);
}

std::map<std::string, SpanTotals> summarize(const std::vector<SpanRecord>& spans,
                                            bool by_layer) {
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = kids.find(s.id);
    const std::int64_t child =
        it == kids.end() ? 0 : covered(it->second, s.start_ns, s.end_ns);
    SpanTotals& t = out[by_layer ? layer_of(s.name) : s.name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child) * 1e-9;
  }
  return out;
}

}  // namespace

std::map<std::string, SpanTotals> summarize_spans(const std::vector<SpanRecord>& spans) {
  return summarize(spans, false);
}

std::map<std::string, SpanTotals> summarize_layers(const std::vector<SpanRecord>& spans) {
  return summarize(spans, true);
}

std::string check_nesting(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.end_ns < s.start_ns) return s.name + " ends before it starts";
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) return s.name + " names an unrecorded parent";
    const SpanRecord& p = *it->second;
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return s.name + " is not inside its parent " + p.name;
    }
    if (s.run != p.run) return s.name + " has another run id than its parent " + p.name;
  }
  return "";
}

// ---------------------------------------------------------------------------

namespace {

struct alignas(64) ProbeBlock {
  std::array<std::atomic<std::int64_t>, kProbeCount> calls{};
  std::array<std::atomic<std::int64_t>, kProbeCount> ns{};
};

struct ProbeRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ProbeBlock>> blocks;  ///< guarded by mu; never shrinks
};

ProbeRegistry& registry() {
  static ProbeRegistry r;
  return r;
}

ProbeBlock& my_block() {
  thread_local ProbeBlock* mine = [] {
    ProbeRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.blocks.push_back(std::make_unique<ProbeBlock>());
    return r.blocks.back().get();
  }();
  return *mine;
}

}  // namespace

void probe_add(Probe p, std::int64_t ns) {
  ProbeBlock& b = my_block();
  const auto i = static_cast<std::size_t>(p);
  // Single writer per block: a relaxed load + store is enough and avoids a
  // locked read-modify-write on the hot path.
  b.calls[i].store(b.calls[i].load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  b.ns[i].store(b.ns[i].load(std::memory_order_relaxed) + ns, std::memory_order_relaxed);
}

ProbeTotals probe_totals() {
  ProbeTotals t;
  ProbeRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& b : r.blocks) {
    for (std::size_t i = 0; i < kProbeCount; ++i) {
      t.calls[i] += b->calls[i].load(std::memory_order_relaxed);
      t.ns[i] += b->ns[i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

void probe_reset() {
  ProbeRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& b : r.blocks) {
    for (std::size_t i = 0; i < kProbeCount; ++i) {
      b->calls[i].store(0, std::memory_order_relaxed);
      b->ns[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace perfbench
