#include "core/solvability.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/diskset.hpp"
#include "core/workpool.hpp"
#include "sim/hash.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

constexpr std::uint64_t kDecidedSalt = 7919u;

/// The world an engine explores in: the configured factory (substrate
/// installs, MP worlds) or the legacy pure-register default.
World make_explore_world(const ExploreConfig& cfg) {
  return cfg.world_factory ? cfg.world_factory() : World::failure_free(1);
}

// ---------------------------------------------------------------------------
// Budget + dedup context: the one piece of exploration state that is shared
// when the frontier is sharded over threads (see DESIGN.md for why the
// clean-sweep outcome is nevertheless thread-count-invariant).
//
// The hot path writes no shared cache line per node except the node's own
// dedup stripe. Every explorer counts into a private Tally and adds it in
// once, when its outcome is taken; the max_states budget is drawn from one
// atomic in chunks. A lone explorer draws its chunks one after another and
// fails exactly on the first state past max_states, so a sequential sweep's
// count is the per-node count.
// ---------------------------------------------------------------------------

/// One explorer's private counters (the probe, each frontier job, or the
/// sequential engine): plain increments, handed to ExploreContext::absorb
/// once.
struct Tally {
  std::int64_t states = 0;       ///< states charged (incl. an over-budget one)
  std::int64_t queries = 0;      ///< dedup lookups
  std::int64_t misses = 0;       ///< lookups that inserted
  std::int64_t recent_hits = 0;  ///< duplicates answered by the tier-0 cache
  std::int64_t grant = 0;        ///< budget reserved and not yet charged
};

class ExploreContext {
 public:
  ExploreContext(std::int64_t max_states, const DedupConfig& store)
      : budget_left_(std::max<std::int64_t>(max_states, 0)), store_(store) {}

  /// States one reservation grants an explorer. A parallel sweep can
  /// therefore give up at most threads × kBudgetChunk states short of
  /// max_states (other workers' unspent grants); it then reruns
  /// sequentially, which decides exactly.
  static constexpr std::int64_t kBudgetChunk = 1024;

  /// Counts one state against the budget; false once the budget is gone
  /// (the over-budget state is still counted, matching the legacy engine).
  bool charge(Tally& t) {
    // A memory-capped store that overflowed with no disk tier aborts the
    // sweep the same way max_states does: the result is a lower bound.
    if (mem_exhausted()) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    ++t.states;
    if (t.grant == 0 && (t.grant = reserve()) == 0) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    --t.grant;
    return true;
  }

  /// Dedup insert; true iff `sig` was unseen. First insert wins.
  bool visit(std::uint64_t sig, Tally& t) {
    ++t.queries;
    const bool fresh = store_.insert(sig, t.recent_hits);
    t.misses += fresh ? 1 : 0;
    return fresh;
  }

  /// Adds an explorer's tally into the totals and returns its unspent grant
  /// to the budget.
  void absorb(Tally& t) {
    if (t.grant != 0) budget_left_.fetch_add(t.grant, std::memory_order_relaxed);
    states_.fetch_add(t.states, std::memory_order_relaxed);
    queries_.fetch_add(t.queries, std::memory_order_relaxed);
    misses_.fetch_add(t.misses, std::memory_order_relaxed);
    store_.add_recent_hits(t.recent_hits);
    t = Tally{};
  }

  [[nodiscard]] bool stopped() const { return stop_.load(std::memory_order_acquire); }
  void stop() { stop_.store(true, std::memory_order_release); }
  /// Absorbed totals: exact once every explorer has been absorbed.
  [[nodiscard]] std::int64_t states() const { return states_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }
  /// True once the dedup store hit its memory cap with no disk tier — the
  /// sweep is aborted (charge() starts failing) and certifies nothing.
  [[nodiscard]] bool mem_exhausted() const { return store_.mem_exhausted(); }
  [[nodiscard]] const TieredSigSet& store() const { return store_; }

 private:
  /// Takes up to one chunk of the remaining budget; 0 once it is gone.
  std::int64_t reserve() {
    std::int64_t left = budget_left_.load(std::memory_order_relaxed);
    while (left > 0) {
      const std::int64_t take = std::min(left, kBudgetChunk);
      if (budget_left_.compare_exchange_weak(left, left - take, std::memory_order_relaxed)) {
        return take;
      }
    }
    return 0;
  }

  /// Written once per chunk: alone on its line.
  alignas(kCacheLine) std::atomic<std::int64_t> budget_left_;
  // Read at every node, written at most once per sweep.
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> exhausted_{false};
  TieredSigSet store_;
  /// Written once per absorbed explorer.
  alignas(kCacheLine) std::atomic<std::int64_t> states_{0};
  std::atomic<std::int64_t> queries_{0};
  std::atomic<std::int64_t> misses_{0};
};

/// Fills the context-derived fields of `stats` at the end of a sweep.
void harvest_context(ExploreStats& stats, const ExploreContext& ctx, int threads,
                     double elapsed_s) {
  stats.states = ctx.states();
  stats.dedup_queries = ctx.queries();
  stats.dedup_misses = ctx.misses();
  stats.dedup_hits = stats.dedup_queries - stats.dedup_misses;
  stats.threads = threads;
  stats.elapsed_s = elapsed_s;
  stats.states_per_s = elapsed_s > 0 ? static_cast<double>(stats.states) / elapsed_s : 0;
  stats.mem_exhausted = ctx.mem_exhausted();
  const TierStats t = ctx.store().tier_stats();
  stats.dedup_recent_hits = t.recent_hits;
  stats.dedup_mem_hits = t.mem_hits;
  stats.dedup_cold_probes = t.cold_probes;
  stats.dedup_bloom_skips = t.bloom_skips;
  stats.dedup_cold_hits = t.cold_hits;
  stats.dedup_spills = t.spills;
  stats.dedup_spilled_sigs = t.spilled_sigs;
  stats.dedup_spill_bytes = t.spill_bytes;
  stats.dedup_merges = t.merges;
}

// ---------------------------------------------------------------------------
// Incremental engine: one persistent World, one real step per DFS edge, an
// exact undo log per edge for backtracking.
//
// Everything copyable is undone exactly: the touched memory cell (value +
// written flag, via RegisterFile::undo_write), the per-process signature
// chain, decision/termination flags, the output vector, and the admission
// window. The one thing that cannot be undone is the coroutine frame itself
// — frames only run forward — so popping an edge merely marks its process
// DIRTY (coroutine one step ahead of the logical position). The next time a
// dirty process is scheduled it is respawned and fast-forwarded by
// redelivering its logged step results; deterministic replay guarantees the
// rebuilt frame is indistinguishable from one that never ran ahead. A
// process that is never scheduled again is never rebuilt, which is what
// makes the amortized cost per edge O(1): sibling subtrees of process c
// rebuild only c.
//
// World time (`now_`) keeps advancing across backtracks. That is sound here
// because explored algorithms are RESTRICTED and the world failure-free:
// C-processes never query the failure detector, so no observable value
// depends on model time.
// ---------------------------------------------------------------------------

class IncrementalExplorer {
 public:
  IncrementalExplorer(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                      const ValueVec& inputs, const ExploreConfig& cfg, ExploreContext& ctx)
      : task_(task),
        body_(body),
        inputs_(inputs),
        cfg_(cfg),
        ctx_(ctx),
        w_(make_explore_world(cfg)),
        window_(cfg.k, cfg.arrival),
        mp_(w_.substrate_set()) {
    const std::size_t n = static_cast<std::size_t>(task_->n_procs());
    proc_sig_.assign(n, kStateHashOffset);
    decided_.assign(n, 0);
    terminated_.assign(n, 0);
    exists_.assign(n, 0);
    outs_.resize(n);
    proc_log_.resize(n);
    ghost_.resize(n);
    bodies_.resize(n);
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      // Cache the ProcBody once per process: every respawn reuses it instead
      // of manufacturing a fresh std::function through the factory.
      bodies_[ii] = body_(i, inputs_[ii]);
      w_.spawn_c(i, bodies_[ii]);
      exists_[ii] = 1;
    }
    if (cfg_.threads <= 1) w_.attach_observer(cfg_.observer);
    relation_ok_ = task_->relation(inputs_, outs_);
    window_.refresh([this](int c) { return finished(c); });
  }

  /// Full DFS from the current configuration (entry bookkeeping included).
  void dfs() {
    if (enter_node() != Node::kExpand) return;
    // window_.active() mutates below; snapshot it onto the shared scratch
    // stack (index-based: recursion may grow/reallocate it) instead of a
    // fresh vector per node.
    const std::size_t base = elig_stack_.size();
    push_eligible_children(elig_stack_);
    const std::size_t top = elig_stack_.size();
    for (std::size_t j = base; j < top; ++j) {
      if (ctx_.stopped()) break;
      const int c = elig_stack_[j];
      push_step(c);
      dfs();
      pop_step();
    }
    elig_stack_.resize(base);
  }

  /// Repositions the world at `prefix` WITHOUT entry bookkeeping (the
  /// frontier expansion already accounted for the ancestors), backtracking
  /// only past the common ancestor: the probe and the frontier workers
  /// visit prefixes in near-sibling order.
  void move_to(const std::vector<int>& prefix) {
    std::size_t common = 0;
    while (common < prefix.size() && common < sched_.size() &&
           sched_[common] == prefix[common]) {
      ++common;
    }
    while (sched_.size() > common) pop_step();
    for (std::size_t i = common; i < prefix.size(); ++i) push_step(prefix[i]);
  }

  enum class Node { kPruned, kExpand };

  /// Entry bookkeeping for the current configuration, in the same order as
  /// the reference engine: budget → relation → terminal → depth → dedup.
  Node enter_node() {
    if (!ctx_.charge(tally_)) {
      out_.budget_exhausted = true;
      ctx_.stop();
      return Node::kPruned;
    }
    // relation(inputs_, outs_) is a pure predicate and outs_ only changes on
    // decide edges, so the verdict is cached there instead of being
    // recomputed at every node (it dominated enter_node: two sorted
    // distinct-value vectors per call on the set-agreement family).
    if (!relation_ok_) {
      fail("task relation violated");
      return Node::kPruned;
    }
    if (window_.exhausted()) {
      ++out_.terminal_runs;
      return Node::kPruned;
    }
    if (static_cast<int>(sched_.size()) >= cfg_.max_depth) {
      fail("no decision within step bound (possible non-termination)");
      return Node::kPruned;
    }
    if (cfg_.dedup && !ctx_.visit(sig(), tally_)) return Node::kPruned;
    return Node::kExpand;
  }

  [[nodiscard]] const std::vector<int>& active() const noexcept { return window_.active(); }
  [[nodiscard]] const std::vector<int>& sched() const noexcept { return sched_; }
  /// The outcome so far, which is then reset (a reused explorer starts the
  /// next subtree from zero); also hands this explorer's tally to the
  /// context.
  ExploreOutcome take_outcome() {
    ctx_.absorb(tally_);
    return std::exchange(out_, ExploreOutcome{});
  }

  /// Eligible successors of the current configuration: the admission window
  /// filtered by the blocking-recv rule (substrate worlds). Counts a blocked
  /// dead end like dfs() would — used by the parallel frontier expansion so
  /// probe and workers agree with the sequential engine node for node.
  [[nodiscard]] std::vector<int> eligible_children() {
    std::vector<int> out;
    push_eligible_children(out);
    return out;
  }

 private:
  /// One DFS edge of the undo log.
  struct PathStep {
    int c = 0;
    OpKind op = OpKind::kYield;
    RegAddr addr;                ///< write target (op == kWrite only)
    Value prev_value;            ///< cell content before the write
    bool prev_written = false;
    std::uint64_t prev_proc_sig = 0;
    bool became_decided = false;
    bool became_terminated = false;
    bool prev_relation_ok = true;  ///< relation verdict before this decide edge
    AdmissionWindow::RefreshUndo win_undo;  ///< delta, not a window snapshot
  };

  /// One step a live coroutine frame consumed BEYOND the logical position
  /// (its edge was popped). Deterministic replay cuts both ways: if the next
  /// logical step of the process would deliver exactly `result` again, the
  /// ran-ahead frame is already in the correct post-step state, and the step
  /// can be applied world-side only — no respawn, no replay, no resume.
  /// Everything here is a pure function of the process's consumed-result
  /// prefix, which is what makes the reuse sound.
  struct GhostStep {
    OpKind op = OpKind::kYield;
    RegAddr addr;           ///< op target (kRead/kWrite)
    Value result;           ///< result the frame consumed at this position
    Value value;            ///< written value (kWrite) / decision (kDecide)
    bool decided = false;   ///< this step recorded the first decision
    bool terminated = false;///< this step completed the coroutine
  };

  [[nodiscard]] bool finished(int c) const {
    const auto i = static_cast<std::size_t>(c);
    return decided_[i] != 0 || terminated_[i] != 0;
  }

  /// BLOCKING recv: true iff scheduling c now would execute a recv on an
  /// empty mailbox. Exploration never schedules such a step — otherwise a
  /// poll loop (recv-Nil-retry) makes every MP protocol a spurious
  /// step-bound violation, exactly the busy-waiting the paper's wait-free
  /// notion abstracts away. A dirty process (frame ran ahead) is judged by
  /// its next ghost step, never by w_'s pending op — the frame is past the
  /// logical position and its pending op belongs to a future configuration.
  [[nodiscard]] bool blocked(int c) {
    const auto i = static_cast<std::size_t>(c);
    OpKind op;
    RegAddr addr;
    if (!ghost_[i].empty()) {
      const GhostStep& gs = ghost_[i].back();
      op = gs.op;
      addr = gs.addr;
    } else {
      const PendingOp* p = w_.pending_op(cpid(c));
      if (p == nullptr) return false;
      op = p->kind;
      addr = p->addr;
    }
    if (op != OpKind::kRecv) return false;
    return w_.substrate().peek_recv(w_.memory(), addr).is_nil();
  }

  /// Appends the eligible successors of the current configuration: the
  /// admission window, minus blocked-recv processes when a substrate is
  /// installed (pure register worlds keep the zero-overhead copy). A node
  /// whose window is live but fully blocked is a DEAD END, not a terminal
  /// run: nobody can move, nobody has violated anything — counted so
  /// cross-backend runs can assert they agree on blocking structure.
  void push_eligible_children(std::vector<int>& out) {
    if (!mp_) {
      out.insert(out.end(), window_.active().begin(), window_.active().end());
      return;
    }
    const std::size_t base = out.size();
    for (int c : window_.active()) {
      if (!blocked(c)) out.push_back(c);
    }
    if (out.size() == base && !window_.active().empty()) ++out_.blocked_runs;
  }

  /// Rebuilds c's coroutine at the logical position if it ran ahead
  /// (non-empty ghost log = frame consumed results beyond the position).
  void ensure_fresh(int c) {
    const auto i = static_cast<std::size_t>(c);
    if (ghost_[i].empty()) return;
    ghost_[i].clear();
    w_.respawn(cpid(c), bodies_[i]);
    ++out_.stats.respawns;
    w_.redeliver_all(cpid(c), proc_log_[i]);
    out_.stats.redelivers += static_cast<std::int64_t>(proc_log_[i].size());
  }

  /// Fast path of push_step: the frame ran ahead, and its next ghost step
  /// would consume exactly the result the current configuration delivers.
  /// Applies the step's world-side effects (memory write, flags, window)
  /// and reclaims the ghost entry; the frame itself is already past the
  /// step. Returns false (leaving no side effects) when the results
  /// diverge — the caller then respawns and replays as usual.
  bool try_ghost_step(int c) {
    const auto i = static_cast<std::size_t>(c);
    const GhostStep& gs = ghost_[i].back();
    if (gs.op == OpKind::kSend || gs.op == OpKind::kRecv || gs.op == OpKind::kDeliver) {
      // Substrate ops mutate fabric/mailbox state through the substrate, not
      // a single register cell; replaying them world-side only would need the
      // substrate's mutation AND a proof the consumed result still matches.
      // Rare on the explored (eager, blocking-recv) tree — always respawn.
      return false;
    }
    Value result;
    if (gs.op == OpKind::kRead) {
      result = w_.memory().read(gs.addr);
      if (result != gs.result) return false;
    } else if (gs.op == OpKind::kQuery) {
      return false;  // FD answers are time-dependent; never ghost-replayed
    }
    // Non-read ops deliver Nil, which trivially matches the ghost.
    PathStep& ps = path_.emplace_back();
    ps.c = c;
    ps.op = gs.op;
    ps.addr = gs.addr;
    ps.prev_proc_sig = proc_sig_[i];
    if (gs.op == OpKind::kWrite) {
      ps.prev_written = w_.memory().written(gs.addr);
      if (ps.prev_written) ps.prev_value = w_.memory().read(gs.addr);
      w_.memory().write(gs.addr, gs.value);
    }
    proc_log_[i].push_back(result);
    proc_sig_[i] = proc_sig_[i] * kFnvPrime + result.hash() + static_cast<std::uint64_t>(ps.op);
    if (gs.decided && decided_[i] == 0) {
      ps.became_decided = true;
      decided_[i] = 1;
      outs_[i] = gs.value;
      ps.prev_relation_ok = relation_ok_;
      relation_ok_ = task_->relation(inputs_, outs_);
    }
    if (gs.terminated) {
      ps.became_terminated = true;
      terminated_[i] = 1;
    }
    if (StepObserver* obs = w_.observer()) {
      // Same signature World::step would have reported for this step.
      obs->on_step(cpid(c), gs.op, false, gs.op == OpKind::kDecide, gs.terminated);
    }
    ghost_[i].pop_back();
    ++out_.stats.ghost_hits;
    window_.refresh_tracked([this](int cc) { return finished(cc); }, ps.win_undo);
    sched_.push_back(c);
    out_.stats.max_undo_depth =
        std::max(out_.stats.max_undo_depth, static_cast<std::int64_t>(path_.size()));
    return true;
  }

  void push_step(int c) {
    const auto i = static_cast<std::size_t>(c);
    if (!ghost_[i].empty() && try_ghost_step(c)) return;
    ensure_fresh(c);
    const PendingOp* op = w_.pending_op(cpid(c));
    if (op == nullptr) {
      throw std::logic_error("IncrementalExplorer: scheduled a finished process");
    }
    PathStep& ps = path_.emplace_back();  // filled in place; popped on undo
    ps.c = c;
    ps.op = op->kind;
    ps.prev_proc_sig = proc_sig_[i];
    Value result;  // what the step delivers back (mirrors World::step)
    if (op->kind == OpKind::kRead) {
      ps.addr = op->addr;  // kept so a popped edge can become a ghost step
      result = w_.memory().read(op->addr);
    } else if (op->kind == OpKind::kWrite) {
      ps.addr = op->addr;
      ps.prev_written = w_.memory().written(op->addr);
      if (ps.prev_written) ps.prev_value = w_.memory().read(op->addr);
    } else if (op->kind == OpKind::kSend || op->kind == OpKind::kRecv) {
      // Substrate ops touch exactly one mailbox cell; snapshot it through
      // the substrate (fabric pending queue or backing register — the
      // substrate knows which) so pop_step can restore it exactly.
      ps.addr = op->addr;
      ps.prev_written = w_.substrate().cell_state(w_.memory(), op->addr, ps.prev_value);
      if (op->kind == OpKind::kRecv) {
        result = w_.substrate().peek_recv(w_.memory(), op->addr);
      }
    }
    w_.step(cpid(c));  // executes exactly `op`
    proc_log_[i].push_back(result);
    proc_sig_[i] = proc_sig_[i] * kFnvPrime + result.hash() + static_cast<std::uint64_t>(ps.op);
    if (decided_[i] == 0 && w_.decided(cpid(c))) {
      ps.became_decided = true;
      decided_[i] = 1;
      outs_[i] = w_.decision(cpid(c));
      ps.prev_relation_ok = relation_ok_;
      relation_ok_ = task_->relation(inputs_, outs_);
    }
    if (terminated_[i] == 0 && w_.terminated(cpid(c))) {
      ps.became_terminated = true;
      terminated_[i] = 1;
    }
    window_.refresh_tracked([this](int cc) { return finished(cc); }, ps.win_undo);
    sched_.push_back(c);
    out_.stats.max_undo_depth =
        std::max(out_.stats.max_undo_depth, static_cast<std::int64_t>(path_.size()));
  }

  void pop_step() {
    PathStep& ps = path_.back();
    sched_.pop_back();
    const auto i = static_cast<std::size_t>(ps.c);
    window_.unrefresh(ps.win_undo);
    proc_sig_[i] = ps.prev_proc_sig;
    // The frame stays one step ahead; record what it consumed so a future
    // push of this process can reuse it instead of respawning (ghost path).
    GhostStep gs;
    gs.op = ps.op;
    gs.addr = ps.addr;
    gs.result = std::move(proc_log_[i].back());
    gs.decided = ps.became_decided;
    gs.terminated = ps.became_terminated;
    if (ps.op == OpKind::kWrite) gs.value = w_.memory().read(ps.addr);
    if (ps.became_decided) {
      gs.value = outs_[i];
      decided_[i] = 0;
      outs_[i] = Value{};
      relation_ok_ = ps.prev_relation_ok;
    }
    if (ps.became_terminated) terminated_[i] = 0;
    if (ps.op == OpKind::kWrite) {
      w_.memory().undo_write(ps.addr, ps.prev_value, ps.prev_written);
    } else if (ps.op == OpKind::kSend || ps.op == OpKind::kRecv) {
      w_.substrate().restore_cell(w_.memory(), ps.addr, ps.prev_value, ps.prev_written);
    }
    proc_log_[i].pop_back();
    ghost_[i].push_back(std::move(gs));
    path_.pop_back();  // invalidates ps — must stay last
  }

  /// Full-configuration signature; identical formula to the reference
  /// engine's (shared-state hash — registers plus substrate-held mailbox
  /// state, byte-identical across backends holding the same contents —
  /// per-process step-result chains, decided salts, admission progress).
  ///
  /// Each per-process chain passes through the splitmix64 finalizer before
  /// it enters the cross-process fold. Without it the node signature is
  /// linear in the per-process chains over the SAME prime as the per-step
  /// fold, so it degenerates to a hash of the concatenated traces: the
  /// process boundary contributes only
  /// kStateHashOffset * prime^(steps_i + procs - i), and that multiset
  /// collides whenever two schedules swap step counts between processes
  /// whose step contributions are identical (e.g. writes, which fold
  /// Nil + op regardless of address or value). Observed
  /// in the wild: schedules 0,1,1,1,1 and 1,1,0,0,0 of the set-agreement
  /// solver produced equal signatures for genuinely different
  /// configurations, silently merging their subtrees. Mixing makes the
  /// outer fold see avalanche-distinct summaries, destroying the structural
  /// cancellation.
  [[nodiscard]] std::uint64_t sig() const {
    std::uint64_t s = w_.state_hash();
    for (std::size_t i = 0; i < proc_sig_.size(); ++i) {
      s = s * kFnvPrime + mix64(proc_sig_[i]) +
          (exists_[i] != 0 && decided_[i] != 0 ? kDecidedSalt : 0u);
    }
    s = s * kFnvPrime + static_cast<std::uint64_t>(window_.next_arrival());
    return s;
  }

  void fail(const char* msg) {
    out_.ok = false;
    out_.violation = msg;
    out_.bad_schedule = sched_;
    ctx_.stop();
  }

  TaskPtr task_;
  const std::function<ProcBody(int, Value)>& body_;
  ValueVec inputs_;
  ExploreConfig cfg_;
  ExploreContext& ctx_;
  Tally tally_;
  ExploreOutcome out_;

  World w_;
  AdmissionWindow window_;
  /// Substrate installed at construction → blocking-recv eligibility filter.
  /// Latched ONCE: a world that lazily grows a default substrate mid-sweep
  /// (bodies sending without a factory install) keeps the unfiltered rule
  /// for the whole sweep, so eligibility stays configuration-deterministic.
  bool mp_;
  std::vector<int> sched_;
  std::vector<PathStep> path_;
  std::vector<int> elig_stack_;   ///< dfs eligibility snapshots, all depths
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies (respawn)

  // Logical (undo-tracked) per-process state; w_'s own flags lag behind for
  // dirty processes, so the engine never consults them outside push_step.
  std::vector<std::uint64_t> proc_sig_;
  std::vector<std::uint8_t> decided_;
  std::vector<std::uint8_t> terminated_;
  std::vector<std::uint8_t> exists_;
  ValueVec outs_;
  bool relation_ok_ = true;  ///< cached task_->relation(inputs_, outs_)
  std::vector<std::vector<Value>> proc_log_;  ///< delivered results, per process
  // Per process: results its live frame consumed beyond the logical position,
  // innermost last. Invariant: concat(proc_log_[i], reverse(ghost_[i])) is
  // exactly the prefix the frame has consumed; LIFO push/pop preserves it.
  std::vector<std::vector<GhostStep>> ghost_;
};

// ---------------------------------------------------------------------------
// Reference engine: fresh world + full prefix replay per node. Kept as the
// semantic baseline the incremental engine is tested against.
// ---------------------------------------------------------------------------

class FullReplayExplorer {
 public:
  FullReplayExplorer(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                     const ValueVec& inputs, const ExploreConfig& cfg, ExploreContext& ctx)
      : task_(task), body_(body), inputs_(inputs), cfg_(cfg), ctx_(ctx) {
    bodies_.resize(static_cast<std::size_t>(task_->n_procs()));
    for (int i : cfg_.arrival) {
      const auto ii = static_cast<std::size_t>(i);
      bodies_[ii] = body_(i, inputs_[ii]);
    }
  }

  void dfs() {
    std::vector<int> sched;
    dfs(sched);
  }

  /// The outcome so far, which is then reset (a reused explorer starts the
  /// next subtree from zero); also hands this explorer's tally to the
  /// context.
  ExploreOutcome take_outcome() {
    ctx_.absorb(tally_);
    return std::exchange(out_, ExploreOutcome{});
  }

 private:
  struct ReplayInfo {
    std::vector<int> eligible;  ///< admission window after the prefix, minus
                                ///< blocked-recv processes (substrate worlds)
    bool blocked = false;       ///< window live but every process blocked
    bool terminal = false;      ///< everyone arrived and finished
    bool relation_ok = true;
    std::uint64_t sig = 0;      ///< full-configuration signature
  };

  /// Deterministically replays `sched` (a sequence of C-index choices) and
  /// summarizes the resulting configuration.
  ReplayInfo replay(const std::vector<int>& sched) {
    World w = make_explore_world(cfg_);
    for (int i : cfg_.arrival) {
      w.spawn_c(i, bodies_[static_cast<std::size_t>(i)]);
    }
    w.attach_observer(cfg_.observer);
    AdmissionWindow win(cfg_.k, cfg_.arrival);
    win.refresh(w);

    // Per-process signature: fold the result of every delivered step.
    std::vector<std::uint64_t> proc_sig(static_cast<std::size_t>(task_->n_procs()),
                                        kStateHashOffset);
    w.enable_trace();
    for (int c : sched) {
      w.step(cpid(c));
      win.refresh(w);
    }
    for (const auto& s : w.trace()) {
      auto& h = proc_sig[static_cast<std::size_t>(s.pid.index)];
      h = h * kFnvPrime + s.result.hash() + static_cast<std::uint64_t>(s.op);
    }

    ReplayInfo info;
    info.eligible = win.active();
    info.terminal = win.exhausted();
    if (w.substrate_set() && !info.eligible.empty()) {
      // Same blocking-recv rule as the incremental engine: frames here are
      // exactly at the logical position, so the pending op is authoritative.
      std::vector<int> elig;
      for (int c : info.eligible) {
        const PendingOp* op = w.pending_op(cpid(c));
        if (op != nullptr && op->kind == OpKind::kRecv &&
            w.substrate().peek_recv(w.memory(), op->addr).is_nil()) {
          continue;
        }
        elig.push_back(c);
      }
      info.blocked = elig.empty();
      info.eligible = std::move(elig);
    }
    ValueVec outs = w.output_vector();
    outs.resize(static_cast<std::size_t>(task_->n_procs()));
    info.relation_ok = task_->relation(inputs_, outs);
    std::uint64_t sig = w.state_hash();
    for (std::size_t i = 0; i < proc_sig.size(); ++i) {
      sig = sig * kFnvPrime + mix64(proc_sig[i]) +
            (w.exists(cpid(static_cast<int>(i))) && w.decided(cpid(static_cast<int>(i)))
                 ? kDecidedSalt
                 : 0u);
    }
    sig = sig * kFnvPrime + static_cast<std::uint64_t>(win.next_arrival());
    info.sig = sig;
    return info;
  }

  void dfs(std::vector<int>& sched) {
    if (ctx_.stopped()) return;
    if (!ctx_.charge(tally_)) {
      out_.budget_exhausted = true;
      ctx_.stop();
      return;
    }
    const ReplayInfo info = replay(sched);
    if (!info.relation_ok) {
      out_.ok = false;
      out_.violation = "task relation violated";
      out_.bad_schedule = sched;
      ctx_.stop();
      return;
    }
    if (info.terminal) {
      ++out_.terminal_runs;
      return;
    }
    if (static_cast<int>(sched.size()) >= cfg_.max_depth) {
      out_.ok = false;
      out_.violation = "no decision within step bound (possible non-termination)";
      out_.bad_schedule = sched;
      ctx_.stop();
      return;
    }
    if (cfg_.dedup && !ctx_.visit(info.sig, tally_)) return;
    if (info.blocked) {
      ++out_.blocked_runs;  // dead end: live window, all blocked on recv
      return;
    }
    for (int c : info.eligible) {
      sched.push_back(c);
      dfs(sched);
      sched.pop_back();
      if (ctx_.stopped()) return;
    }
  }

  TaskPtr task_;
  const std::function<ProcBody(int, Value)>& body_;
  ValueVec inputs_;
  ExploreConfig cfg_;
  ExploreContext& ctx_;
  Tally tally_;
  ExploreOutcome out_;
  std::vector<ProcBody> bodies_;  ///< cached per-process bodies
};

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

ExploreOutcome explore_sequential(const TaskPtr& task,
                                  const std::function<ProcBody(int, Value)>& body,
                                  const ValueVec& inputs, const ExploreConfig& cfg) {
  ExploreContext ctx(cfg.max_states, cfg.dedup_store);
  ExploreOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.engine == ExploreEngine::kFullReplay) {
    FullReplayExplorer e(task, body, inputs, cfg, ctx);
    e.dfs();
    out = e.take_outcome();
  } else {
    IncrementalExplorer e(task, body, inputs, cfg, ctx);
    e.dfs();
    out = e.take_outcome();
  }
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  out.states = ctx.states();
  if (ctx.exhausted()) out.budget_exhausted = true;
  if (ctx.mem_exhausted()) {
    out.mem_exhausted = true;
    out.budget_exhausted = true;
  }
  out.stats.terminal_runs = out.terminal_runs;
  out.stats.blocked_runs = out.blocked_runs;
  harvest_context(out.stats, ctx, /*threads=*/1, dt.count());
  return out;
}

/// Frontier roots per worker. Subtree sizes are very uneven, so many more
/// roots than workers keep every worker busy until the sweep ends.
constexpr std::size_t kRootsPerThread = 32;

/// Parallel frontier: a short deterministic sequential expansion splits the
/// tree into >= kRootsPerThread*threads un-entered subtree roots, which a
/// work-stealing pool then explores against a shared chunked budget and a
/// shared first-insert-wins signature set. A CLEAN sweep's outcome is
/// thread-count-invariant (the expanded-signature closure does not depend on
/// insertion races — DESIGN.md gives the argument); any violation or budget
/// exhaustion makes the parallel numbers schedule-dependent, so those cases
/// rerun the sequential engine and return its canonical outcome — this
/// doubles as the "lexicographically smallest bad_schedule wins" merge rule,
/// since sequential DFS finds exactly that schedule first. Returns nullopt
/// in those cases, once the parallel store is freed.
std::optional<ExploreOutcome> try_parallel(const TaskPtr& task,
                                           const std::function<ProcBody(int, Value)>& body,
                                           const ValueVec& inputs, const ExploreConfig& cfg) {
  ExploreContext ctx(cfg.max_states, cfg.dedup_store);
  const std::size_t target = static_cast<std::size_t>(cfg.threads) * kRootsPerThread;
  const auto t0 = std::chrono::steady_clock::now();

  ExploreOutcome expansion_out;
  std::vector<std::vector<int>> roots;
  {
    IncrementalExplorer probe(task, body, inputs, cfg, ctx);
    std::deque<std::vector<int>> queue;
    queue.emplace_back();
    while (!queue.empty() && queue.size() < target && !ctx.stopped()) {
      std::vector<int> prefix = std::move(queue.front());
      queue.pop_front();
      probe.move_to(prefix);
      if (probe.enter_node() == IncrementalExplorer::Node::kExpand) {
        for (int c : probe.eligible_children()) {
          std::vector<int> child = prefix;
          child.push_back(c);
          queue.push_back(std::move(child));
        }
      }
    }
    expansion_out = probe.take_outcome();
    roots.assign(queue.begin(), queue.end());
  }

  std::vector<ExploreOutcome> parts(roots.size());
  PoolStats pool_stats;
  if (!ctx.stopped() && !roots.empty()) {
    // Explorers are recycled between jobs (at most one per worker is ever
    // built): a fresh one per root would rebuild the world and respawn
    // every process kRootsPerThread times per worker.
    std::mutex spare_mu;
    std::vector<std::unique_ptr<IncrementalExplorer>> spare;
    const auto explore_root = [&](std::size_t i) {
      if (ctx.stopped()) return;
      std::unique_ptr<IncrementalExplorer> e;
      {
        std::lock_guard<std::mutex> lk(spare_mu);
        if (!spare.empty()) {
          e = std::move(spare.back());
          spare.pop_back();
        }
      }
      if (e == nullptr) e = std::make_unique<IncrementalExplorer>(task, body, inputs, cfg, ctx);
      e->move_to(roots[i]);
      e->dfs();
      parts[i] = e->take_outcome();
      std::lock_guard<std::mutex> lk(spare_mu);
      spare.push_back(std::move(e));
    };
    std::vector<std::function<void()>> jobs;
    jobs.reserve(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      jobs.emplace_back([&explore_root, i] { explore_root(i); });
    }
    ResidentPool(cfg.threads).run(std::move(jobs), &pool_stats);
  }

  bool clean = expansion_out.ok;
  for (const ExploreOutcome& p : parts) clean = clean && p.ok;
  if (!clean || ctx.exhausted()) return std::nullopt;

  ExploreOutcome out;
  out.terminal_runs = expansion_out.terminal_runs;
  out.blocked_runs = expansion_out.blocked_runs;
  out.stats = expansion_out.stats;  // probe respawns/redelivers/undo depth
  for (const ExploreOutcome& p : parts) {
    out.terminal_runs += p.terminal_runs;
    out.blocked_runs += p.blocked_runs;
    out.stats.merge(p.stats);
  }
  out.states = ctx.states();
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  out.stats.terminal_runs = out.terminal_runs;
  out.stats.blocked_runs = out.blocked_runs;
  out.stats.pool_steals = pool_stats.steals;
  harvest_context(out.stats, ctx, cfg.threads, dt.count());
  return out;
}

ExploreOutcome explore_parallel(const TaskPtr& task,
                                const std::function<ProcBody(int, Value)>& body,
                                const ValueVec& inputs, const ExploreConfig& cfg) {
  if (std::optional<ExploreOutcome> out = try_parallel(task, body, inputs, cfg)) return *out;
  // Canonical deterministic outcome (identical to threads == 1).
  ExploreConfig seq = cfg;
  seq.threads = 1;
  return explore_sequential(task, body, inputs, seq);
}

}  // namespace

ExploreOutcome explore_k_concurrent(const TaskPtr& task,
                                    const std::function<ProcBody(int, Value)>& body,
                                    const ValueVec& inputs, const ExploreConfig& cfg) {
  if (cfg.threads > 1 && cfg.engine == ExploreEngine::kIncremental) {
    return explore_parallel(task, body, inputs, cfg);
  }
  return explore_sequential(task, body, inputs, cfg);
}

CleanLevelResult max_clean_level(const TaskPtr& task,
                                 const std::function<ProcBody(int, Value)>& body,
                                 const ValueVec& inputs, int k_max, ExploreConfig base_cfg) {
  if (base_cfg.arrival.empty()) {
    base_cfg.arrival = Task::participants(inputs);
  }
  std::vector<ExploreOutcome> levels(static_cast<std::size_t>(std::max(k_max, 0)) + 1);
  std::vector<std::uint8_t> swept(levels.size(), 0);
  if (base_cfg.threads > 1 && k_max > 1) {
    // Levels are independent sweeps: run them concurrently, one per pool
    // task (each sweep itself sequential), then merge scanning upward.
    std::vector<std::function<void()>> jobs;
    for (int k = 1; k <= k_max; ++k) {
      jobs.push_back([&, k] {
        ExploreConfig cfg = base_cfg;
        cfg.k = k;
        cfg.threads = 1;
        levels[static_cast<std::size_t>(k)] = explore_k_concurrent(task, body, inputs, cfg);
        swept[static_cast<std::size_t>(k)] = 1;
      });
    }
    ResidentPool(base_cfg.threads).run(std::move(jobs));
  } else {
    for (int k = 1; k <= k_max; ++k) {
      ExploreConfig cfg = base_cfg;
      cfg.k = k;
      const std::size_t ki = static_cast<std::size_t>(k);
      levels[ki] = explore_k_concurrent(task, body, inputs, cfg);
      swept[ki] = 1;
      if (!levels[ki].ok || levels[ki].budget_exhausted) break;
    }
  }

  CleanLevelResult r;
  for (int k = 1; k <= k_max; ++k) {
    const std::size_t ki = static_cast<std::size_t>(k);
    if (swept[ki] == 0) break;  // sequential mode stopped below this level
    r.states += levels[ki].states;
    r.stats.merge(levels[ki].stats);
    if (!levels[ki].ok) break;
    if (levels[ki].budget_exhausted) {
      r.budget_exhausted = true;  // level k only sampled: r.level is a lower bound
      r.mem_exhausted = levels[ki].mem_exhausted;
      break;
    }
    r.level = k;
  }
  return r;
}

}  // namespace efd
