#include "workloads.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/mp_protocols.hpp"
#include "algo/one_concurrent.hpp"
#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/repro_scenarios.hpp"
#include "sim/msg_world.hpp"
#include "sim/replay.hpp"
#include "tasks/consensus.hpp"
#include "tasks/set_agreement.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Plans per run_farm call. Call k of a run uses campaign seed seed + k. The
// rarest seeded bug (mpfm_raw) shows in about 0.7% of its plans, about 6 per
// call, so the several calls of a run catch every seeded bug.
constexpr std::int64_t kFarmPlans = 8000;
// Set-up repetitions, each in a fresh process: some before the measuring
// loop and some after each of its steps, so the median samples the machine
// over the whole run instead of one instant; setup_s is their median.
constexpr int kSetupRepsFirst = 5;
constexpr int kSetupRepsPerStep = 3;
constexpr std::int64_t kMaxStates = 15'000'000;  // 1.5x the largest clean sweep

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Runs `step` until `budget_s` is used up: another step starts while it is
/// predicted (from the previous step's length) to end no more than half a
/// step past the budget, so runs end on average at the budget. Always at
/// least one step.
template <class F>
void timed_loop(double budget_s, F&& step) {
  const std::int64_t t0 = now_ns();
  double last = 0;
  do {
    const std::int64_t s0 = now_ns();
    step();
    last = seconds_since(s0);
  } while (seconds_since(t0) + last / 2 <= budget_s);
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Creates `dir` afresh (removing what a crashed earlier run left there).
void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

class MetricSink {
 public:
  explicit MetricSink(bool trace) : trace_(trace) {}
  void set(const std::string& name, double v) {
    if (!std::isfinite(v)) v = 0;
    values_[name] = v;
  }
  /// Catalog order; per-layer metrics of bypassed layers stay 0. An
  /// end-to-end metric left unset is a benchmark bug.
  [[nodiscard]] std::vector<Metric> take() const {
    std::vector<Metric> out;
    for (const Metric& m : metric_catalog(trace_)) {
      Metric v = m;
      const auto it = values_.find(m.name);
      if (it != values_.end()) {
        v.value = it->second;
      } else if (!trace_) {
        throw std::logic_error("end-to-end metric " + m.name + " was not measured");
      }
      out.push_back(std::move(v));
    }
    return out;
  }

 private:
  bool trace_;
  std::map<std::string, double> values_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"explore", "explore-spill", "farm"};
  return names;
}

const std::vector<Metric>& metric_catalog(bool trace) {
  static const std::vector<Metric> end_to_end = {
      {"setup_s", "s", 0},       {"states_per_s", "1/s", 0}, {"refute_s", "s", 0},
      {"plans_per_s", "1/s", 0}, {"peak_rss_mb", "MB", 0},
  };
  static const std::vector<Metric> per_layer = {
      {"bench.error_rate", "ratio", 0},
      {"bench.self_share", "ratio", 0},
      {"trace.overhead", "ratio", 0},
      {"core.solvability.certify_sweep_s", "s", 0},
      {"core.solvability.refute_sweep_s", "s", 0},
      {"core.solvability.refute_sweeps", "count", 0},
      {"core.solvability.respawns", "count", 0},
      {"core.solvability.ghost_hits", "count", 0},
      {"core.solvability.redelivers", "count", 0},
      {"core.solvability.max_undo_depth", "count", 0},
      {"core.solvability.dedup_hit_rate", "ratio", 0},
      {"core.solvability.self_share", "ratio", 0},
      {"tasks.relation_calls", "count", 0},
      {"tasks.relation_s", "s", 0},
      {"tasks.pick_output_calls", "count", 0},
      {"tasks.pick_output_s", "s", 0},
      {"sim.proc.spawns", "count", 0},
      {"sim.proc.spawn_s", "s", 0},
      {"sim.world.world_builds", "count", 0},
      {"sim.world.world_build_s", "s", 0},
      {"core.diskset.recent_hit_rate", "ratio", 0},
      {"core.diskset.mem_hit_rate", "ratio", 0},
      {"core.diskset.cold_probes", "count", 0},
      {"core.diskset.bloom_skip_rate", "ratio", 0},
      {"core.diskset.cold_hits", "count", 0},
      {"core.diskset.spills", "count", 0},
      {"core.diskset.spill_bytes", "B", 0},
      {"core.diskset.merges", "count", 0},
      {"core.workpool.steals", "count", 0},
      {"core.workpool.cpu_util", "ratio", 0},
      {"core.campaign.run_plan_clean_p50_s", "s", 0},
      {"core.campaign.run_plan_clean_p99_s", "s", 0},
      {"core.campaign.run_plan_buggy_p50_s", "s", 0},
      {"core.campaign.run_plan_buggy_p99_s", "s", 0},
      {"core.campaign.steps_per_plan", "steps/plan", 0},
      {"core.campaign.rehearsal_steps", "steps/plan", 0},
      {"core.campaign.mutated", "count", 0},
      {"core.campaign.coverage_sigs", "count", 0},
      {"core.campaign.batches", "count", 0},
      {"core.campaign.self_share", "ratio", 0},
      {"sim.faultplan.self_share", "ratio", 0},
      {"core.monitors.monitored_steps", "steps/plan", 0},
      {"core.monitors.starvation_observations", "count", 0},
      {"core.shrink.shrink_p50_s", "s", 0},
      {"core.shrink.shrink_p99_s", "s", 0},
      {"core.shrink.shrink_ratio", "ratio", 0},
      {"core.shrink.replays_ok", "count", 0},
      {"core.shrink.self_share", "ratio", 0},
      {"sim.replay.replay_s", "s", 0},
      {"sim.replay.self_share", "ratio", 0},
      {"core.corpus.insert_s", "s", 0},
      {"core.corpus.open_s", "s", 0},
      {"core.corpus.novel", "count", 0},
      {"core.corpus.duplicates", "count", 0},
      {"core.corpus.aliases", "count", 0},
      {"core.corpus.self_share", "ratio", 0},
  };
  return trace ? per_layer : end_to_end;
}

// ---------------------------------------------------------------------------
// explore / explore-spill
// ---------------------------------------------------------------------------

const std::vector<SweepCase>& sweep_cases() {
  // Known answers: Prop. 1's generic 1-concurrent solver solves (n,k)-set
  // agreement up to level k and no further; FloodMin (n, f) solves k-set
  // agreement iff k >= f + 1. The counts are exact for the fixed input order.
  static const std::vector<SweepCase> cases = {
      {"ksa7_2_level2", true, Protocol::kOneConcurrent, 7, 2, 2,
       {Verdict::kClean, 9'712'941, 147'695, 5'216'741}},
      {"floodmin4_kset2_level3", true, Protocol::kFloodMin, 4, 2, 3,
       {Verdict::kClean, 4'262'754, 28'512, 1'676'642}},
      {"ksa5_2_level3", false, Protocol::kOneConcurrent, 5, 2, 3,
       {Verdict::kViolated, 3'486'846, 47'522, 1'399'454}},
      {"floodmin4_consensus_level3", false, Protocol::kFloodMin, 4, 1, 3,
       {Verdict::kViolated, 144'938, 1'364, 58'975}},
  };
  return cases;
}

efd::ValueVec sweep_inputs(const SweepCase& c, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (const char ch : c.name) x = (x ^ static_cast<unsigned char>(ch)) * 0x100000001B3ULL;
  efd::ValueVec in(static_cast<std::size_t>(c.n));
  std::int64_t v = static_cast<std::int64_t>(splitmix(x) % 1000);
  for (auto& slot : in) {
    slot = efd::Value(v);
    v += 1 + static_cast<std::int64_t>(splitmix(x) % 1000);
  }
  return in;
}

PreparedSweep prepare_sweep(const SweepCase& c, std::uint64_t seed, int threads,
                            const efd::DedupConfig& store, bool traced, SpanRecorder* rec) {
  PreparedSweep p;
  p.spec = &c;
  p.inputs = sweep_inputs(c, seed);
  if (c.set_k == 1) {
    p.task = std::make_shared<efd::ConsensusTask>(c.n);
  } else {
    p.task = std::make_shared<efd::SetAgreementTask>(c.n, c.set_k);
  }
  if (traced) p.task = std::make_shared<TimingTask>(p.task);

  WorldFactory world;
  if (c.protocol == Protocol::kOneConcurrent) {
    p.body = [task = p.task](int, efd::Value input) {
      return efd::make_one_concurrent(task, std::move(input));
    };
    world = [] { return efd::World::failure_free(1); };
  } else {
    const efd::FloodMinConfig fm{c.n, 1};
    p.body = [fm](int i, efd::Value input) { return efd::make_floodmin(fm, i, std::move(input)); };
    world = [n = c.n] {
      efd::World w = efd::World::failure_free(1);
      efd::install_msg_eager(w, n, n);
      return w;
    };
  }
  if (traced) {
    p.body = timed_body(std::move(p.body));
    world = timed_world(std::move(world), rec);
  }

  p.cfg.k = c.level;
  p.cfg.arrival.clear();
  for (int i = 0; i < c.n; ++i) p.cfg.arrival.push_back(i);
  p.cfg.max_states = kMaxStates;
  p.cfg.threads = threads;
  p.cfg.world_factory = std::move(world);
  p.cfg.dedup_store = store;
  return p;
}

namespace {

/// Times fresh processes that start this binary, run run_setup and exit:
/// the set-up time from process start.
class SetupSampler {
 public:
  explicit SetupSampler(const RunOptions& opts) : opts_(opts) {}

  void sample(int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      const std::string dir = opts_.work_dir + "/setup-" + std::to_string(samples_.size());
      std::vector<std::string> args = {"efd_perfbench", "--setup-only", "1",
                                       "--workload", opts_.workload,
                                       "--seed", std::to_string(opts_.seed),
                                       "--work-dir", dir};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const std::int64_t t0 = now_ns();
      pid_t pid = 0;
      if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
        throw std::runtime_error("cannot spawn the set-up process");
      }
      int status = 0;
      while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) throw std::runtime_error("waitpid failed on the set-up process");
      }
      samples_.push_back(seconds_since(t0));
      fs::remove_all(dir);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("the set-up process failed");
      }
    }
  }

  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

 private:
  const RunOptions& opts_;
  std::vector<double> samples_;
};

/// What one explore round measured.
struct Round {
  double certify_s = 0;
  double refute_s = 0;
  std::int64_t certify_states = 0;
  std::int64_t certify_terminal = 0;
  std::vector<double> certify_sweep_s;
  std::vector<double> refute_sweep_s;
  efd::ExploreStats stats;  ///< merged over every sweep of the round
  double wall_s = 0;
  double cpu_s = 0;
};

class ExploreRunner {
 public:
  ExploreRunner(const RunOptions& opts, bool spill, RunResult& out)
      : opts_(opts), spill_(spill), out_(out) {}

  /// The timed set-up: sweep fixtures (tasks, bodies, world factories,
  /// configs), one build of each world, and the spill root.
  void setup(bool traced, SpanRecorder* rec) {
    sweeps_.clear();
    efd::DedupConfig store;  // plain in-memory store, whatever the environment says
    if (spill_) {
      store.disk_tier = true;
      store.mem_budget_bytes = std::size_t{4} << 20;
      spill_root_ = opts_.work_dir + "/spill";
      fresh_dir(spill_root_);
    }
    for (const SweepCase& c : sweep_cases()) {
      sweeps_.push_back(prepare_sweep(c, opts_.seed, opts_.threads, store, traced, rec));
      (void)sweeps_.back().cfg.world_factory();
    }
  }

  Round round(SpanRecorder* rec, std::int64_t round_id) {
    Round r;
    const Span round_span(rec, "bench:explore_round", round_id);
    const std::int64_t t0 = now_ns();
    const double cpu0 = cpu_seconds();
    for (std::size_t i = 0; i < sweeps_.size(); ++i) {
      PreparedSweep& p = sweeps_[i];
      std::string spill_dir;
      if (spill_) {
        // A fresh spill directory per sweep; the store removes its own
        // files, the directory goes once the sweep is done.
        spill_dir = spill_root_ + "/r" + std::to_string(round_id) + "_" + std::to_string(i);
        fresh_dir(spill_dir);
        p.cfg.dedup_store.spill_dir = spill_dir;
      }
      efd::ExploreOutcome o;
      double sweep_s = 0;
      {
        const Span sweep_span(rec, "core.solvability:explore_k_concurrent");
        if (rec != nullptr) rec->set_ambient(sweep_span.id(), sweep_span.run());
        const std::int64_t s0 = now_ns();
        o = efd::explore_k_concurrent(p.task, p.body, p.inputs, p.cfg);
        sweep_s = seconds_since(s0);
        if (rec != nullptr) rec->set_ambient(0, 0);
      }
      if (spill_) fs::remove_all(spill_dir);
      out_.oracle.check_sweep(p.spec->name, p.spec->answer, o);
      r.stats.merge(o.stats);
      if (p.spec->certify) {
        r.certify_s += sweep_s;
        r.certify_states += o.states;
        r.certify_terminal += o.terminal_runs;
        r.certify_sweep_s.push_back(sweep_s);
      } else {
        r.refute_s += sweep_s;
        r.refute_sweep_s.push_back(sweep_s);
      }
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
  }

  std::vector<Round> rounds(double budget_s, SpanRecorder* rec, SetupSampler* setup = nullptr) {
    std::vector<Round> rs;
    timed_loop(budget_s, [&] {
      rs.push_back(round(rec, next_round_++));
      if (first_peak_mb_ == 0) first_peak_mb_ = peak_rss_mb();
      if (setup != nullptr) setup->sample(kSetupRepsPerStep);
    });
    return rs;
  }

  /// Peak RSS of the process at the end of its first round.
  [[nodiscard]] double first_peak_mb() const { return first_peak_mb_; }

  void teardown() {
    if (spill_) fs::remove_all(spill_root_);
  }

 private:
  const RunOptions& opts_;
  bool spill_;
  RunResult& out_;
  std::vector<PreparedSweep> sweeps_;
  std::string spill_root_;
  std::int64_t next_round_ = 1;
  double first_peak_mb_ = 0;
};

double certify_rate(const std::vector<Round>& rs) {
  std::vector<double> v;
  for (const Round& r : rs) v.push_back(ratio(static_cast<double>(r.certify_states), r.certify_s));
  return median(v);
}

void add_self_shares(MetricSink& m, const std::vector<SpanRecord>& spans,
                     const std::vector<std::string>& layers) {
  const auto totals = summarize_layers(spans);
  const auto bench = totals.find("bench");
  const double root_s = bench == totals.end() ? 0 : bench->second.total_s;
  for (const std::string& layer : layers) {
    const auto it = totals.find(layer);
    m.set(layer + ".self_share", it == totals.end() ? 0 : ratio(it->second.self_s, root_s));
  }
}

void run_explore(const RunOptions& opts, bool spill, RunResult& out) {
  ExploreRunner d(opts, spill, out);
  MetricSink m(opts.trace);
  d.setup(false, nullptr);

  if (!opts.trace) {
    SetupSampler setup(opts);
    setup.sample(kSetupRepsFirst);
    const std::vector<Round> rs = d.rounds(opts.seconds, nullptr, &setup);
    m.set("setup_s", setup.median_s());
    out.notes.push_back("setup_s: median of " + std::to_string(setup.count()) +
                        " set-up processes");
    std::vector<double> refute, plans;
    for (const Round& r : rs) {
      refute.push_back(r.refute_s);
      plans.push_back(ratio(static_cast<double>(r.certify_terminal), r.certify_s));
    }
    m.set("states_per_s", certify_rate(rs));
    m.set("refute_s", median(refute));
    m.set("plans_per_s", median(plans));
    m.set("peak_rss_mb", d.first_peak_mb());
    std::string rates = "certify states/s | refute s, per round:";
    for (const Round& r : rs) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.0f|%.3f",
                    ratio(static_cast<double>(r.certify_states), r.certify_s), r.refute_s);
      rates += buf;
    }
    out.notes.push_back(rates);
    out.notes.push_back(std::to_string(rs.size()) + " round(s); refute_s is the median of " +
                        std::to_string(rs.size()) + " sample(s), each summed over " +
                        std::to_string(rs.front().refute_sweep_s.size()) + " refute sweeps");
  } else {
    // Half the time untraced, half traced: the rate difference is the
    // tracing overhead; the per-layer numbers come from the traced half.
    const std::vector<Round> plain = d.rounds(opts.seconds / 2, nullptr);
    SpanRecorder rec;
    d.setup(true, &rec);
    probe_reset();
    const std::vector<Round> traced = d.rounds(opts.seconds / 2, &rec);
    const ProbeTotals probes = probe_totals();
    out.spans = rec.spans();

    const double n = static_cast<double>(traced.size());
    efd::ExploreStats st;
    std::vector<double> certify_sweeps, refute_sweeps;
    for (const Round& r : traced) {
      st.merge(r.stats);
      certify_sweeps.insert(certify_sweeps.end(), r.certify_sweep_s.begin(),
                            r.certify_sweep_s.end());
      refute_sweeps.insert(refute_sweeps.end(), r.refute_sweep_s.begin(), r.refute_sweep_s.end());
    }
    const double plain_rate = certify_rate(plain);
    m.set("trace.overhead", ratio(plain_rate - certify_rate(traced), plain_rate));
    m.set("core.solvability.certify_sweep_s", median(certify_sweeps));
    m.set("core.solvability.refute_sweep_s", median(refute_sweeps));
    m.set("core.solvability.refute_sweeps", static_cast<double>(refute_sweeps.size()));
    m.set("core.solvability.respawns", static_cast<double>(st.respawns) / n);
    m.set("core.solvability.ghost_hits", static_cast<double>(st.ghost_hits) / n);
    m.set("core.solvability.redelivers", static_cast<double>(st.redelivers) / n);
    m.set("core.solvability.max_undo_depth", static_cast<double>(st.max_undo_depth));
    m.set("core.solvability.dedup_hit_rate",
          ratio(static_cast<double>(st.dedup_hits), static_cast<double>(st.dedup_queries)));
    m.set("tasks.relation_calls", static_cast<double>(probes.calls_of(Probe::kRelation)) / n);
    m.set("tasks.relation_s", probes.seconds_of(Probe::kRelation) / n);
    m.set("tasks.pick_output_calls", static_cast<double>(probes.calls_of(Probe::kPickOutput)) / n);
    m.set("tasks.pick_output_s", probes.seconds_of(Probe::kPickOutput) / n);
    m.set("sim.proc.spawns", static_cast<double>(probes.calls_of(Probe::kSpawn)) / n);
    m.set("sim.proc.spawn_s", probes.seconds_of(Probe::kSpawn) / n);
    m.set("sim.world.world_builds", static_cast<double>(probes.calls_of(Probe::kWorldBuild)) / n);
    m.set("sim.world.world_build_s", probes.seconds_of(Probe::kWorldBuild) / n);
    const auto q = static_cast<double>(st.dedup_queries);
    m.set("core.diskset.recent_hit_rate", ratio(static_cast<double>(st.dedup_recent_hits), q));
    m.set("core.diskset.mem_hit_rate", ratio(static_cast<double>(st.dedup_mem_hits), q));
    m.set("core.diskset.cold_probes", static_cast<double>(st.dedup_cold_probes) / n);
    m.set("core.diskset.bloom_skip_rate", ratio(static_cast<double>(st.dedup_bloom_skips),
                                                static_cast<double>(st.dedup_cold_probes)));
    m.set("core.diskset.cold_hits", static_cast<double>(st.dedup_cold_hits) / n);
    m.set("core.diskset.spills", static_cast<double>(st.dedup_spills) / n);
    m.set("core.diskset.spill_bytes", static_cast<double>(st.dedup_spill_bytes) / n);
    m.set("core.diskset.merges", static_cast<double>(st.dedup_merges) / n);
    m.set("core.workpool.steals", static_cast<double>(st.pool_steals) / n);
    double cpu = 0, wall = 0;
    for (const Round& r : plain) {
      cpu += r.cpu_s;
      wall += r.wall_s;
    }
    m.set("core.workpool.cpu_util", ratio(cpu, wall * opts.threads));
    add_self_shares(m, out.spans, {"bench", "core.solvability"});
    out.notes.push_back(std::to_string(plain.size()) + " untraced + " +
                        std::to_string(traced.size()) + " traced round(s)");
  }
  d.teardown();
  out.notes.push_back("peak RSS after the first round " + std::to_string(d.first_peak_mb()) +
                      " MB, after the whole run " + std::to_string(peak_rss_mb()) + " MB");
  out.metrics = m.take();
}

// ---------------------------------------------------------------------------
// farm
// ---------------------------------------------------------------------------

struct FarmCall {
  efd::FarmStats stats;
  double wall_s = 0;
  double cpu_s = 0;
};

class FarmRunner {
 public:
  FarmRunner(const RunOptions& opts, RunResult& out) : opts_(opts), out_(out) {}

  /// The timed set-up: the target list and its known answers, and a fresh
  /// corpus directory opened through CorpusStore.
  void setup() {
    targets_.clear();
    for (const efd::CampaignTarget& t : efd::campaign_targets()) targets_.push_back(&t);
    answers_ = farm_answers(targets_);
    const std::string dir = opts_.work_dir + "/corpus-setup";
    fresh_dir(dir);
    efd::CorpusStore probe;
    const std::int64_t t0 = now_ns();
    (void)probe.open(dir);
    open_s_.push_back(seconds_since(t0));
  }

  FarmCall call(SpanRecorder* rec) {
    const std::string dir = opts_.work_dir + "/corpus-" + std::to_string(next_call_);
    fresh_dir(dir);
    efd::FarmOptions fo;
    fo.seed = opts_.seed + next_seed_offset_++;
    fo.workers = opts_.threads;
    fo.max_plans = kFarmPlans;
    fo.corpus_dir = dir;
    FarmCall c;
    {
      const Span root(rec, "bench:farm_call", next_call_);
      const Span span(rec, "core.campaign:run_farm");
      const std::int64_t t0 = now_ns();
      const double cpu0 = cpu_seconds();
      c.stats = efd::run_farm(targets_, fo);
      c.wall_s = seconds_since(t0);
      c.cpu_s = cpu_seconds() - cpu0;
    }
    ++next_call_;
    fs::remove_all(dir);
    out_.oracle.check_farm(answers_, fo.seed, c.stats);
    return c;
  }

  /// The next call starts the seed sequence over: the traced calls repeat
  /// the untraced calls' seeds, and their counts must match.
  void restart_seeds() { next_seed_offset_ = 0; }

  void finish() { out_.oracle.finish_farm(answers_); }

  std::vector<FarmCall> calls(double budget_s, SpanRecorder* rec, SetupSampler* setup = nullptr) {
    std::vector<FarmCall> cs;
    timed_loop(budget_s, [&] {
      cs.push_back(call(rec));
      if (first_peak_mb_ == 0) first_peak_mb_ = peak_rss_mb();
      if (setup != nullptr) setup->sample(kSetupRepsPerStep);
    });
    return cs;
  }

  /// Peak RSS of the process at the end of its first run_farm call.
  [[nodiscard]] double first_peak_mb() const { return first_peak_mb_; }

  /// The decomposed pass: the farm's seeded plan stream driven call by call
  /// (campaign_plan_seed -> FaultPlan::sample -> run_plan, and on a
  /// violation shrink_finding -> replay_tape -> CorpusStore), sequentially,
  /// each call under its own span. Mutated plans are not reproduced: run_farm
  /// derives them from its private coverage pool, so this pass samples a
  /// fresh plan in their place.
  struct Decomposed {
    std::int64_t plans = 0;
    std::vector<double> run_plan_clean_s, run_plan_buggy_s, shrink_s, shrink_ratio, replay_s,
        insert_s;
    std::int64_t rehearsal_steps = 0;
    std::int64_t monitored_steps = 0;
  };

  Decomposed decomposed(double budget_s, SpanRecorder* rec) {
    Decomposed d;
    const std::string dir = opts_.work_dir + "/corpus-decomposed";
    fresh_dir(dir);
    efd::CorpusStore corpus;
    {
      const std::int64_t t0 = now_ns();
      (void)corpus.open(dir);
      open_s_.push_back(seconds_since(t0));
    }
    std::vector<int> next_index(targets_.size(), 0);
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; d.plans == 0 || seconds_since(t0) < budget_s; ++i) {
      const std::size_t ti = static_cast<std::size_t>(i) % targets_.size();
      const efd::CampaignTarget& t = *targets_[ti];
      const Span root(rec, "bench:plan", i);
      std::uint64_t plan_seed = 0;
      {
        const Span s(rec, "core.campaign:campaign_plan_seed");
        plan_seed = efd::campaign_plan_seed(opts_.seed, t.name, next_index[ti]++);
      }
      efd::FaultPlan plan;
      {
        const Span s(rec, "sim.faultplan:sample");
        plan = efd::FaultPlan::sample(plan_seed, t.space);
      }
      efd::PlanOutcome out;
      {
        const Span s(rec, "core.campaign:run_plan");
        const std::int64_t s0 = now_ns();
        out = efd::run_plan(t, plan, plan_seed, true);
        (t.expect_clean ? d.run_plan_clean_s : d.run_plan_buggy_s).push_back(seconds_since(s0));
      }
      ++d.plans;
      d.rehearsal_steps += out.rehearsal_steps;
      d.monitored_steps += out.monitored_steps;
      bool replays_ok = true;
      if (out.violated()) replays_ok = classify(t, out, corpus, d, rec);
      out_.oracle.check_plan(t.name, t.expect_clean, out.violated(), replays_ok);
    }
    fs::remove_all(dir);
    return d;
  }

  [[nodiscard]] const std::vector<double>& open_samples() const { return open_s_; }

 private:
  /// The farm's corpus decision for one violating plan; false when a shrunk
  /// tape failed to replay.
  bool classify(const efd::CampaignTarget& t, const efd::PlanOutcome& out,
                efd::CorpusStore& corpus, Decomposed& d, SpanRecorder* rec) {
    const std::uint64_t raw_key = efd::corpus_key(out.tape);
    if (corpus.contains(raw_key)) return true;
    const std::string stem = t.name + "_" + std::to_string(out.plan_seed);
    if (!out.safety) {
      const Span s(rec, "core.corpus:insert");
      const std::int64_t s0 = now_ns();
      corpus.insert(raw_key, out.tape, stem);
      d.insert_s.push_back(seconds_since(s0));
      return true;
    }
    efd::ShrunkFinding sf;
    {
      const Span s(rec, "core.shrink:shrink_finding");
      const std::int64_t s0 = now_ns();
      sf = efd::shrink_finding(t.scenario, out.tape);
      d.shrink_s.push_back(seconds_since(s0));
    }
    d.shrink_ratio.push_back(ratio(static_cast<double>(sf.mini.steps.size()),
                                   static_cast<double>(out.tape.steps.size())));
    const efd::Scenario* sc = efd::find_scenario(t.scenario);
    bool replay_ok = false;
    if (sc != nullptr) {
      efd::World w = sc->make_world(sf.mini.pattern(), sf.mini.history());
      const Span s(rec, "sim.replay:replay_tape");
      const std::int64_t s0 = now_ns();
      const efd::ReplayResult rr = efd::replay_tape(w, sf.mini);
      d.replay_s.push_back(seconds_since(s0));
      replay_ok = rr.hash_match && sc->violated(w);
    }
    const std::uint64_t mini_key = efd::corpus_key(sf.mini);
    if (!corpus.contains(mini_key)) {
      const Span s(rec, "core.corpus:insert");
      const std::int64_t s0 = now_ns();
      corpus.insert(mini_key, sf.mini, stem);
      d.insert_s.push_back(seconds_since(s0));
    }
    {
      const Span s(rec, "core.corpus:add_alias");
      corpus.add_alias(raw_key, mini_key);
    }
    return sf.replay_ok && replay_ok;
  }

  const RunOptions& opts_;
  RunResult& out_;
  std::vector<const efd::CampaignTarget*> targets_;
  FarmAnswers answers_;
  std::vector<double> open_s_;
  std::int64_t next_call_ = 1;
  std::uint64_t next_seed_offset_ = 0;
  double first_peak_mb_ = 0;
};

void run_farm_workload(const RunOptions& opts, RunResult& out) {
  FarmRunner d(opts, out);
  MetricSink m(opts.trace);
  d.setup();

  const auto plans_per_s = [](const std::vector<FarmCall>& cs) {
    std::vector<double> v;
    for (const FarmCall& c : cs) v.push_back(ratio(static_cast<double>(c.stats.plans), c.wall_s));
    return median(v);
  };

  if (!opts.trace) {
    SetupSampler setup(opts);
    setup.sample(kSetupRepsFirst);
    const std::vector<FarmCall> cs = d.calls(opts.seconds, nullptr, &setup);
    m.set("setup_s", setup.median_s());
    out.notes.push_back("setup_s: median of " + std::to_string(setup.count()) +
                        " set-up processes");
    std::vector<double> steps, per_finding;
    for (const FarmCall& c : cs) {
      steps.push_back(ratio(static_cast<double>(c.stats.total_steps), c.wall_s));
      per_finding.push_back(ratio(c.wall_s, static_cast<double>(c.stats.violations)));
    }
    m.set("plans_per_s", plans_per_s(cs));
    m.set("states_per_s", median(steps));
    m.set("refute_s", median(per_finding));
    m.set("peak_rss_mb", d.first_peak_mb());
    std::string rates = "plans/s per call:";
    for (const FarmCall& c : cs) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.0f", ratio(static_cast<double>(c.stats.plans), c.wall_s));
      rates += buf;
    }
    out.notes.push_back(rates);
    const efd::FarmStats& st = cs.front().stats;
    out.notes.push_back(std::to_string(cs.size()) + " run_farm call(s) of " +
                        std::to_string(st.plans) + " plans, " + std::to_string(st.total_steps) +
                        " steps: " + std::to_string(st.violations) +
                        " violations, " + std::to_string(st.novel) + " novel, " +
                        std::to_string(st.shrunk) + " shrunk");
  } else {
    // A third untraced, a third run_farm under a root span (its FarmStats
    // give the campaign and corpus counts), a third the decomposed pass.
    const std::vector<FarmCall> plain = d.calls(opts.seconds / 3, nullptr);
    SpanRecorder rec;
    d.restart_seeds();
    const std::vector<FarmCall> traced = d.calls(opts.seconds / 3, &rec);
    const FarmRunner::Decomposed dp = d.decomposed(opts.seconds / 3, &rec);
    out.spans = rec.spans();

    const double plain_rate = plans_per_s(plain);
    m.set("trace.overhead", ratio(plain_rate - plans_per_s(traced), plain_rate));
    double cpu = 0, wall = 0;
    for (const FarmCall& c : plain) {
      cpu += c.cpu_s;
      wall += c.wall_s;
    }
    m.set("core.workpool.cpu_util", ratio(cpu, wall * opts.threads));
    const efd::FarmStats& st = traced.front().stats;
    std::int64_t starvation = 0;
    for (const auto& t : st.targets) starvation += t.starvation_observations;
    m.set("core.campaign.run_plan_clean_p50_s", quantile(dp.run_plan_clean_s, 0.5));
    m.set("core.campaign.run_plan_clean_p99_s", quantile(dp.run_plan_clean_s, 0.99));
    m.set("core.campaign.run_plan_buggy_p50_s", quantile(dp.run_plan_buggy_s, 0.5));
    m.set("core.campaign.run_plan_buggy_p99_s", quantile(dp.run_plan_buggy_s, 0.99));
    m.set("core.campaign.steps_per_plan",
          ratio(static_cast<double>(st.total_steps), static_cast<double>(st.plans)));
    m.set("core.campaign.rehearsal_steps",
          ratio(static_cast<double>(dp.rehearsal_steps), static_cast<double>(dp.plans)));
    m.set("core.campaign.mutated", static_cast<double>(st.mutated));
    m.set("core.campaign.coverage_sigs", static_cast<double>(st.coverage_sigs));
    m.set("core.campaign.batches", static_cast<double>(st.batches));
    m.set("core.monitors.monitored_steps",
          ratio(static_cast<double>(dp.monitored_steps), static_cast<double>(dp.plans)));
    m.set("core.monitors.starvation_observations", static_cast<double>(starvation));
    m.set("core.shrink.shrink_p50_s", quantile(dp.shrink_s, 0.5));
    m.set("core.shrink.shrink_p99_s", quantile(dp.shrink_s, 0.99));
    m.set("core.shrink.shrink_ratio", mean(dp.shrink_ratio));
    m.set("core.shrink.replays_ok", static_cast<double>(st.shrink_replays_ok));
    m.set("sim.replay.replay_s", median(dp.replay_s));
    m.set("core.corpus.insert_s", median(dp.insert_s));
    m.set("core.corpus.open_s", median(d.open_samples()));
    m.set("core.corpus.novel", static_cast<double>(st.novel));
    m.set("core.corpus.duplicates", static_cast<double>(st.duplicates));
    m.set("core.corpus.aliases", static_cast<double>(st.corpus_aliases));
    add_self_shares(m, out.spans,
                    {"bench", "core.campaign", "sim.faultplan", "core.shrink", "sim.replay",
                     "core.corpus"});
    out.notes.push_back(std::to_string(plain.size()) + " untraced + " +
                        std::to_string(traced.size()) + " traced run_farm call(s); decomposed " +
                        std::to_string(dp.plans) + " plans, " +
                        std::to_string(dp.shrink_s.size()) + " shrinks, " +
                        std::to_string(dp.insert_s.size()) + " inserts");
  }
  d.finish();
  out.notes.push_back("peak RSS after the first call " + std::to_string(d.first_peak_mb()) +
                      " MB, after the whole run " + std::to_string(peak_rss_mb()) + " MB");
  out.metrics = m.take();
}

}  // namespace

void run_setup(const RunOptions& opts) {
  RunResult unused;
  if (opts.workload == "farm") {
    FarmRunner(opts, unused).setup();
  } else {
    ExploreRunner(opts, opts.workload == "explore-spill", unused).setup(false, nullptr);
  }
}

RunResult run_workload(const RunOptions& opts) {
  RunResult out;
  if (opts.workload == "explore" || opts.workload == "explore-spill") {
    run_explore(opts, opts.workload == "explore-spill", out);
  } else if (opts.workload == "farm") {
    run_farm_workload(opts, out);
  } else {
    throw std::invalid_argument("unknown workload " + opts.workload);
  }
  if (opts.trace) {
    for (Metric& mt : out.metrics) {
      if (mt.name == "bench.error_rate") mt.value = out.oracle.error_rate();
    }
  }
  return out;
}

}  // namespace perfbench
