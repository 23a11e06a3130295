#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "core/monitors.hpp"
#include "core/repro_scenarios.hpp"
#include "core/shrink.hpp"
#include "core/workpool.hpp"
#include "sim/hash.hpp"
#include "sim/replay.hpp"

namespace efd {
namespace {

/// Coarse AFL-style coverage signature of one run: a 64-bit presence map of
/// the (process, op, register) triples the run exercised, mixed with the
/// decision count. Interleaving- and step-count-insensitive, so thousands of
/// random schedules of the same behaviour collapse onto a handful of
/// signatures — a plan that flips a fresh bit reached genuinely new
/// behaviour and is worth mutating.
std::uint64_t trace_coverage_sig(const Trace& tr) {
  std::uint64_t map = 0;
  std::int64_t decisions = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (tr.null_at(i)) continue;
    const Pid pid = tr.pid_at(i);
    const OpKind op = tr.op_at(i);
    std::uint64_t h = (static_cast<std::uint64_t>(pid.is_s()) << 40) ^
                      (static_cast<std::uint64_t>(pid.index) << 32) ^
                      (static_cast<std::uint64_t>(op) << 24);
    const RegAddr addr = tr.addr_at(i);
    if (addr.valid()) h ^= addr.name_hash();
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    map |= 1ULL << (h & 63);
    if (op == OpKind::kDecide) ++decisions;
  }
  return map ^ (0x632BE59BD9B4E019ULL * static_cast<std::uint64_t>(decisions + 1));
}

/// The scenario `name` names; throws std::invalid_argument for `caller`
/// when no scenario does.
const Scenario& scenario_named(const std::string& name, const char* caller) {
  const Scenario* sc = find_scenario(name);
  if (sc == nullptr) {
    throw std::invalid_argument(std::string(caller) + ": unknown scenario " + name);
  }
  return *sc;
}

}  // namespace

const std::vector<CampaignTarget>& campaign_targets() {
  static const std::vector<CampaignTarget> targets = [] {
    std::vector<CampaignTarget> out;
    for (const Scenario& sc : scenarios()) {
      if (sc.campaign) out.push_back(*sc.campaign);
    }
    return out;
  }();
  return targets;
}

const CampaignTarget* find_campaign_target(const std::string& name) {
  for (const auto& t : campaign_targets()) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::uint64_t campaign_plan_seed(std::uint64_t campaign_seed, const std::string& target,
                                 int index) {
  // The target-name fold decorrelates plan sequences across targets: the old
  // mix_seed(seed, i) gave every target the SAME plans (and two campaigns
  // writing into one save_dir the same tape stems).
  return splitmix64_at(campaign_seed ^ fnv1a(target), static_cast<std::uint64_t>(index));
}

PlanOutcome run_plan(const CampaignTarget& target, const FaultPlan& plan,
                     std::uint64_t plan_seed, bool monitors) {
  const Scenario& sc = scenario_named(target.scenario, "run_plan");

  PlanOutcome out;
  out.plan_seed = plan_seed;
  out.plan = plan;

  const FailurePattern base(sc.num_s);
  const DetectorPtr advice = plan.corrupt(target.advice());

  // Rehearsal: resolve the plan's S-kills (storm step indices, trigger
  // matches) into concrete crash TIMES over the base pattern.
  std::vector<std::optional<Time>> crash_at(static_cast<std::size_t>(sc.num_s));
  if (!plan.storm.empty() || !plan.triggers.empty()) {
    World rehearsal = sc.make_world(base, advice->history(base, plan_seed));
    const auto inner = target.make_sched(plan_seed);
    BurstScheduler bursts(*inner, plan.bursts);
    const DriveResult dr = drive(rehearsal, bursts, target.max_steps, plan.faults());
    out.rehearsal_steps = dr.steps;
    int never_crashed = sc.num_s;
    for (std::size_t k = 0; k < dr.applied.size(); ++k) {
      const auto qi = static_cast<std::size_t>(dr.applied[k].s_index);
      if (crash_at[qi]) continue;
      // Correct algorithms are only live while some S-process survives:
      // cap the kills there so a liveness violation is the ALGORITHM's.
      if (target.expect_clean && never_crashed <= 1) continue;
      crash_at[qi] = dr.applied_at[k];
      --never_crashed;
    }
  }
  const FailurePattern eff(crash_at);

  // Authoritative run: honest advice recomputed over the EFFECTIVE
  // pattern, then plan-corrupted; bursts wrap the scheduler; the monitor
  // watches with plan-scaled bounds.
  const DetectorPtr eff_advice = plan.corrupt(target.advice());
  World w = sc.make_world(eff, eff_advice->history(eff, plan_seed));

  std::int64_t total_burst = 0;
  for (const auto& b : plan.bursts) total_burst += b.length;
  // Link-fault liveness allowance: every lost delivery costs the hardened
  // protocols a doubling-backoff retry wait, so the worst-case recovery time
  // is exponential in the per-run loss budget (capped well below the retry
  // horizon by the target's space). Sever windows only HOLD messages; they
  // add linearly.
  std::int64_t lost_charge = 0;
  std::int64_t sever_hold = 0;
  for (const auto& la : plan.links) {
    if (la.kind == LinkFaultKind::kSever) {
      sever_hold += la.amount;
    } else {
      lost_charge += la.amount;
    }
  }
  const std::int64_t link_wait =
      plan.links.empty()
          ? 0
          : (std::int64_t{16} << std::min<std::int64_t>(lost_charge + 1, 10)) + 4 * sever_hold;
  const Time stab = eff_advice->stabilization_time(eff);
  MonitorBounds mb;
  if (target.bounds.own_steps_to_decide > 0) {
    mb.own_steps_to_decide =
        target.bounds.own_steps_to_decide + 2 * stab + total_burst + link_wait;
  }
  if (target.bounds.starvation_window > 0) {
    mb.starvation_window = target.bounds.starvation_window + total_burst;
  }
  if (target.bounds.livelock_window > 0) {
    mb.livelock_window =
        target.bounds.livelock_window + 4 * stab + 2 * total_burst + 2 * link_wait;
  }
  if (target.bounds.retransmit_storm_window > 0) {
    // Each lost delivery legitimately buys extra retransmissions; the storm
    // flag is reserved for send volume NO sampled loss budget explains.
    mb.retransmit_storm_window =
        target.bounds.retransmit_storm_window + 16 * lost_charge + 8 * sever_hold;
  }
  LivenessMonitor monitor(mb);
  if (monitors) w.attach_observer(&monitor);

  const auto inner = target.make_sched(plan_seed);
  BurstScheduler bursts(*inner, plan.bursts);
  // Authoritative drive with the link half of the plan only: S-kills were
  // already realized as the effective pattern above, so storms and triggers
  // must not fire a second time.
  ScheduleTape tape = record_tape(target.scenario, w, bursts, target.max_steps,
                                  Faults{.links = plan.resolve_links()});
  w.attach_observer(nullptr);
  if (monitors) monitor.finalize(w);

  out.steps = static_cast<std::int64_t>(tape.steps.size());
  out.monitored_steps = monitor.monitored_steps();
  out.max_own_steps_to_decide = monitor.max_own_steps_to_decide();
  for (const auto& v : monitor.violations()) {
    if (v.kind == MonitorViolation::Kind::kStarvation) ++out.starvation_observations;
    if (v.kind == MonitorViolation::Kind::kRetransmitStorm) out.retransmit_storm = true;
  }
  out.coverage_sig = trace_coverage_sig(w.trace());

  out.safety = sc.violated(w);
  // A retransmit storm is a liveness finding on par with a broken
  // wait-freedom bound: the hardened protocols must converge without
  // unexplained send volume. Only targets that SET the storm window can flag
  // it, so link-free targets are untouched.
  out.wait_free_bad = monitors && (!monitor.wait_free_ok() || out.retransmit_storm);
  if (!out.violated()) return out;

  if (out.safety) {
    out.detail = "scenario safety predicate violated";
  }
  if (out.wait_free_bad) {
    for (const auto& v : monitor.violations()) {
      if (v.kind == MonitorViolation::Kind::kWaitFree ||
          v.kind == MonitorViolation::Kind::kRetransmitStorm) {
        if (!out.detail.empty()) out.detail += "; ";
        out.detail += v.to_string();
        break;
      }
    }
  }

  out.tape = std::move(tape);
  // expect_violated records the SAFETY predicate outcome truthfully (a
  // wait-freedom-only tape replays "ok, as expected"); the finding line is
  // the triage-facing verdict that says WHY the tape was kept.
  out.tape.expect_violated = out.safety;
  out.tape.plan = plan.to_string();
  out.tape.finding = out.safety && out.wait_free_bad ? "safety+wait-free"
                     : out.safety                    ? "safety"
                                                     : "wait-free";
  return out;
}

ShrunkFinding shrink_finding(const std::string& scenario, const ScheduleTape& tape) {
  const Scenario& sc = scenario_named(scenario, "shrink_finding");
  const TapePredicate still_fails = scenario_predicate(sc, true);
  ShrunkFinding out;
  out.mini = shrink_tape(tape, still_fails);
  const ScenarioReplayOutcome stamp = replay_in_scenario(sc, out.mini);
  out.mini.expect_hash = stamp.replay.hash;
  out.mini.expect_violated = true;
  out.mini.plan = tape.plan;
  out.mini.finding = tape.finding;
  const ScenarioReplayOutcome again = replay_in_scenario(sc, out.mini);
  out.replay_ok = again.replay.hash_match && again.violated;
  return out;
}

std::optional<Submission> parse_submission(const std::string& line) {
  if (line.empty() || line[0] == '#') return std::nullopt;
  const auto sp = line.find(' ');
  if (sp == std::string::npos) {
    throw std::invalid_argument("queue line without plan text: " + line);
  }
  return Submission{line.substr(0, sp), FaultPlan::parse(line.substr(sp + 1))};
}

bool campaign_verdict_ok(const FarmStats& stats) {
  return stats.shrink_replays_ok == stats.shrunk &&
         std::all_of(stats.targets.begin(), stats.targets.end(),
                     [](const FarmTargetStats& t) { return t.verdict_ok(); });
}

namespace {

/// Fills the FarmStats totals from its per-target rows.
void sum_target_rows(FarmStats& stats) {
  stats.plans = stats.clean = stats.novel = stats.duplicates = 0;
  stats.mutated = stats.external = stats.coverage_sigs = stats.total_steps = 0;
  for (const FarmTargetStats& t : stats.targets) {
    stats.plans += t.plans;
    stats.clean += t.clean;
    stats.novel += t.novel;
    stats.duplicates += t.duplicates;
    stats.mutated += t.mutated;
    stats.external += t.external;
    stats.coverage_sigs += t.coverage_sigs;
    stats.total_steps += t.total_steps;
  }
  stats.violations = stats.plans - stats.clean;
}

/// Per-target farm state, advanced only by the (sequential) dispatcher.
struct TargetState {
  const CampaignTarget* target = nullptr;
  FarmTargetStats stats;
  int next_index = 0;     ///< next fresh-sample plan index
  int external_index = 0; ///< seed counter for PlanSource submissions
  std::unordered_set<std::uint64_t> sigs;  ///< coverage signatures seen
  std::deque<FaultPlan> pool;              ///< novel-coverage plans (mutation fuel)

  void remember(const FaultPlan& plan) {
    pool.push_back(plan);
    if (pool.size() > 64) pool.pop_front();
  }
};

/// One batch slot: everything the sequential post-pass needs, in slot order.
struct Slot {
  int target = 0;  ///< index into states
  FaultPlan plan;
  std::uint64_t plan_seed = 0;
  bool mutated = false;
  bool external = false;
  PlanOutcome out;
  std::uint64_t raw_key = 0;             ///< corpus_key of the raw tape (violations)
  std::optional<ShrunkFinding> shrunk;   ///< filled by the parallel shrink pass
};

}  // namespace

FarmStats run_farm(const std::vector<const CampaignTarget*>& targets, const FarmOptions& opts) {
  if (targets.empty()) throw std::invalid_argument("run_farm: no targets");

  FarmStats stats;
  CorpusStore corpus;
  if (!opts.corpus_dir.empty()) {
    const CorpusStore::LoadReport rep = corpus.open(opts.corpus_dir);
    stats.corpus_seeded += rep.loaded;
    stats.quarantined += rep.quarantined;
  }
  for (const auto& dir : opts.seed_corpora) {
    const CorpusStore::LoadReport rep = corpus.absorb(dir);
    stats.corpus_seeded += rep.loaded;
    stats.quarantined += rep.quarantined;
  }

  std::vector<TargetState> states(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    states[t].target = targets[t];
    states[t].stats.target = targets[t]->name;
    states[t].stats.expect_clean = targets[t]->expect_clean;
  }

  // One resident crew for the whole serve: per-batch thread spawn costs more
  // than it looks — each fresh std::thread starts with cold thread-local
  // register-interner memos and a cold allocator arena, and at farm batch
  // rates (thousands per minute) that re-warming made 8 workers SLOWER than
  // one. Parked persistent workers keep per-thread state hot across batches.
  ResidentPool pool(opts.workers);

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  double next_soak = opts.soak_interval_s;
  std::size_t rr = 0;           ///< round-robin cursor over targets
  std::int64_t dispatched = 0;  ///< plans handed to the pool so far

  // `stats` itself carries only the run-wide counters; outcomes are counted
  // once, in the per-target rows, and summed into every record handed out.
  const auto snapshot = [&] {
    FarmStats snap = stats;
    snap.elapsed_s = elapsed();
    snap.corpus_size = corpus.size();
    snap.corpus_aliases = corpus.alias_count();
    for (const auto& s : states) snap.targets.push_back(s.stats);
    sum_target_rows(snap);
    return snap;
  };

  for (;;) {
    // Stop conditions hold only at batch boundaries: the in-flight batch
    // always completes and its findings are processed (graceful drain).
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed)) {
      stats.drained = true;
      break;
    }
    if (opts.duration_s > 0 && elapsed() >= opts.duration_s) break;
    if (opts.max_plans > 0 && dispatched >= opts.max_plans) break;

    // Phase 1 (sequential): build the batch. External submissions first,
    // then round-robin seeded/mutated plans. All nondeterminism is derived
    // from plan_seed, so a farm re-run with the same seed and no external
    // source replays the exact same plan stream.
    const int want = opts.max_plans > 0
                         ? static_cast<int>(std::min<std::int64_t>(
                               opts.batch, opts.max_plans - dispatched))
                         : opts.batch;
    std::vector<Slot> batch;
    batch.reserve(static_cast<std::size_t>(want));
    while (opts.source != nullptr && static_cast<int>(batch.size()) < want) {
      const std::optional<std::string> line = opts.source->poll();
      if (!line) break;
      std::optional<Submission> sub;
      try {
        sub = parse_submission(*line);
      } catch (const std::invalid_argument&) {  // no plan text, or a malformed plan
        ++stats.dropped_submissions;
        continue;
      }
      if (!sub) continue;  // blank or comment line
      int ti = -1;
      for (std::size_t t = 0; t < states.size(); ++t) {
        if (states[t].target->name == sub->target) { ti = static_cast<int>(t); break; }
      }
      if (ti < 0) {  // unknown target name: drop the submission, counted
        ++stats.dropped_submissions;
        continue;
      }
      Slot s;
      s.target = ti;
      s.plan = std::move(sub->plan);
      s.plan_seed = campaign_plan_seed(opts.seed ^ 0xE7F4A5C3D2B1906FULL,
                                       states[static_cast<std::size_t>(ti)].target->name,
                                       states[static_cast<std::size_t>(ti)].external_index++);
      s.external = true;
      batch.push_back(std::move(s));
    }
    while (static_cast<int>(batch.size()) < want) {
      const auto ti = rr++ % states.size();
      TargetState& ts = states[ti];
      Slot s;
      s.target = static_cast<int>(ti);
      s.plan_seed = campaign_plan_seed(opts.seed, ts.target->name, ts.next_index++);
      // Deterministic search-move choice: mostly fresh samples, with mutation
      // and splice moves drawn from the novel-coverage pool when available.
      const std::uint64_t move = s.plan_seed >> 56;
      if (opts.mutate && !ts.pool.empty() && move % 4 == 1) {
        const auto pi = static_cast<std::size_t>((s.plan_seed >> 8) % ts.pool.size());
        s.plan = ts.pool[pi].mutate(s.plan_seed, ts.target->space);
        s.mutated = true;
      } else if (opts.mutate && ts.pool.size() >= 2 && move % 8 == 2) {
        const auto pa = static_cast<std::size_t>((s.plan_seed >> 8) % ts.pool.size());
        const auto pb = static_cast<std::size_t>((s.plan_seed >> 20) % (ts.pool.size() - 1));
        s.plan = FaultPlan::splice(ts.pool[pa], ts.pool[pb + (pb >= pa ? 1 : 0)],
                                   s.plan_seed, ts.target->space);
        s.mutated = true;
      } else {
        s.plan = FaultPlan::sample(s.plan_seed, ts.target->space);
      }
      batch.push_back(std::move(s));
    }
    if (batch.empty()) break;
    dispatched += static_cast<std::int64_t>(batch.size());

    // Phase 2 (parallel): run the batch on the work-stealing pool. run_plan
    // is pure in its arguments, so verdicts are byte-identical to a
    // sequential run_plan loop regardless of worker count or steal order.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(batch.size());
    for (auto& s : batch) {
      tasks.emplace_back([&s, &states, &opts] {
        const TargetState& ts = states[static_cast<std::size_t>(s.target)];
        s.out = run_plan(*ts.target, s.plan, s.plan_seed, opts.monitors);
      });
    }
    PoolStats pool_stats;
    pool.run(std::move(tasks), &pool_stats);
    stats.pool_steals += pool_stats.steals;
    ++stats.batches;

    // Phase 3a (sequential): decide which findings need a shrink — safety
    // violations whose raw tape key is known neither to the corpus nor to an
    // earlier slot of THIS batch. Phase 3b then runs the shrinks on the pool
    // (ddmin is pure in (scenario, tape)), so the expensive part of finding
    // classification parallelizes too; 3c consumes the results in slot
    // order, which keeps every corpus decision deterministic.
    {
      std::unordered_set<std::uint64_t> claimed;
      std::vector<Slot*> to_shrink;
      for (auto& s : batch) {
        if (!s.out.violated()) continue;
        s.raw_key = corpus_key(s.out.tape);
        if (opts.shrink && s.out.safety && !corpus.contains(s.raw_key) &&
            claimed.insert(s.raw_key).second) {
          to_shrink.push_back(&s);
        }
      }
      std::vector<std::function<void()>> shrinks;
      shrinks.reserve(to_shrink.size());
      for (Slot* s : to_shrink) {
        const CampaignTarget* tgt = states[static_cast<std::size_t>(s->target)].target;
        shrinks.emplace_back(
            [s, tgt] { s->shrunk = shrink_finding(tgt->scenario, s->out.tape); });
      }
      pool.run(std::move(shrinks), &pool_stats);
      stats.pool_steals += pool_stats.steals;
    }

    // Phase 3c (sequential, slot order): counters, coverage pool, corpus
    // classification.
    for (auto& s : batch) {
      TargetState& ts = states[static_cast<std::size_t>(s.target)];
      FarmTargetStats& row = ts.stats;
      ++row.plans;
      row.total_steps += s.out.steps;
      row.starvation_observations += s.out.starvation_observations;
      row.max_own_steps_to_decide =
          std::max(row.max_own_steps_to_decide, s.out.max_own_steps_to_decide);
      if (s.mutated) ++row.mutated;
      if (s.external) ++row.external;
      if (ts.sigs.insert(s.out.coverage_sig).second) {
        ++row.coverage_sigs;
        if (opts.mutate) ts.remember(s.plan);
      }
      if (!s.out.violated()) {
        ++row.clean;
        continue;
      }
      if (s.out.safety) ++row.safety_violations;
      if (s.out.wait_free_bad) ++row.wait_free_violations;

      if (corpus.contains(s.raw_key)) {
        ++row.duplicates;
        continue;
      }
      const std::string stem =
          ts.target->name + "_s" + std::to_string(opts.seed) + "_" + std::to_string(s.plan_seed);
      if (s.shrunk) {
        const ShrunkFinding& sf = *s.shrunk;
        ++stats.shrunk;
        if (sf.replay_ok) ++stats.shrink_replays_ok;
        const std::uint64_t mini_key = corpus_key(sf.mini);
        if (corpus.contains(mini_key)) {
          // A different plan shrank onto a known minimal tape: duplicate.
          // The raw alias makes the NEXT exact rediscovery skip the shrink.
          ++row.duplicates;
          corpus.add_alias(s.raw_key, mini_key);
          continue;
        }
        corpus.insert(mini_key, sf.mini, stem);
        corpus.add_alias(s.raw_key, mini_key);
      } else if (opts.shrink && s.out.safety) {
        // An earlier slot of this batch claimed the same raw key and shrank
        // it; that slot's corpus decision already covers this finding.
        ++row.duplicates;
        continue;
      } else {
        // Wait-freedom-only findings have no tape-level shrink oracle: the
        // raw tape is the canonical corpus entry.
        corpus.insert(s.raw_key, s.out.tape, stem);
      }
      ++row.novel;
    }

    if (opts.soak_interval_s > 0 && elapsed() >= next_soak) {
      if (opts.on_soak) opts.on_soak(farm_json(snapshot(), opts, "soak"));
      next_soak = elapsed() + opts.soak_interval_s;
    }
  }

  stats = snapshot();
  if (opts.on_soak) opts.on_soak(farm_json(stats, opts, "final"));
  return stats;
}

telemetry::Json farm_json(const FarmStats& stats, const FarmOptions& opts,
                          const std::string& mode) {
  using telemetry::Json;
  Json doc = Json::object();
  doc["schema"] = Json("efd-campaign-farm-v1");
  doc["experiment"] = Json("campaign-farm");
  doc["git"] = Json(telemetry::git_describe());
  doc["mode"] = Json(mode);
  doc["seed"] = Json(static_cast<std::int64_t>(opts.seed));
  doc["workers"] = Json(opts.workers);
  doc["batch"] = Json(opts.batch);
  doc["monitors"] = Json(opts.monitors);
  doc["shrink"] = Json(opts.shrink);
  doc["mutate"] = Json(opts.mutate);
  doc["elapsed_s"] = Json(stats.elapsed_s);
  doc["plans"] = Json(stats.plans);
  doc["plans_per_s"] = Json(stats.elapsed_s > 0 ? static_cast<double>(stats.plans) / stats.elapsed_s
                                                : 0.0);
  doc["clean"] = Json(stats.clean);
  doc["violations"] = Json(stats.violations);
  doc["novel"] = Json(stats.novel);
  doc["duplicates"] = Json(stats.duplicates);
  doc["shrunk"] = Json(stats.shrunk);
  doc["shrink_replays_ok"] = Json(stats.shrink_replays_ok);
  doc["mutated"] = Json(stats.mutated);
  doc["external"] = Json(stats.external);
  doc["dropped_submissions"] = Json(stats.dropped_submissions);
  doc["coverage_sigs"] = Json(stats.coverage_sigs);
  doc["total_steps"] = Json(stats.total_steps);
  doc["batches"] = Json(stats.batches);
  doc["pool_steals"] = Json(stats.pool_steals);
  doc["drained"] = Json(stats.drained);
  Json corpus = Json::object();
  corpus["dir"] = Json(opts.corpus_dir);
  corpus["size"] = Json(static_cast<std::int64_t>(stats.corpus_size));
  corpus["aliases"] = Json(static_cast<std::int64_t>(stats.corpus_aliases));
  corpus["seeded"] = Json(stats.corpus_seeded);
  corpus["quarantined"] = Json(stats.quarantined);
  doc["corpus"] = std::move(corpus);
  Json targets = Json::array();
  for (const auto& t : stats.targets) {
    Json e = Json::object();
    e["target"] = Json(t.target);
    e["expect_clean"] = Json(t.expect_clean);
    e["plans"] = Json(t.plans);
    e["clean"] = Json(t.clean);
    e["safety_violations"] = Json(t.safety_violations);
    e["wait_free_violations"] = Json(t.wait_free_violations);
    e["novel"] = Json(t.novel);
    e["duplicates"] = Json(t.duplicates);
    e["starvation_observations"] = Json(t.starvation_observations);
    e["coverage_sigs"] = Json(t.coverage_sigs);
    e["mutated"] = Json(t.mutated);
    e["external"] = Json(t.external);
    e["total_steps"] = Json(t.total_steps);
    e["max_own_steps_to_decide"] = Json(t.max_own_steps_to_decide);
    targets.push_back(std::move(e));
  }
  doc["targets"] = std::move(targets);
  return doc;
}

}  // namespace efd
