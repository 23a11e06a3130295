// Named reproduction scenarios: the one table of runnable worlds, and the
// bridge between a ScheduleTape (which stores only the environment and the
// schedule) and a runnable World (which needs process bodies).
//
// A tape names its scenario; the registry rebuilds that scenario's processes
// around the tape's recorded pattern + FD history, replays, and evaluates
// the scenario's violation predicate. The same registry drives:
//  * tools/efd_repro  — record / replay / shrink from the command line;
//  * tests/test_replay_corpus.cpp — every checked-in corpus tape replays as
//    a regression (ctest -L replay);
//  * core/shrink.hpp — scenario_predicate() is the ddmin oracle;
//  * core/campaign.hpp — a scenario with a campaign part (advice, scheduler
//    family, step cap, liveness bounds, plan space) is a fault-campaign
//    target; campaign_targets() lists those parts in registry order.
//
// Scenario contract: make_world must spawn DETERMINISTIC bodies — fixed
// sizes, fixed inputs, fixed namespaces — so a tape recorded today rebuilds
// bit-identically in any future process. All seed-dependence lives in
// record() (pattern, history, schedule), whose products the tape carries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/monitors.hpp"
#include "core/shrink.hpp"
#include "fd/detectors.hpp"
#include "sim/faultplan.hpp"
#include "sim/replay.hpp"
#include "sim/world.hpp"

namespace efd {

/// A scenario's campaign part: how the fault campaign (core/campaign.hpp)
/// drives the scenario's world. The registry stamps `scenario` with the name
/// of the entry that holds the part.
struct CampaignTarget {
  std::string name;       ///< short key for the CLI / JSON ("cons", "tw", ...)
  std::string scenario;   ///< name of the scenario that holds this part
  std::string algorithm;  ///< human-readable algorithm label

  std::function<DetectorPtr()> advice;        ///< honest advice detector
  /// Scheduler family (seeded); the campaign wraps it in Burst + Recording.
  std::function<std::unique_ptr<Scheduler>(std::uint64_t seed)> make_sched;

  std::int64_t max_steps = 4000;

  // Base liveness bounds (0 disables the check). Scaled PER PLAN: the
  // wait-freedom bound grows with the advice stabilization time and the
  // plan's total burst length, the watchdog windows likewise — planned
  // unfairness must not masquerade as an algorithm violation.
  MonitorBounds bounds;

  bool expect_clean = true;  ///< correct algorithm: any violation is a finding
  FaultPlan::Space space;    ///< plan sampling dimensions
};

struct Scenario {
  std::string name;
  std::string summary;
  int num_s = 0;  ///< S-processes of the base pattern (record() and the campaign)

  /// Rebuilds the scenario's processes in a world over the given
  /// environment (typically tape.pattern() / tape.history()).
  std::function<World(const FailurePattern&, HistoryPtr)> make_world;

  /// True when the scenario's property is violated in the stopped world.
  std::function<bool(const World&)> violated;

  /// Records a fresh native run from `seed` (scenario-specific scheduler,
  /// detector and fault plan); the returned tape has expect_violated and
  /// expect_hash stamped from the observed run.
  std::function<ScheduleTape(std::uint64_t seed)> record;

  /// Set when the fault campaign sweeps this scenario's world.
  std::optional<CampaignTarget> campaign;
};

/// All registered scenarios (stable order; names are unique).
[[nodiscard]] const std::vector<Scenario>& scenarios();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

struct ScenarioReplayOutcome {
  ReplayResult replay;
  bool violated = false;  ///< scenario predicate on the replayed world
  RunStats stats;         ///< the replayed world's run stats
  /// expect_hash and expect_violated (where present) both matched.
  [[nodiscard]] bool matches(const ScheduleTape& tape) const {
    return replay.hash_match &&
           (!tape.expect_violated || *tape.expect_violated == violated);
  }
};

/// Replays `tape` in a fresh world of scenario `sc` and evaluates the
/// predicate.
[[nodiscard]] ScenarioReplayOutcome replay_in_scenario(const Scenario& sc,
                                                       const ScheduleTape& tape);

/// ddmin oracle: candidate tapes still count as failing while the
/// scenario's predicate outcome equals `expect_violated`.
[[nodiscard]] TapePredicate scenario_predicate(const Scenario& sc, bool expect_violated);

}  // namespace efd
