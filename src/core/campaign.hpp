// Adversarial fault campaigns: seeded sweeps of random FaultPlans against
// the paper's algorithms, with liveness monitoring, violation tapes, and
// automatic ddmin shrinking.
//
// A target is the campaign part of a repro scenario (CampaignTarget,
// core/repro_scenarios.hpp): the scenario's world and safety predicate plus
// an honest advice detector, a scheduler family, liveness bounds, and a
// FaultPlan::Space. For every plan seed the campaign:
//
//  1. samples a FaultPlan and, when it contains S-kills, resolves them in a
//     REHEARSAL drive (drive under the plan's faults() over the base
//     pattern) into concrete crash times;
//  2. re-runs authoritatively with the EFFECTIVE failure pattern — the base
//     pattern plus the rehearsed crash times — so honest advice is computed
//     over the failures that actually happen (an Ω that keeps endorsing a
//     killed leader would be a lie, not a fault-tolerance finding). The
//     plan's FD corruption wraps the advice (fd/faulty.hpp), bursts wrap the
//     scheduler, only the plan's link faults are injected (the kills are in
//     the pattern already), and a LivenessMonitor (core/monitors.hpp)
//     watches every step with bounds scaled by the plan's corruption window
//     and burst lengths. record_tape (sim/replay.hpp) runs this drive;
//  3. evaluates the scenario safety predicate + the monitor's wait-freedom
//     certificate; violations keep the recorded run as a plain efd-tape-v1
//     tape (FaultPlan text attached as the `plan` provenance line, the
//     verdict as the `finding` line).
//
// run_farm is the one runner over this unit: it classifies each finding
// against a content-hashed CorpusStore (core/corpus.hpp), ddmin-shrinks only
// novel safety findings via the scenario predicate, re-verifies them by
// bit-identical double replay, and stores them. Runs are deterministic in
// (seed, plan stream): same inputs, same plans, same verdicts, same tapes,
// whatever the worker count. Starvation watchdog hits are reported as
// schedule observations and never counted as algorithm violations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/repro_scenarios.hpp"
#include "core/telemetry.hpp"
#include "sim/faultplan.hpp"

namespace efd {

/// The built-in sweep list, in scenario-registry order: the campaign parts
/// of every scenario that has one — the paper algorithms expected to survive
/// every plan, plus the seeded-buggy variants the campaign must catch.
[[nodiscard]] const std::vector<CampaignTarget>& campaign_targets();
[[nodiscard]] const CampaignTarget* find_campaign_target(const std::string& name);

// ---------------------------------------------------------------------------
// Campaign farm: the one campaign runner (DESIGN.md 4d/4g, EXPERIMENTS.md
// E15/E18). run_farm streams plans from the seeded generator / coverage-
// guided mutator / an external PlanSource, dispatches them across workers as
// ResidentPool batches, dedups findings against a CorpusStore, and shrinks +
// double-replay-verifies only novel findings. A bounded call with mutation
// off and max_plans = plans x targets is the classic fixed sweep: round-robin
// hands each target exactly plan indices 0..plans-1 (`efd_campaign run`).
// ---------------------------------------------------------------------------

/// Deterministic per-plan seed: folds the campaign seed, the TARGET NAME and
/// the plan index. Folding the name is load-bearing — deriving from the
/// index alone made every target sample the SAME plan sequence (perfectly
/// correlated coverage across targets; regression-pinned in test_campaign).
[[nodiscard]] std::uint64_t campaign_plan_seed(std::uint64_t campaign_seed,
                                               const std::string& target, int index);

/// One plan's verdict — the unit of work every farm worker executes. Pure
/// in (target, plan, plan_seed, monitors): thread-safe and byte-
/// deterministic, which is what lets the farm fan plans out across workers
/// without perturbing verdicts.
struct PlanOutcome {
  std::uint64_t plan_seed = 0;
  FaultPlan plan;
  bool safety = false;          ///< scenario predicate fired
  /// Monitor liveness verdict broken: the wait-freedom bound, or (on targets
  /// with a retransmit_storm_window) a retransmit-storm livelock flag.
  bool wait_free_bad = false;
  bool retransmit_storm = false;  ///< the storm watchdog specifically fired
  std::string detail;
  std::int64_t steps = 0;
  std::int64_t rehearsal_steps = 0;
  std::int64_t monitored_steps = 0;
  std::int64_t max_own_steps_to_decide = 0;
  std::int64_t starvation_observations = 0;
  /// Coarse trace-shape signature (which (process, op, register) triples the
  /// run exercised + decision count). Interleaving-insensitive by design:
  /// the farm mutates plans whose runs flip a bit nobody flipped before.
  std::uint64_t coverage_sig = 0;
  /// Populated ONLY on violation: the captured tape, finding + plan lines
  /// stamped (finding = "safety" / "wait-free" / "safety+wait-free").
  ScheduleTape tape;

  [[nodiscard]] bool violated() const { return safety || wait_free_bad; }
};

/// Runs one plan against one target (rehearsal, effective-pattern re-drive,
/// monitors, tape capture on violation). The farm workers' unit of work.
[[nodiscard]] PlanOutcome run_plan(const CampaignTarget& target, const FaultPlan& plan,
                                   std::uint64_t plan_seed, bool monitors);

/// ddmin-shrinks a safety-finding tape and double-replay-verifies the
/// minimized tape; provenance (plan, finding) carries over and expectations
/// are re-stamped from the minimized tape's own replay.
struct ShrunkFinding {
  ScheduleTape mini;
  bool replay_ok = false;  ///< shrunk tape double-replayed bit-identically
};
[[nodiscard]] ShrunkFinding shrink_finding(const std::string& scenario, const ScheduleTape& tape);

/// External plan queue (the `serve` FIFO): non-blocking; each poll returns
/// one raw queue line (without its newline) or nullopt when none is ready.
/// run_farm parses the lines (parse_submission).
class PlanSource {
 public:
  virtual ~PlanSource() = default;
  virtual std::optional<std::string> poll() = 0;
};

/// One external plan submission: a target name and the plan to run on it.
struct Submission {
  std::string target;
  FaultPlan plan;
};

/// Parses one `<target> <plan-v1 text>` queue line. Returns nullopt for a
/// blank or `#` comment line (skipped, not a submission); throws
/// std::invalid_argument for a line with no plan text or a malformed plan.
/// run_farm counts thrown lines, and lines naming no farm target, in
/// FarmStats::dropped_submissions.
[[nodiscard]] std::optional<Submission> parse_submission(const std::string& line);

struct FarmOptions {
  std::uint64_t seed = 42;
  int workers = 8;
  int batch = 64;              ///< plans per work-stealing dispatch batch
  std::int64_t max_plans = 0;  ///< stop after this many plans (0: unbounded)
  double duration_s = 0;       ///< stop after this much wall time (0: unbounded)
  bool monitors = true;
  bool shrink = true;
  bool mutate = true;          ///< coverage-guided mutation of novel-coverage plans
  std::string corpus_dir;     ///< persistent corpus directory ("": in-memory dedup)
  std::vector<std::string> seed_corpora;  ///< read-only corpora absorbed at startup
  double soak_interval_s = 5.0;           ///< streaming soak-record cadence
  std::function<void(const telemetry::Json&)> on_soak;  ///< soak-record sink
  PlanSource* source = nullptr;             ///< external plan queue (may be null)
  const std::atomic<bool>* stop = nullptr;  ///< graceful-drain flag (SIGINT)
};

struct FarmTargetStats {
  std::string target;
  bool expect_clean = true;
  std::int64_t plans = 0;
  std::int64_t clean = 0;
  std::int64_t safety_violations = 0;
  std::int64_t wait_free_violations = 0;
  std::int64_t novel = 0;       ///< findings inserted into the corpus
  std::int64_t duplicates = 0;  ///< findings already in the corpus
  std::int64_t starvation_observations = 0;
  std::int64_t coverage_sigs = 0;  ///< distinct coverage signatures seen
  std::int64_t mutated = 0;        ///< plans produced by mutate/splice
  std::int64_t external = 0;       ///< plans submitted via the PlanSource
  std::int64_t total_steps = 0;
  std::int64_t max_own_steps_to_decide = 0;  ///< worst own steps to decide, over all plans

  /// Clean targets: no violation at all. Seeded-buggy targets: caught, i.e.
  /// at least one safety violation.
  [[nodiscard]] bool verdict_ok() const {
    return expect_clean ? plans == clean : safety_violations > 0;
  }
};

/// Run totals. The per-target rows are the only place outcomes are counted;
/// plans, clean, violations, novel, duplicates, mutated, external,
/// coverage_sigs and total_steps are sums over `targets`, filled by run_farm
/// before every record it hands out.
struct FarmStats {
  std::int64_t plans = 0;
  std::int64_t clean = 0;
  std::int64_t violations = 0;
  std::int64_t novel = 0;
  std::int64_t duplicates = 0;
  std::int64_t shrunk = 0;
  std::int64_t shrink_replays_ok = 0;
  std::int64_t mutated = 0;
  std::int64_t external = 0;
  std::int64_t dropped_submissions = 0;  ///< queue lines unparsable or naming no farm target
  std::int64_t coverage_sigs = 0;
  std::int64_t total_steps = 0;
  std::int64_t batches = 0;
  std::int64_t pool_steals = 0;  ///< plan/shrink jobs run off a foreign worker's deque
  double elapsed_s = 0;
  std::size_t corpus_size = 0;
  std::size_t corpus_aliases = 0;
  int corpus_seeded = 0;     ///< entries indexed from corpus dir + seed corpora
  int quarantined = 0;       ///< malformed corpus entries moved aside at open
  bool drained = false;      ///< stopped via the stop flag (graceful drain)
  std::vector<FarmTargetStats> targets;
};

/// The strict campaign verdict (`efd_campaign run`, bench E15): every target
/// meets FarmTargetStats::verdict_ok and every shrunk tape double-replayed
/// bit-identically. (`serve` applies only the clean-target half: a drained
/// soak need not have caught every seeded bug yet.)
[[nodiscard]] bool campaign_verdict_ok(const FarmStats& stats);

/// Runs the farm until a stop condition (stop flag, duration, max_plans)
/// holds at a batch boundary — the in-flight batch always completes and its
/// findings are processed (graceful drain). Throws CorpusIoError when the
/// corpus directory cannot be created or written.
[[nodiscard]] FarmStats run_farm(const std::vector<const CampaignTarget*>& targets,
                                 const FarmOptions& opts);

/// One `efd-campaign-farm-v1` soak record (schema in EXPERIMENTS.md E18;
/// bench_diff.py --validate dispatches on it). `mode` is "soak" for the
/// streaming interval records and "final" for the end-of-run document.
[[nodiscard]] telemetry::Json farm_json(const FarmStats& stats, const FarmOptions& opts,
                                        const std::string& mode);

}  // namespace efd
