// Known answers and the checks behind `failed` / error_rate: every sweep
// verdict and every farm verdict is compared against what the theory (and
// the exact counts pinned below) says it must be. An operation is one sweep
// or one fault plan; error_rate = failed / attempted, and it must be 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/solvability.hpp"

namespace perfbench {

enum class Verdict { kClean, kViolated, kExhausted };

[[nodiscard]] const char* verdict_name(Verdict v);
[[nodiscard]] Verdict verdict_of(const efd::ExploreOutcome& o);

/// Known answer of one sweep. Clean sweeps pin the full signature closure;
/// refuting sweeps pin the canonical sequential pass up to the violation.
/// The semantic counters are store-shape invariant, so the same answer
/// checks the in-memory (`explore`) and the tiered (`explore-spill`) store.
struct SweepAnswer {
  Verdict verdict = Verdict::kClean;
  std::int64_t states = 0;
  std::int64_t terminal_runs = 0;
  std::int64_t dedup_misses = 0;
};

/// Expected-clean flag per campaign target name (the farm's known answers).
using FarmAnswers = std::map<std::string, bool>;
[[nodiscard]] FarmAnswers farm_answers(const std::vector<const efd::CampaignTarget*>& targets);

class Oracle {
 public:
  /// One attempted operation: a sweep. Fails it when the verdict or a
  /// semantic counter differs from `want`, or when a refuting sweep's
  /// bad_schedule differs from the first one seen for `sweep`.
  void check_sweep(const std::string& sweep, const SweepAnswer& want,
                   const efd::ExploreOutcome& got);

  /// `stats.plans` attempted operations: one run_farm call with campaign
  /// seed `seed`. Failures: every violating plan of an expected-clean
  /// target, every shrunk tape that failed double replay, and one per broken
  /// invariant (clean + violations == plans, novel + duplicates <=
  /// violations, counts identical to an earlier call with the same seed).
  void check_farm(const FarmAnswers& want, std::uint64_t seed, const efd::FarmStats& stats);

  /// After the last run_farm call of a run: one failure per seeded bug that
  /// no call caught. (The rarest shows in under 1% of its plans, so it is
  /// judged over the run, not per call.)
  void finish_farm(const FarmAnswers& want);

  /// One decomposed-pass plan: a verdict from run_plan, and on a shrunk
  /// safety finding whether shrink_finding's and replay_tape's replays held.
  void check_plan(const std::string& target, bool expect_clean, bool violated,
                  bool replays_ok);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] double error_rate() const {
    return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0;
  }
  /// One line per failure, for the stderr report.
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

 private:
  void fail(std::int64_t ops, std::string why);

  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::vector<int>> bad_schedules_;  ///< first seen per sweep
  std::map<std::uint64_t, std::vector<std::int64_t>> farm_counts_;  ///< per campaign seed
  std::map<std::string, std::int64_t> farm_caught_;  ///< safety findings per target
};

}  // namespace perfbench
