#include "oracle.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kViolated: return "violated";
    case Verdict::kExhausted: return "exhausted";
  }
  return "?";
}

Verdict verdict_of(const efd::ExploreOutcome& o) {
  if (!o.ok) return Verdict::kViolated;
  return o.budget_exhausted ? Verdict::kExhausted : Verdict::kClean;
}

FarmAnswers farm_answers(const std::vector<const efd::CampaignTarget*>& targets) {
  FarmAnswers a;
  for (const auto* t : targets) a[t->name] = t->expect_clean;
  return a;
}

void Oracle::fail(std::int64_t ops, std::string why) {
  failed_ += ops;
  errors_.push_back(std::move(why));
}

void Oracle::check_sweep(const std::string& sweep, const SweepAnswer& want,
                         const efd::ExploreOutcome& got) {
  ++attempted_;
  const Verdict v = verdict_of(got);
  std::string why;
  if (v != want.verdict) {
    why = std::string("verdict ") + verdict_name(v) + ", expected " + verdict_name(want.verdict);
  } else if (got.states != want.states) {
    why = "states " + std::to_string(got.states) + ", expected " + std::to_string(want.states);
  } else if (got.terminal_runs != want.terminal_runs) {
    why = "terminal_runs " + std::to_string(got.terminal_runs) + ", expected " +
          std::to_string(want.terminal_runs);
  } else if (got.stats.dedup_misses != want.dedup_misses) {
    why = "dedup_misses " + std::to_string(got.stats.dedup_misses) + ", expected " +
          std::to_string(want.dedup_misses);
  } else if (v == Verdict::kViolated) {
    const auto [it, fresh] = bad_schedules_.emplace(sweep, got.bad_schedule);
    if (!fresh && it->second != got.bad_schedule) why = "bad_schedule differs between repetitions";
  }
  if (!why.empty()) fail(1, sweep + ": " + why);
}

void Oracle::check_farm(const FarmAnswers& want, std::uint64_t seed, const efd::FarmStats& st) {
  attempted_ += std::max<std::int64_t>(st.plans, 1);
  for (const auto& t : st.targets) {
    const auto it = want.find(t.target);
    if (it == want.end()) {
      fail(1, "farm: no known answer for target " + t.target);
      continue;
    }
    const std::int64_t violations = t.plans - t.clean;
    if (it->second && violations != 0) {
      fail(violations, "farm: clean target " + t.target + " violated by " +
                           std::to_string(violations) + " plan(s)");
    }
    farm_caught_[t.target] += t.safety_violations;
  }
  if (st.shrink_replays_ok != st.shrunk) {
    fail(st.shrunk - st.shrink_replays_ok, "farm: shrunk tapes failing double replay");
  }
  if (st.clean + st.violations != st.plans) fail(1, "farm: clean + violations != plans");
  if (st.novel + st.duplicates > st.violations) fail(1, "farm: novel + duplicates > violations");

  std::vector<std::int64_t> counts = {st.plans,  st.clean,     st.violations,
                                      st.novel,  st.duplicates, st.shrunk,
                                      st.mutated, st.coverage_sigs, st.total_steps,
                                      static_cast<std::int64_t>(st.corpus_size),
                                      static_cast<std::int64_t>(st.corpus_aliases)};
  const auto [it, fresh] = farm_counts_.emplace(seed, counts);
  if (!fresh && it->second != counts) {
    fail(1, "farm: counts differ from an earlier run_farm call with seed " + std::to_string(seed));
  }
}

void Oracle::finish_farm(const FarmAnswers& want) {
  for (const auto& [target, expect_clean] : want) {
    if (!expect_clean && farm_caught_[target] == 0) {
      fail(1, "farm: seeded bug in " + target + " not caught by any run_farm call");
    }
  }
}

void Oracle::check_plan(const std::string& target, bool expect_clean, bool violated,
                        bool replays_ok) {
  ++attempted_;
  if (expect_clean && violated) {
    fail(1, "plan: clean target " + target + " violated");
  } else if (!replays_ok) {
    fail(1, "plan: shrunk " + target + " finding failed replay");
  }
}

}  // namespace perfbench
