// Tests for the campaign engine (core/campaign.hpp): determinism, clean
// verdicts for the paper algorithms, guaranteed catches for the seeded-buggy
// variants, tape/shrink integration, and the farm's efd-campaign-farm-v1
// record. The fixed sweep is a bounded run_farm call; per-plan checks go
// through the units it composes (run_plan + shrink_finding).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/campaign.hpp"
#include "core/repro_scenarios.hpp"
#include "sim/replay.hpp"

namespace efd {
namespace {

/// The fixed sweep: `plans` seeded plans per target (mutation off, so plan
/// indices 0..plans-1), in-memory corpus, no soak stream.
FarmOptions sweep_opts(int plans, std::size_t targets = 1) {
  FarmOptions o;
  o.seed = 42;
  o.workers = 2;
  o.batch = 8;
  o.max_plans = static_cast<std::int64_t>(plans) * static_cast<std::int64_t>(targets);
  o.mutate = false;
  o.soak_interval_s = 0;
  return o;
}

/// Seeded plan `index` of `target` under campaign seed 42.
PlanOutcome seeded_plan(const CampaignTarget& t, int index, bool monitors = true) {
  const std::uint64_t seed = campaign_plan_seed(42, t.name, index);
  return run_plan(t, FaultPlan::sample(seed, t.space), seed, monitors);
}

TEST(Campaign, TargetRegistryIsWellFormed) {
  std::set<std::string> names;
  int clean = 0;
  int buggy = 0;
  std::vector<std::string> order;
  for (const auto& t : campaign_targets()) {
    EXPECT_TRUE(names.insert(t.name).second) << "duplicate target " << t.name;
    order.push_back(t.name);
    (t.expect_clean ? clean : buggy)++;
  }
  EXPECT_GE(clean, 3);   // the paper algorithms under campaign
  EXPECT_GE(buggy, 3);   // the seeded-buggy variants the campaign must catch
  // The order fixes the farm's round-robin, the JSON row order and, with
  // mutation on, which plans share a batch.
  EXPECT_EQ(order, (std::vector<std::string>{"cons", "ksa", "ren", "p1c", "synth", "bcf", "brn",
                                             "tw", "mpfm_raw", "mpfm_rt"}));
  // Every campaign part runs in the scenario that holds it: run_plan and
  // run_farm rely on this instead of checking each target at run time.
  int parts = 0;
  for (const Scenario& sc : scenarios()) {
    if (!sc.campaign) continue;
    ++parts;
    const CampaignTarget& t = *sc.campaign;
    EXPECT_EQ(t.scenario, sc.name) << t.name;
    EXPECT_EQ(find_campaign_target(t.name)->scenario, sc.name) << t.name;
    const FailurePattern base(sc.num_s);
    EXPECT_EQ(sc.make_world(base, TrivialFd{}.history(base, 0)).num_c(), t.space.num_c) << t.name;
    // Link daemons are no kill targets: an MP part's space may have no S.
    EXPECT_TRUE(t.space.num_s == 0 || t.space.num_s == sc.num_s) << t.name;
    EXPECT_TRUE(static_cast<bool>(t.advice)) << t.name;
    EXPECT_TRUE(static_cast<bool>(t.make_sched)) << t.name;
  }
  EXPECT_EQ(parts, static_cast<int>(campaign_targets().size()));
  // The name lookups that remain reject a scenario nobody registered.
  CampaignTarget stray = *find_campaign_target("synth");
  stray.scenario = "no_such_scenario";
  EXPECT_THROW((void)run_plan(stray, FaultPlan{}, 1, false), std::invalid_argument);
  EXPECT_THROW((void)shrink_finding("no_such_scenario", ScheduleTape{}), std::invalid_argument);
  EXPECT_EQ(find_campaign_target("cons")->scenario, "cons_leader_crash_commit");
  EXPECT_EQ(find_campaign_target("no-such-target"), nullptr);
}

TEST(Campaign, CorrectAlgorithmsSurviveAllPlans) {
  for (const char* name : {"cons", "ren", "p1c"}) {
    const CampaignTarget* t = find_campaign_target(name);
    ASSERT_NE(t, nullptr);
    const FarmStats r = run_farm({t}, sweep_opts(12));
    EXPECT_TRUE(campaign_verdict_ok(r)) << name;
    EXPECT_EQ(r.clean, r.plans) << name;
    EXPECT_EQ(r.violations, 0) << name;
    EXPECT_GT(r.total_steps, 0) << name;
    std::int64_t monitored = 0;
    for (int i = 0; i < 12; ++i) monitored += seeded_plan(*t, i).monitored_steps;
    EXPECT_GT(monitored, 0) << name;
  }
}

TEST(Campaign, SeededBuggyVariantsAreCaughtAndShrunk) {
  for (const char* name : {"synth", "bcf", "brn"}) {
    const CampaignTarget* t = find_campaign_target(name);
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(campaign_verdict_ok(run_farm({t}, sweep_opts(20)))) << name;
    int safety = 0;
    for (int i = 0; i < 20; ++i) {
      const PlanOutcome out = seeded_plan(*t, i);
      if (!out.safety) continue;
      ++safety;
      EXPECT_GT(out.tape.steps.size(), 0u) << name;
      const ShrunkFinding sf = shrink_finding(t->scenario, out.tape);
      ASSERT_GT(sf.mini.steps.size(), 0u) << name;
      EXPECT_LE(sf.mini.steps.size(), out.tape.steps.size()) << name;
      EXPECT_TRUE(sf.replay_ok) << name << " seed " << out.plan_seed;
      // The plan line is valid plan-v1 provenance.
      EXPECT_NO_THROW((void)FaultPlan::parse(sf.mini.plan)) << sf.mini.plan;
    }
    EXPECT_GE(safety, 1) << name;
  }
}

/// Every stored corpus tape, by file name.
std::map<std::string, std::string> corpus_files(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".tape") continue;
    std::ifstream in(e.path());
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

TEST(Campaign, RunsAreDeterministic) {
  const CampaignTarget* t = find_campaign_target("bcf");
  ASSERT_NE(t, nullptr);
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "efd_campaign_determinism";
  std::filesystem::remove_all(root);
  FarmOptions oa = sweep_opts(12);
  oa.corpus_dir = (root / "a").string();
  FarmOptions ob = sweep_opts(12);
  ob.corpus_dir = (root / "b").string();
  ob.workers = 3;
  const FarmStats a = run_farm({t}, oa);
  const FarmStats b = run_farm({t}, ob);
  EXPECT_EQ(a.clean, b.clean);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.novel, b.novel);
  EXPECT_EQ(a.shrunk, b.shrunk);
  // Same plans, same findings, same shrunk tapes: the two corpora hold
  // byte-identical files under identical (plan-seed, content-key) names.
  const auto fa = corpus_files(oa.corpus_dir);
  EXPECT_FALSE(fa.empty());
  EXPECT_EQ(fa, corpus_files(ob.corpus_dir));
  std::filesystem::remove_all(root);
}

TEST(Campaign, MonitorsOffSkipsLivenessAccounting) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  for (int i = 0; i < 3; ++i) {
    const PlanOutcome out = seeded_plan(*t, i, /*monitors=*/false);
    EXPECT_EQ(out.monitored_steps, 0);
    EXPECT_FALSE(out.wait_free_bad);
  }
  FarmOptions o = sweep_opts(3);
  o.monitors = false;
  const FarmStats r = run_farm({t}, o);
  EXPECT_TRUE(campaign_verdict_ok(r));
  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0].wait_free_violations, 0);
}

TEST(Campaign, FarmRecordCarriesPerTargetWaitFreedomFigure) {
  const CampaignTarget* t = find_campaign_target("synth");
  ASSERT_NE(t, nullptr);
  const FarmOptions o = sweep_opts(6);
  const FarmStats r = run_farm({t}, o);
  std::int64_t worst = 0;
  for (int i = 0; i < 6; ++i) worst = std::max(worst, seeded_plan(*t, i).max_own_steps_to_decide);
  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0].max_own_steps_to_decide, worst);
  EXPECT_GT(worst, 0);
  const telemetry::Json doc = farm_json(r, o, "final");
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"efd-campaign-farm-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"targets\""), std::string::npos);
  EXPECT_NE(text.find("\"max_own_steps_to_decide\""), std::string::npos);
  // Round-trips through the telemetry parser.
  const telemetry::Json back = telemetry::Json::parse(text);
  EXPECT_EQ(back.dump(), text);
}

// Regression: plan seeds were derived from the plan INDEX alone, so every
// target swept the same plan sequence (perfectly correlated coverage) and
// two targets' tapes could collide on the same save stem. The seed mix must
// fold the target name.
TEST(Campaign, PlanSeedsDifferAcrossTargets) {
  int collisions = 0;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t a = campaign_plan_seed(42, "cons", i);
    const std::uint64_t b = campaign_plan_seed(42, "ksa", i);
    const std::uint64_t c = campaign_plan_seed(42, "synth", i);
    if (a == b || b == c || a == c) ++collisions;
    // Same target, same index: stable.
    EXPECT_EQ(a, campaign_plan_seed(42, "cons", i));
  }
  EXPECT_EQ(collisions, 0);

  // And the sampled PLANS differ too, not just the seeds.
  const CampaignTarget* cons = find_campaign_target("cons");
  const CampaignTarget* ksa = find_campaign_target("ksa");
  ASSERT_NE(cons, nullptr);
  ASSERT_NE(ksa, nullptr);
  int distinct = 0;
  for (int i = 0; i < 16; ++i) {
    const FaultPlan pa =
        FaultPlan::sample(campaign_plan_seed(42, "cons", i), cons->space);
    const FaultPlan pb =
        FaultPlan::sample(campaign_plan_seed(42, "ksa", i), ksa->space);
    if (pa.to_string() != pb.to_string()) ++distinct;
  }
  EXPECT_GT(distinct, 8);
}

// Regression: violation tapes carried no record of WHY they were kept — a
// wait-freedom-only finding saved with expect_violated=false was
// indistinguishable from a mislabeled clean run. run_plan must stamp the
// monitor verdict into the tape's finding line, and it must round-trip.
TEST(Campaign, SafetyFindingsStampFindingProvenance) {
  const CampaignTarget* t = find_campaign_target("synth");
  ASSERT_NE(t, nullptr);
  bool found = false;
  for (int i = 0; i < 40 && !found; ++i) {
    const std::uint64_t seed = campaign_plan_seed(42, t->name, i);
    const PlanOutcome out = run_plan(*t, FaultPlan::sample(seed, t->space), seed, true);
    if (!out.safety) continue;
    found = true;
    EXPECT_TRUE(out.tape.finding == "safety" || out.tape.finding == "safety+wait-free")
        << out.tape.finding;
    EXPECT_EQ(out.tape.expect_violated, std::optional<bool>(true));
    // Serialization round-trips the finding line.
    const ScheduleTape back = ScheduleTape::parse(out.tape.serialize());
    EXPECT_EQ(back.finding, out.tape.finding);
  }
  EXPECT_TRUE(found) << "synth produced no safety finding in 40 plans";
}

TEST(Campaign, WaitFreeOnlyFindingsAreStampedAndKept) {
  // A correct algorithm with an absurdly tight wait-freedom bound: the
  // monitor fires with NO safety violation, and the tape must say so.
  CampaignTarget t = *find_campaign_target("cons");
  t.bounds.own_steps_to_decide = 1;
  bool found = false;
  for (int i = 0; i < 20 && !found; ++i) {
    const std::uint64_t seed = campaign_plan_seed(7, t.name, i);
    const PlanOutcome out = run_plan(t, FaultPlan{}, seed, true);
    if (!out.wait_free_bad || out.safety) continue;
    found = true;
    EXPECT_EQ(out.tape.finding, "wait-free");
    // The safety predicate did NOT fire: replay will report "ok, as
    // expected" — the finding line is what marks it a liveness finding.
    EXPECT_EQ(out.tape.expect_violated, std::optional<bool>(false));
    EXPECT_FALSE(out.detail.empty());
  }
  EXPECT_TRUE(found) << "tight bound produced no wait-freedom finding";
}

// Regression: the save-dir was (re-)created inside the per-violation loop
// with the failure ignored — an unwritable directory silently dropped every
// tape. The corpus directory (`run --save-dir`) must be checked once, up
// front, with a typed error.
TEST(Campaign, UnwritableSaveDirFailsUpFront) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  FarmOptions o = sweep_opts(1);
  const std::string blocker =
      (std::filesystem::path(::testing::TempDir()) / "efd_campaign_blocker").string();
  std::ofstream(blocker) << "x";
  o.corpus_dir = blocker + "/pending";
  EXPECT_THROW((void)run_farm({t}, o), CorpusIoError);
}

// Satellite of the fault-campaign issue: every campaign algorithm's safety
// checker must reject a KNOWN-BAD world — the checkers themselves are under
// test, not just the algorithms. Each scenario's `violated` predicate gets a
// seeded plan/schedule reproducing its canonical violation.
TEST(Campaign, SafetyCheckersRejectKnownBadRuns) {
  for (const char* name :
       {"synth_write_race", "buggy_cons_first_writer", "buggy_ren_stale_claim"}) {
    const Scenario* sc = find_scenario(name);
    ASSERT_NE(sc, nullptr);
    // The native recordings of the buggy scenarios are violating runs.
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
      const ScheduleTape tape = sc->record(seed);
      found = tape.expect_violated.value_or(false);
    }
    EXPECT_TRUE(found) << name << ": no violating recording in 40 seeds";
  }
  // buggy_torn_commit needs its fault plan (writer killed mid-pair).
  const Scenario* tw = find_scenario("buggy_torn_commit");
  ASSERT_NE(tw, nullptr);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    found = tw->record(seed).expect_violated.value_or(false);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace efd
