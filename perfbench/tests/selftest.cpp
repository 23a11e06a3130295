// Self-tests of the benchmark's own machinery: the verdict oracle must
// notice a flipped known answer or a corrupted semantic counter, spans must
// nest, self time must subtract exactly the time children cover, and the
// timing decorators must see the calls they wrap.
//
//   ctest --test-dir .bench_build/perfbench     (after perfbench/run.py built it)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

const SweepCase& find_case(const std::string& name) {
  for (const SweepCase& c : sweep_cases()) {
    if (c.name == name) return c;
  }
  std::fprintf(stderr, "no sweep case %s\n", name.c_str());
  std::exit(2);
}

efd::ExploreOutcome run_sweep(const SweepCase& c, std::uint64_t seed, SpanRecorder* rec) {
  PreparedSweep p = prepare_sweep(c, seed, 2, efd::DedupConfig{}, rec != nullptr, rec);
  const Span sweep(rec, "core.solvability:explore_k_concurrent", 1);
  if (rec != nullptr) rec->set_ambient(sweep.id(), sweep.run());
  efd::ExploreOutcome o = efd::explore_k_concurrent(p.task, p.body, p.inputs, p.cfg);
  if (rec != nullptr) rec->set_ambient(0, 0);
  return o;
}

void test_sweep_oracle() {
  // The cheapest sweep of the real table, on the default and another seed.
  const SweepCase& c = find_case("floodmin4_consensus_level3");
  const efd::ExploreOutcome o = run_sweep(c, 42, nullptr);
  {
    Oracle ok;
    ok.check_sweep(c.name, c.answer, o);
    ok.check_sweep(c.name, c.answer, run_sweep(c, 7, nullptr));
    check(ok.failed() == 0 && ok.attempted() == 2, "known answer holds on two seeds");
  }
  {
    Oracle flipped;
    SweepAnswer want = c.answer;
    want.verdict = Verdict::kClean;
    flipped.check_sweep(c.name, want, o);
    check(flipped.error_rate() > 0, "flipped verdict raises error_rate");
  }
  {
    Oracle corrupt;
    efd::ExploreOutcome bad = o;
    bad.stats.dedup_misses += 1;
    corrupt.check_sweep(c.name, c.answer, bad);
    check(corrupt.error_rate() > 0, "corrupted dedup_misses raises error_rate");
  }
  {
    Oracle drift;
    efd::ExploreOutcome other = o;
    other.bad_schedule.push_back(0);
    drift.check_sweep(c.name, c.answer, o);
    drift.check_sweep(c.name, c.answer, other);
    check(drift.failed() == 1, "bad_schedule drift between repetitions is a failure");
  }
}

void test_farm_oracle() {
  std::vector<const efd::CampaignTarget*> targets = {efd::find_campaign_target("cons"),
                                                     efd::find_campaign_target("synth")};
  check(targets[0] != nullptr && targets[1] != nullptr, "campaign targets cons and synth exist");
  if (targets[0] == nullptr || targets[1] == nullptr) return;
  efd::FarmOptions fo;
  fo.seed = 42;
  fo.workers = 2;
  fo.max_plans = 400;
  const efd::FarmStats st = efd::run_farm(targets, fo);
  const FarmAnswers want = farm_answers(targets);

  Oracle ok;
  ok.check_farm(want, fo.seed, st);
  ok.check_farm(want, fo.seed, efd::run_farm(targets, fo));
  ok.finish_farm(want);
  check(ok.failed() == 0, "farm verdicts match, and repeat exactly for one seed");

  Oracle flipped;
  FarmAnswers wrong = want;
  wrong["synth"] = true;  // claim the seeded bug is clean
  flipped.check_farm(wrong, fo.seed, st);
  flipped.finish_farm(wrong);
  check(flipped.error_rate() > 0, "flipped farm answer raises error_rate");

  Oracle corrupt;
  efd::FarmStats bad = st;
  bad.shrink_replays_ok -= 1;
  corrupt.check_farm(want, fo.seed, bad);
  check(corrupt.error_rate() > 0, "a shrunk tape failing replay raises error_rate");

  Oracle missed;
  efd::FarmStats quiet = st;
  for (auto& t : quiet.targets) {
    if (t.target == "synth") t.safety_violations = 0;
  }
  missed.check_farm(want, fo.seed, quiet);
  missed.finish_farm(want);
  check(missed.error_rate() > 0, "a seeded bug no call catches raises error_rate");

  Oracle drift;
  efd::FarmStats other = st;
  other.novel += 1;
  other.duplicates -= 1;
  drift.check_farm(want, fo.seed, st);
  drift.check_farm(want, fo.seed + 1, other);
  check(drift.failed() == 0, "different seeds may give different counts");
  drift.check_farm(want, fo.seed, other);
  check(drift.error_rate() > 0, "counts drifting between calls with one seed raise error_rate");
}

void test_traced_sweep() {
  SpanRecorder rec;
  probe_reset();
  const SweepCase& c = find_case("floodmin4_consensus_level3");
  efd::ExploreOutcome o;
  {
    const Span root(&rec, "bench:explore_round", 1);
    o = run_sweep(c, 42, &rec);
  }
  Oracle oracle;
  oracle.check_sweep(c.name, c.answer, o);
  check(oracle.failed() == 0, "traced sweep explores exactly the known states");
  const std::vector<SpanRecord> spans = rec.spans();
  check(check_nesting(spans).empty(), "traced sweep spans nest");
  int builds = 0;
  for (const SpanRecord& s : spans) builds += s.name == "sim.world:world_factory";
  check(builds >= 1, "world builds are recorded as spans");
  const ProbeTotals p = probe_totals();
  check(p.calls_of(Probe::kRelation) > 0, "relation calls are counted");
  check(p.calls_of(Probe::kSpawn) >= c.n, "every first spawn is counted");
  check(p.calls_of(Probe::kWorldBuild) == builds, "world-build probe matches its spans");
}

void test_self_time() {
  const auto span = [](std::int64_t id, std::int64_t parent, const char* name, std::int64_t a,
                       std::int64_t b) { return SpanRecord{id, parent, 1, name, a, b}; };
  // Parent [0, 100); children overlap ([10,30) and [20,40) cover 30) plus
  // [50,60): 40 covered, so 60 self.
  const std::vector<SpanRecord> spans = {
      span(1, 0, "bench:root", 0, 100), span(2, 1, "a:x", 10, 30), span(3, 1, "a:x", 20, 40),
      span(4, 1, "b:y", 50, 60)};
  const auto by_name = summarize_spans(spans);
  check(by_name.at("bench:root").self_s * 1e9 > 59.5 && by_name.at("bench:root").self_s * 1e9 < 60.5,
        "self time subtracts the union of child intervals");
  check(summarize_layers(spans).at("a").count == 2, "layer totals fold by name prefix");
  check(check_nesting(spans).empty(), "well-formed spans nest");
  std::vector<SpanRecord> escaped = spans;
  escaped.push_back(span(5, 1, "a:late", 90, 110));
  check(!check_nesting(escaped).empty(), "a child ending after its parent is reported");
}

void test_catalog() {
  bool units = true;
  for (const bool trace : {false, true}) {
    for (const Metric& m : metric_catalog(trace)) units = units && !m.unit.empty();
  }
  check(units, "every metric has a unit");
  std::vector<std::string> e2e;
  for (const Metric& m : metric_catalog(false)) e2e.push_back(m.name);
  check(e2e == std::vector<std::string>{"setup_s", "states_per_s", "refute_s", "plans_per_s",
                                        "peak_rss_mb"},
        "end-to-end metric set");
}

}  // namespace

int main() {
  test_self_time();
  test_catalog();
  test_sweep_oracle();
  test_traced_sweep();
  test_farm_oracle();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
