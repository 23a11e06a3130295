// efd_campaign: seeded adversarial fault campaigns over the paper algorithms.
//
//   efd_campaign list
//   efd_campaign run   [--seed N] [--plans N] [--target NAME ...]
//                      [--save-dir DIR] [--out FILE]
//                      [--no-monitors] [--no-shrink]
//   efd_campaign serve [--seed N] [--target NAME ...] [--corpus DIR]
//                      [--seed-corpus DIR ...] [--workers N] [--batch N]
//                      [--duration SECS] [--max-plans N] [--queue FIFO]
//                      [--soak-interval SECS] [--out FILE]
//                      [--no-monitors] [--no-shrink] [--no-mutate]
//
// `run` sweeps N random FaultPlans (crash storms, targeted trigger kills,
// lying/omissive/stuttering advice, starvation bursts, link faults) per
// campaign target — the paper algorithms expected to survive everything, plus
// the seeded-buggy variants the campaign must catch. It is a bounded farm
// call (run_farm with mutation off and N plans per target, so each target
// runs exactly its seeded plans 0..N-1): novel findings are stored as
// replayable `efd-tape-v1` tapes in the --save-dir corpus (default:
// tests/corpus/pending/), safety findings are ddmin-shrunk and
// double-replay-verified, and the summary is the farm's `efd-campaign-farm-v1`
// "final" record (schema in EXPERIMENTS.md E18; bench_diff.py --validate
// accepts it), written to --out or stdout.
//
// `serve` is the resident campaign farm (DESIGN.md 4g, EXPERIMENTS.md E18):
// it streams seeded + coverage-mutated plans — plus external submissions
// read line-by-line from a --queue FIFO as `<target> <plan-text>` — across
// all workers as work-stealing batches, dedups findings against the
// persistent content-hashed corpus in --corpus, shrinks + double-replay-
// verifies only novel findings, and prints one `efd-campaign-farm-v1` soak
// record per --soak-interval to stdout (the final record goes to --out when
// given). SIGINT drains gracefully: the in-flight batch completes, its
// findings are classified and persisted, and the final record is emitted.
// Restarting with the same --corpus resumes from the persisted finding set,
// so known findings are reported as duplicates, not rediscoveries.
//
// Exit codes: 0 every target met its verdict (run: clean targets clean, buggy
// targets caught, every shrunk tape replay-verified; serve: no clean target
// violated, whether it stopped on its bound or drained);
// 1 some verdict failed; 2 usage error; 6 any other error; 7 a save/corpus
// directory could not be created or written.
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/campaign.hpp"

namespace {

using namespace efd;

std::atomic<bool> g_stop{false};

void on_sigint(int) { g_stop.store(true, std::memory_order_relaxed); }

int usage() {
  std::fprintf(stderr,
               "usage: efd_campaign list\n"
               "       efd_campaign run [--seed N] [--plans N] [--target NAME ...]\n"
               "                        [--save-dir DIR] [--out FILE]\n"
               "                        [--no-monitors] [--no-shrink]\n"
               "       efd_campaign serve [--seed N] [--target NAME ...] [--corpus DIR]\n"
               "                          [--seed-corpus DIR ...] [--workers N] [--batch N]\n"
               "                          [--duration SECS] [--max-plans N] [--queue FIFO]\n"
               "                          [--soak-interval SECS] [--out FILE]\n"
               "                          [--no-monitors] [--no-shrink] [--no-mutate]\n");
  return 2;
}

int cmd_list() {
  for (const auto& t : campaign_targets()) {
    std::printf("%-8s %-26s %s%s\n", t.name.c_str(), t.scenario.c_str(), t.algorithm.c_str(),
                t.expect_clean ? "" : "  [seeded bug]");
  }
  return 0;
}

std::vector<const CampaignTarget*> pick_targets(const std::vector<std::string>& names,
                                                bool* ok) {
  *ok = true;
  std::vector<const CampaignTarget*> picked;
  if (names.empty()) {
    for (const auto& t : campaign_targets()) picked.push_back(&t);
    return picked;
  }
  for (const auto& n : names) {
    const CampaignTarget* t = find_campaign_target(n);
    if (!t) {
      std::fprintf(stderr, "efd_campaign: unknown target '%s' (try: efd_campaign list)\n",
                   n.c_str());
      *ok = false;
      return {};
    }
    picked.push_back(t);
  }
  return picked;
}

int cmd_run(int argc, char** argv) {
  FarmOptions opts;
  opts.corpus_dir = "tests/corpus/pending";
  opts.mutate = false;
  int plans = 100;
  std::vector<std::string> names;
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (!std::strcmp(argv[i], "--plans") && i + 1 < argc) {
      plans = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--target") && i + 1 < argc) {
      names.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--save-dir") && i + 1 < argc) {
      opts.corpus_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-monitors")) {
      opts.monitors = false;
    } else if (!std::strcmp(argv[i], "--no-shrink")) {
      opts.shrink = false;
    } else {
      return usage();
    }
  }
  if (plans <= 0) return usage();

  bool names_ok = false;
  const std::vector<const CampaignTarget*> picked = pick_targets(names, &names_ok);
  if (!names_ok) return 2;
  // Round-robin over the targets with mutation off: each target gets exactly
  // its seeded plan indices 0..plans-1.
  opts.max_plans = static_cast<std::int64_t>(plans) * static_cast<std::int64_t>(picked.size());

  const FarmStats stats = run_farm(picked, opts);
  for (const FarmTargetStats& t : stats.targets) {
    std::fprintf(stderr,
                 "%-8s %4" PRId64 " plans  %4" PRId64 " clean  %2" PRId64 " safety  %2" PRId64
                 " wait-free  %3" PRId64 " starvation obs  max own steps %" PRId64 "  %s\n",
                 t.target.c_str(), t.plans, t.clean, t.safety_violations, t.wait_free_violations,
                 t.starvation_observations, t.max_own_steps_to_decide,
                 t.verdict_ok() ? "OK" : (t.expect_clean ? "VIOLATIONS" : "BUG NOT CAUGHT"));
  }
  std::fprintf(stderr, "%" PRId64 " novel finding(s) in %s; %" PRId64 "/%" PRId64
               " shrunk tape(s) replay-verified\n",
               stats.novel, opts.corpus_dir.c_str(), stats.shrink_replays_ok, stats.shrunk);

  const std::string doc = farm_json(stats, opts, "final").dump(2);
  if (out_path.empty()) {
    std::printf("%s\n", doc.c_str());
  } else {
    std::ofstream out(out_path);
    out << doc << "\n";
    if (!out) {
      std::fprintf(stderr, "efd_campaign: cannot write %s\n", out_path.c_str());
      return 6;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return campaign_verdict_ok(stats) ? 0 : 1;
}

/// Non-blocking line reader over a FIFO (or any file): each poll() returns
/// one raw queue line; run_farm parses it and counts the malformed ones.
/// EOF with no writer is quiet: a FIFO opened O_RDONLY|O_NONBLOCK reads 0
/// bytes until the next writer connects.
class FifoPlanSource final : public PlanSource {
 public:
  explicit FifoPlanSource(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open queue " + path + ": " + std::strerror(errno));
    }
  }
  FifoPlanSource(const FifoPlanSource&) = delete;
  FifoPlanSource& operator=(const FifoPlanSource&) = delete;
  ~FifoPlanSource() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::optional<std::string> poll() override {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;  // drained (or EAGAIN / no writer yet)
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

int cmd_serve(int argc, char** argv) {
  FarmOptions opts;
  std::vector<std::string> names;
  std::string out_path;
  std::string queue_path;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (!std::strcmp(argv[i], "--target") && i + 1 < argc) {
      names.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--corpus") && i + 1 < argc) {
      opts.corpus_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed-corpus") && i + 1 < argc) {
      opts.seed_corpora.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      opts.workers = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      opts.batch = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--duration") && i + 1 < argc) {
      opts.duration_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--max-plans") && i + 1 < argc) {
      opts.max_plans = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--queue") && i + 1 < argc) {
      queue_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--soak-interval") && i + 1 < argc) {
      opts.soak_interval_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-monitors")) {
      opts.monitors = false;
    } else if (!std::strcmp(argv[i], "--no-shrink")) {
      opts.shrink = false;
    } else if (!std::strcmp(argv[i], "--no-mutate")) {
      opts.mutate = false;
    } else {
      return usage();
    }
  }
  if (opts.workers <= 0 || opts.batch <= 0) return usage();

  bool names_ok = false;
  const std::vector<const CampaignTarget*> picked = pick_targets(names, &names_ok);
  if (!names_ok) return 2;

  std::unique_ptr<FifoPlanSource> queue;
  if (!queue_path.empty()) {
    queue = std::make_unique<FifoPlanSource>(queue_path);
    opts.source = queue.get();
  }

  opts.stop = &g_stop;
  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);

  std::string final_doc;
  opts.on_soak = [&final_doc](const telemetry::Json& rec) {
    const std::string line = rec.dump(0);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    final_doc = line;  // the "final" record is always the last one emitted
  };

  const FarmStats stats = run_farm(picked, opts);
  std::fprintf(stderr,
               "farm: %" PRId64 " plans in %.1fs (%.0f plans/s), %" PRId64 " clean, %" PRId64
               " violations (%" PRId64 " novel, %" PRId64 " duplicate), corpus %zu entries"
               " (+%zu aliases)%s\n",
               stats.plans, stats.elapsed_s,
               stats.elapsed_s > 0 ? static_cast<double>(stats.plans) / stats.elapsed_s : 0.0,
               stats.clean, stats.violations, stats.novel, stats.duplicates, stats.corpus_size,
               stats.corpus_aliases, stats.drained ? "  [drained]" : "");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << farm_json(stats, opts, "final").dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "efd_campaign: cannot write %s\n", out_path.c_str());
      return 6;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }

  // Verdict: only the clean-target half of campaign_verdict_ok; a drain is
  // not a failure, and a soak need not have caught every seeded bug yet.
  for (const auto& t : stats.targets) {
    if (t.expect_clean && !t.verdict_ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  } catch (const efd::CorpusIoError& e) {
    std::fprintf(stderr, "efd_campaign: %s\n", e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_campaign: %s\n", e.what());
    return 6;
  }
  return usage();
}
