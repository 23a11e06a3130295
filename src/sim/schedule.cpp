#include "sim/schedule.hpp"

#include <algorithm>
#include <exception>

#include "sim/hash.hpp"

namespace efd {
namespace {

bool eligible(const World& w, Pid pid) {
  if (!w.alive(pid)) return false;
  // Terminated processes only take null steps; scheduling them is legal but
  // useless, so fair schedulers skip them.
  return !w.terminated(pid);
}

}  // namespace

std::optional<Pid> RoundRobinScheduler::next(const World& w) {
  const auto pids = w.pids();
  if (pids.empty()) return std::nullopt;
  for (std::size_t tries = 0; tries < pids.size(); ++tries) {
    const Pid cand = pids[cursor_ % pids.size()];
    ++cursor_;
    if (eligible(w, cand)) return cand;
  }
  return std::nullopt;
}

std::optional<Pid> RandomScheduler::next(const World& w) {
  std::vector<Pid> pool;
  for (const Pid pid : w.pids()) {
    if (eligible(w, pid)) pool.push_back(pid);
  }
  if (pool.empty()) return std::nullopt;
  return pool[static_cast<std::size_t>(splitmix64(state_) % pool.size())];
}

std::optional<Pid> KConcurrencyScheduler::next(const World& w) {
  // Retire finished C-processes, admit arrivals (shared AdmissionWindow
  // semantics — identical to the exhaustive explorers').
  window_.refresh(w);
  const std::vector<int>& active_ = window_.active();

  // Interleave: s_stride_ S-steps, then one C-step, round-robin on each side.
  const int ns = w.num_s();
  if (s_budget_ > 0 && ns > 0) {
    for (int tries = 0; tries < ns; ++tries) {
      const int qi = static_cast<int>(s_cursor_ % static_cast<std::size_t>(ns));
      ++s_cursor_;
      const Pid pid = spid(qi);
      if (w.exists(pid) && eligible(w, pid)) {
        --s_budget_;
        return pid;
      }
    }
    s_budget_ = 0;  // no eligible S-process; fall through to C
  }

  if (!active_.empty()) {
    const int ci = active_[c_cursor_ % active_.size()];
    ++c_cursor_;
    s_budget_ = s_stride_;
    return cpid(ci);
  }

  // No undecided C-process left; keep S-processes running if any remain
  // (callers typically stop via all_c_decided()).
  for (int tries = 0; tries < ns; ++tries) {
    const int qi = static_cast<int>(s_cursor_ % static_cast<std::size_t>(std::max(ns, 1)));
    ++s_cursor_;
    const Pid pid = spid(qi);
    if (w.exists(pid) && eligible(w, pid)) return pid;
  }
  return std::nullopt;
}

DriveResult drive(World& w, Scheduler& sched, std::int64_t max_steps, const Faults& faults) {
  DriveResult r;
  const auto by_step = [](const auto& a, const auto& b) { return a.step_index < b.step_index; };
  std::vector<CrashPoint> crashes = faults.crashes;
  std::stable_sort(crashes.begin(), crashes.end(), by_step);
  // Stable: same-step charges keep their order (sever before heal).
  std::vector<LinkFaultPoint> links = faults.links;
  std::stable_sort(links.begin(), links.end(), by_step);
  std::size_t next_crash = 0;
  std::size_t next_link = 0;

  std::vector<int> remaining;  // per trigger: matches still to see
  remaining.reserve(faults.triggers.size());
  for (const auto& t : faults.triggers) remaining.push_back(std::max(1, t.occurrence));
  std::vector<CrashPoint> armed;
  if (!remaining.empty()) w.enable_trace();
  std::size_t trace_seen = w.trace().size();

  const auto crash = [&](const CrashPoint& p) {
    if (p.s_index < 0 || p.s_index >= w.pattern().n()) {
      r.skipped.push_back(p);
      return;
    }
    if (!w.pattern().alive(p.s_index, w.now())) return;  // already down: no-op
    w.inject_crash(p.s_index);
    r.applied.push_back(CrashPoint{r.steps, p.s_index});
    r.applied_at.push_back(w.now());
  };

  for (;;) {
    for (; next_crash < crashes.size() && crashes[next_crash].step_index <= r.steps; ++next_crash) {
      crash(crashes[next_crash]);
    }
    for (; next_link < links.size() && links[next_link].step_index <= r.steps; ++next_link) {
      const LinkFaultPoint& p = links[next_link];
      try {
        w.substrate().apply_link_fault(RegAddr(p.link), p.kind, p.amount);
        r.applied_links.push_back(LinkFaultPoint{r.steps, p.link, p.kind, p.amount});
      } catch (const std::exception&) {
        // No such link in this world, or a substrate without links.
        r.skipped_links.push_back(p);
      }
    }
    for (std::size_t i = 0; i < armed.size();) {
      if (armed[i].step_index <= r.steps) {
        crash(armed[i]);
        armed.erase(armed.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if (w.num_c() > 0 && w.all_c_decided()) {
      r.all_c_decided = true;
      return r;
    }
    if (r.steps >= max_steps) {
      r.budget_exhausted = true;
      return r;
    }
    const auto pid = sched.next(w);
    if (!pid) {
      r.exhausted = true;
      return r;
    }
    w.step(*pid);
    ++r.steps;

    if (remaining.empty()) continue;
    const Trace& tr = w.trace();
    for (; trace_seen < tr.size(); ++trace_seen) {
      const StepRecord& rec = tr[trace_seen];
      if (rec.null_step || !rec.pid.is_s()) continue;
      for (std::size_t t = 0; t < remaining.size(); ++t) {
        const CrashTrigger& trig = faults.triggers[t];
        if (remaining[t] <= 0 || rec.op != trig.op) continue;
        if (rec.addr_name().rfind(trig.reg_prefix, 0) != 0) continue;
        if (--remaining[t] == 0) {
          // The match was step index r.steps - 1; the kill lands `delay`
          // steps after it (delay == 1: before the very next step executes).
          armed.push_back(CrashPoint{r.steps - 1 + std::max(1, trig.delay), rec.pid.index});
          ++r.triggers_fired;
        }
      }
    }
  }
}

}  // namespace efd
