// Timing decorators the traced runs put around what the benchmark hands to
// the explorer: the task, the body factory and the world factory. Each
// decorator forwards verbatim and adds one probe sample per call
// (trace.hpp), so a traced sweep explores exactly the states an untraced
// one does.
#pragma once

#include <functional>

#include "sim/world.hpp"
#include "tasks/task.hpp"
#include "trace.hpp"

namespace perfbench {

/// Task decorator: times relation() and pick_output() of the wrapped task.
class TimingTask final : public efd::Task {
 public:
  explicit TimingTask(efd::TaskPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int n_procs() const override { return inner_->n_procs(); }
  [[nodiscard]] bool input_ok(const efd::ValueVec& in) const override {
    return inner_->input_ok(in);
  }
  [[nodiscard]] bool relation(const efd::ValueVec& in, const efd::ValueVec& out) const override;
  [[nodiscard]] efd::Value pick_output(const efd::ValueVec& in, const efd::ValueVec& out,
                                       int i) const override;
  [[nodiscard]] bool colorless() const override { return inner_->colorless(); }
  [[nodiscard]] efd::ValueVec sample_input(std::uint64_t seed) const override {
    return inner_->sample_input(seed);
  }

 private:
  efd::TaskPtr inner_;
};

using BodyFactory = std::function<efd::ProcBody(int, efd::Value)>;
using WorldFactory = std::function<efd::World()>;

/// Wraps a body factory so every coroutine the returned ProcBody builds — a
/// first spawn or a respawn after a backtrack — is one Probe::kSpawn sample.
[[nodiscard]] BodyFactory timed_body(BodyFactory inner);

/// Wraps a world factory: each build is one Probe::kWorldBuild sample and,
/// with a recorder, one "sim.world:world_factory" span.
[[nodiscard]] WorldFactory timed_world(WorldFactory inner, SpanRecorder* rec);

}  // namespace perfbench
