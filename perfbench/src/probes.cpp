#include "probes.hpp"

#include <memory>
#include <utility>

namespace perfbench {

bool TimingTask::relation(const efd::ValueVec& in, const efd::ValueVec& out) const {
  const std::int64_t t0 = now_ns();
  const bool ok = inner_->relation(in, out);
  probe_add(Probe::kRelation, now_ns() - t0);
  return ok;
}

efd::Value TimingTask::pick_output(const efd::ValueVec& in, const efd::ValueVec& out,
                                   int i) const {
  const std::int64_t t0 = now_ns();
  efd::Value v = inner_->pick_output(in, out, i);
  probe_add(Probe::kPickOutput, now_ns() - t0);
  return v;
}

BodyFactory timed_body(BodyFactory inner) {
  return [inner = std::move(inner)](int i, efd::Value input) -> efd::ProcBody {
    return [body = inner(i, std::move(input))](efd::Context& ctx) {
      const std::int64_t t0 = now_ns();
      efd::Proc p = body(ctx);
      probe_add(Probe::kSpawn, now_ns() - t0);
      return p;
    };
  };
}

WorldFactory timed_world(WorldFactory inner, SpanRecorder* rec) {
  return [inner = std::move(inner), rec] {
    const Span span(rec, "sim.world:world_factory");
    const std::int64_t t0 = now_ns();
    efd::World w = inner();
    probe_add(Probe::kWorldBuild, now_ns() - t0);
    return w;
  };
}

}  // namespace perfbench
