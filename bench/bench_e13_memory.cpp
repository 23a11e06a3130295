// E13 (memory addressing): the interned RegId store on the simulator's four
// hot register operations — write, read, a collect-style sweep, and the
// exploration-dedup content hash — over a 256-register footprint. Every row
// also reports allocs_per_step (per operation here): register access
// builds no string and hashes no name, so every operation must allocate
// nothing. (The string-keyed store these rows were first measured against
// is gone from the library; EXPERIMENTS.md E13 keeps that comparison.)
#include "bench_common.hpp"

EFD_BENCH_JSON("E13")
EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

constexpr int kRegs = 256;  // footprint per store, matching mid-size runs

/// Counter + JSON epilogue shared by every E13 variant: `ops` mirrors
/// items-processed as an explicit counter so the emitted JSON is
/// self-contained (SetItemsProcessed only feeds the stdout report).
void e13_finish(benchmark::State& state, const char* name, std::int64_t items_per_iter,
                std::uint64_t allocs_delta) {
  const auto ops = static_cast<double>(state.iterations() * items_per_iter);
  state.SetItemsProcessed(state.iterations() * items_per_iter);
  state.counters["ops"] = ops;
  state.counters["ops_per_s"] = benchmark::Counter(ops, benchmark::Counter::kIsRate);
  bench::alloc_counter(state, allocs_delta, ops);
  bench::json_run(state, name);
}

void E13_WriteInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/W");
  int i = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(reg(base, i), Value(i));
    i = (i + 1) % kRegs;
  }
  e13_finish(state, "E13_WriteInterned", 1, bench::alloc_count() - a0);
}

void E13_ReadInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/R");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  int i = 0;
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    sink += m.read(reg(base, i)).int_or(0);
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ReadInterned", 1, bench::alloc_count() - a0);
}

// A collect()-style sweep: read base[0..n-1] in one pass, as every snapshot
// and double-collect in the algorithm layer does.
void E13_SnapshotInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/S");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    for (int i = 0; i < kRegs; ++i) sink += m.read(reg(base, i)).int_or(0);
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_SnapshotInterned", kRegs, bench::alloc_count() - a0);
}

// Exploration dedup pattern (corridor DFS): one write, then a signature of
// the whole store. The incremental hash is O(1) in the footprint.
void E13_ContentHashInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/H");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  int i = 0;
  std::uint64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(reg(base, i), Value(i + 1));
    sink ^= m.content_hash();
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ContentHashInterned", 1, bench::alloc_count() - a0);
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E13_WriteInterned);
BENCHMARK(efd::E13_ReadInterned);
BENCHMARK(efd::E13_SnapshotInterned);
BENCHMARK(efd::E13_ContentHashInterned);
