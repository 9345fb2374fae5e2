// Microbenchmarks (google-benchmark): throughput of the inner kernels —
// LCA/path iteration, load computation, the matching+tracing even split,
// whole-schedule construction, Hopcroft–Karp concentrator routing, and
// the cutting-plane decomposition. After the registered benchmarks run,
// main() times the delivery-cycle engine (serial, and the sharded
// executor per thread count) and writes the machine-readable
// BENCH_engine.json consumed by perf tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <utility>
#include <vector>

#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "layout/balanced.hpp"
#include "layout/decomposition.hpp"
#include "nets/layouts.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "switch/concentrator.hpp"
#include "util/prng.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation counter, bench binary only: the engine promises O(1)
// amortized allocations per delivery cycle once its scratch reaches steady
// state, and the engine bench below reports the measured rate. Plain (and
// array / nothrow) operator new is replaced with a counting malloc
// passthrough; the over-aligned variants are left alone — the engine's
// scratch is std::vector of fundamental types, which never takes that
// path — so default aligned new still pairs with default aligned delete.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

// GCC's -Wmismatched-new-delete pairs new-expressions with the free()
// inside these deletes without seeing that the replaced operator new is a
// malloc passthrough, so the pairing is in fact correct.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace {

void BM_LcaAndPath(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ft::FatTreeTopology topo(n);
  ft::Rng rng(1);
  const auto m = ft::random_permutation_traffic(n, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& msg = m[i++ % m.size()];
    std::uint32_t sum = 0;
    topo.for_each_channel_on_path(msg.src, msg.dst,
                                  [&](ft::ChannelId c) { sum += c.node; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LcaAndPath)->Arg(256)->Arg(4096)->Arg(65536);

void BM_ComputeLoads(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ft::FatTreeTopology topo(n);
  ft::Rng rng(2);
  const auto m = ft::stacked_permutations(n, 4, rng);
  for (auto _ : state) {
    auto loads = ft::compute_loads(topo, m);
    benchmark::DoNotOptimize(loads.up.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK(BM_ComputeLoads)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EvenSplit(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ft::FatTreeTopology topo(n);
  ft::Rng rng(3);
  ft::MessageSet crossing;
  for (std::uint32_t i = 0; i < n; ++i) {
    crossing.push_back(
        {static_cast<ft::Leaf>(rng.below(n / 2)),
         static_cast<ft::Leaf>(n / 2 + rng.below(n / 2))});
  }
  for (auto _ : state) {
    auto split = ft::split_crossing_messages(topo, 1, crossing);
    benchmark::DoNotOptimize(split.first.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(crossing.size()));
}
BENCHMARK(BM_EvenSplit)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ScheduleOffline(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, n / 4);
  ft::Rng rng(4);
  const auto m = ft::stacked_permutations(n, 4, rng);
  for (auto _ : state) {
    auto s = ft::schedule_offline(topo, caps, m);
    benchmark::DoNotOptimize(s.cycles.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK(BM_ScheduleOffline)->Arg(256)->Arg(1024);

void BM_ConcentratorRoute(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ft::Rng rng(5);
  ft::PartialConcentrator conc(96, 64, rng);
  std::vector<std::uint32_t> active;
  ft::Rng pick(6);
  std::vector<std::uint32_t> pool(96);
  for (std::uint32_t i = 0; i < 96; ++i) pool[i] = i;
  pick.shuffle(pool);
  active.assign(pool.begin(), pool.begin() + static_cast<long>(k));
  for (auto _ : state) {
    auto out = conc.route(active);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_ConcentratorRoute)->Arg(8)->Arg(32)->Arg(48);

void BM_Decomposition(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto layout = ft::layout_hypercube(n);
  for (auto _ : state) {
    auto tree = ft::cut_plane_decomposition(layout);
    benchmark::DoNotOptimize(tree.depth());
  }
}
BENCHMARK(BM_Decomposition)->Arg(64)->Arg(256);

void BM_BalancedDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto layout = ft::layout_hypercube(n);
  const auto tree = ft::cut_plane_decomposition(layout);
  for (auto _ : state) {
    ft::BalancedDecomposition balanced(tree);
    benchmark::DoNotOptimize(balanced.processor_order().data());
  }
}
BENCHMARK(BM_BalancedDecomposition)->Arg(64)->Arg(256);

/// One all-at-once engine run of `sets` (a one-set vector) as leaf pairs,
/// the input route_online hands the engine.
ft::EngineResult run_pairs(ft::CycleEngine& engine,
                           const std::vector<ft::MessageSet>& sets,
                           ft::EngineObserver* observer = nullptr) {
  ft::MessageSetPairs pairs(sets);
  return engine.run_stream(pairs, observer);
}

void BM_EngineDeliveryCycles(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, n / 4);
  ft::Rng gen(9000);
  const std::vector<ft::MessageSet> sets{ft::stacked_permutations(n, 4, gen)};
  ft::EngineOptions opts;
  opts.seed = 42;
  ft::CycleEngine engine(ft::fat_tree_channel_graph(topo, caps), opts);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cycles += run_pairs(engine, sets).cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_EngineDeliveryCycles)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// BENCH_engine.json: delivery-cycle throughput of the unified engine
// across tree sizes. Hand-rolled timing (warmup + min-of-N repetitions)
// so the output is a small stable JSON file rather than benchmark's full
// reporter format.

struct EngineBenchRow {
  std::uint32_t n = 0;
  const char* mode = "";
  std::uint64_t cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  double allocs_per_cycle = 0.0;
};

/// Warmup runs before timing starts: they grow the engine's member
/// scratch to steady state, so the measured repetitions see both the
/// warmed caches and the amortized allocation behavior.
constexpr int kEngineWarmupReps = 3;
/// Timed repetitions per row; the row keeps the fastest (min-of-N).
constexpr int kEngineMeasuredReps = 15;

/// Pre-rewrite engine throughput on this host (commit daff695, the
/// staged per-stage scan loop), written into the report's "baseline"
/// section so the speedup survives regeneration of the file.
constexpr struct {
  const char* name;
  double cycles_per_sec;
} kEngineBaseline[] = {
    {"engine_cycles/n=256/serial", 15447.733238243953},
    {"engine_cycles/n=1024/serial", 3297.476238513051},
    {"engine_cycles/n=4096/serial", 571.4370069272451},
    {"engine_cycles/n=16384/serial", 90.02836909660995},
};

/// Times the serial engine on one workload (min of kEngineMeasuredReps).
/// The engine takes the messages as leaf pairs, as route_online hands
/// them; each run copies the set into one pair chunk inside the timed
/// region.
EngineBenchRow time_engine(std::uint32_t n) {
  ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, n / 4);
  ft::Rng gen(9000 + n);
  const std::vector<ft::MessageSet> sets{ft::stacked_permutations(n, 4, gen)};

  ft::EngineOptions opts;
  opts.seed = 42;
  ft::CycleEngine engine(ft::fat_tree_channel_graph(topo, caps), opts);

  EngineBenchRow row{n, "serial", 0, 1e300, 0.0, 0.0};
  std::uint64_t total_cycles = 0;
  std::uint64_t total_allocs = 0;
  for (int rep = 0; rep < kEngineWarmupReps; ++rep) {
    (void)run_pairs(engine, sets);
  }
  for (int rep = 0; rep < kEngineMeasuredReps; ++rep) {
    const std::uint64_t a0 = heap_alloc_count();
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_pairs(engine, sets);
    const auto t1 = std::chrono::steady_clock::now();
    row.cycles = r.cycles;
    row.seconds =
        std::min(row.seconds, std::chrono::duration<double>(t1 - t0).count());
    total_cycles += r.cycles;
    total_allocs += heap_alloc_count() - a0;
  }
  row.cycles_per_sec = static_cast<double>(row.cycles) / row.seconds;
  row.allocs_per_cycle = static_cast<double>(total_allocs) /
                         static_cast<double>(total_cycles);
  return row;
}

/// Telemetry-overhead measurement at n = 2^16: serial engine throughput
/// bare vs with a default-sampling TelemetryProbe attached (every_k = 1,
/// latency digests on). Interleaved min-of-N, so both rows sample the
/// same machine noise; fewer repetitions than time_engine because one
/// n = 65536 run is ~0.5 s. The acceptance target
/// is <= 5% cycles/s regression with telemetry on; the ratio is recorded
/// here (and compared by scripts/bench_compare.py run to run) rather than
/// gated, since shared runners are too noisy for a hard in-binary gate.
std::pair<EngineBenchRow, EngineBenchRow> time_engine_telemetry(
    std::uint32_t n, int reps) {
  ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, n / 4);
  ft::Rng gen(9000 + n);
  const std::vector<ft::MessageSet> sets{ft::stacked_permutations(n, 4, gen)};
  const auto graph = ft::fat_tree_channel_graph(topo, caps);

  ft::EngineOptions opts;
  opts.seed = 42;
  ft::CycleEngine engine(graph, opts);
  ft::TelemetryProbe probe;

  EngineBenchRow bare{n, "serial", 0, 1e300, 0.0, 0.0};
  EngineBenchRow telem{n, "serial+telemetry", 0, 1e300, 0.0, 0.0};
  const auto measure = [&](EngineBenchRow& row, ft::EngineObserver* obs) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_pairs(engine, sets, obs);
    const auto t1 = std::chrono::steady_clock::now();
    row.cycles = r.cycles;
    row.seconds =
        std::min(row.seconds, std::chrono::duration<double>(t1 - t0).count());
  };
  (void)run_pairs(engine, sets);
  (void)run_pairs(engine, sets, &probe);
  probe.reset();
  for (int rep = 0; rep < reps; ++rep) {
    measure(bare, nullptr);
    probe.reset();  // fresh rings per rep; reset cost is outside the timer
    measure(telem, &probe);
  }
  bare.cycles_per_sec = static_cast<double>(bare.cycles) / bare.seconds;
  telem.cycles_per_sec = static_cast<double>(telem.cycles) / telem.seconds;
  return {bare, telem};
}

/// Parallel thread-scaling rows: the sharded parallel engine at a fixed
/// thread count, with phase timing on, so BENCH_engine.json tracks the
/// measured Amdahl serial fraction (spine + coordination over total)
/// across PRs at every thread count — not just end-to-end cycles/s at
/// hardware concurrency. The graph is sharded the way route_online would
/// shard it for `threads` workers (~2 shards per worker), so the row
/// measures the production executor: pooled up/down bands, serial spine.
struct ThreadBenchRow {
  std::uint32_t n = 0;
  std::size_t threads = 0;
  std::uint64_t cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  double spine_serial_fraction = 0.0;
};

ThreadBenchRow time_engine_threads(std::uint32_t n, std::size_t threads,
                                   int reps) {
  ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, n / 4);
  ft::Rng gen(9000 + n);
  const std::vector<ft::MessageSet> sets{ft::stacked_permutations(n, 4, gen)};
  std::uint32_t lvl = 1;
  while ((std::size_t{1} << lvl) < threads * 2 && lvl < 6) ++lvl;
  lvl = std::min(lvl, topo.height() - 1);
  const auto graph = ft::fat_tree_channel_graph(topo, caps, lvl);

  ft::EngineOptions opts;
  opts.seed = 42;
  opts.parallel = true;
  opts.threads = threads;
  opts.time_phases = true;
  ft::CycleEngine engine(graph, opts);

  ThreadBenchRow row;
  row.n = n;
  row.threads = threads;
  row.seconds = 1e300;
  (void)run_pairs(engine, sets);  // warmup: scratch to steady state
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_pairs(engine, sets);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    row.cycles = r.cycles;
    if (secs < row.seconds) {
      row.seconds = secs;
      row.spine_serial_fraction = r.phases.serial_fraction();
    }
  }
  row.cycles_per_sec = static_cast<double>(row.cycles) / row.seconds;
  return row;
}

void write_engine_bench(const char* path) {
  ft::JsonValue doc = ft::JsonValue::object();
  doc["schema"] = "ft.bench_engine/2";
  doc["git_sha"] = ft::build_git_sha();
  doc["timestamp"] = ft::timestamp_utc_iso8601();
  ft::JsonValue& host = doc["host"];
  host = ft::JsonValue::object();
  host["hardware_threads"] = ft::host_hardware_threads();
  ft::JsonValue& benchmarks = doc["benchmarks"];
  benchmarks = ft::JsonValue::array();
  for (const std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    const EngineBenchRow row = time_engine(n);
    ft::JsonValue entry = ft::JsonValue::object();
    entry["name"] = "engine_cycles/n=" + std::to_string(row.n) + "/" +
                    row.mode;
    entry["n"] = row.n;
    entry["mode"] = row.mode;
    entry["cycles"] = row.cycles;
    entry["seconds"] = row.seconds;
    entry["cycles_per_sec"] = row.cycles_per_sec;
    entry["reps"] = kEngineMeasuredReps;
    entry["warmup_reps"] = kEngineWarmupReps;
    entry["allocs_per_cycle"] = row.allocs_per_cycle;
    benchmarks.push_back(std::move(entry));
    std::cout << "engine n=" << row.n << " " << row.mode << ": "
              << row.cycles_per_sec << " cycles/sec, "
              << row.allocs_per_cycle << " allocs/cycle\n";
  }
  // Thread-scaling rows at {2, 4, hw} threads (deduplicated): the
  // sharded executor, phase-timed, so the spine_serial_fraction
  // trajectory is tracked per thread count.
  {
    std::vector<std::size_t> sweep{2, 4};
    const std::size_t hw =
        std::max<std::size_t>(1, ft::host_hardware_threads());
    if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) {
      sweep.push_back(hw);
    }
    std::sort(sweep.begin(), sweep.end());
    for (const std::uint32_t n : {4096u, 16384u}) {
      for (const std::size_t t : sweep) {
        const ThreadBenchRow row = time_engine_threads(n, t, /*reps=*/7);
        ft::JsonValue entry = ft::JsonValue::object();
        entry["name"] = "engine_cycles/n=" + std::to_string(row.n) +
                        "/parallel/t=" + std::to_string(row.threads);
        entry["n"] = row.n;
        entry["mode"] = "parallel/t=" + std::to_string(row.threads);
        entry["threads"] = static_cast<std::uint64_t>(row.threads);
        entry["cycles"] = row.cycles;
        entry["seconds"] = row.seconds;
        entry["cycles_per_sec"] = row.cycles_per_sec;
        entry["spine_serial_fraction"] = row.spine_serial_fraction;
        entry["reps"] = 7;
        entry["warmup_reps"] = 1;
        benchmarks.push_back(std::move(entry));
        std::cout << "engine n=" << row.n << " parallel/t=" << row.threads
                  << ": " << row.cycles_per_sec
                  << " cycles/sec, spine serial fraction "
                  << row.spine_serial_fraction << "\n";
      }
    }
  }

  // Telemetry overhead at n = 2^16 (default sampling): the two rows plus
  // the ratio land in the report so the <= 5% regression target is
  // tracked release to release.
  {
    const auto [bare, telem] = time_engine_telemetry(65536, /*reps=*/7);
    for (const EngineBenchRow& row : {bare, telem}) {
      ft::JsonValue entry = ft::JsonValue::object();
      entry["name"] = "engine_cycles/n=" + std::to_string(row.n) + "/" +
                      row.mode;
      entry["n"] = row.n;
      entry["mode"] = row.mode;
      entry["cycles"] = row.cycles;
      entry["seconds"] = row.seconds;
      entry["cycles_per_sec"] = row.cycles_per_sec;
      entry["reps"] = 7;
      entry["warmup_reps"] = 1;
      benchmarks.push_back(std::move(entry));
      std::cout << "engine n=" << row.n << " " << row.mode << ": "
                << row.cycles_per_sec << " cycles/sec\n";
    }
    const double overhead =
        bare.cycles_per_sec > 0.0
            ? 1.0 - telem.cycles_per_sec / bare.cycles_per_sec
            : 0.0;
    doc["telemetry_overhead"] = ft::JsonValue::object();
    doc["telemetry_overhead"]["n"] = 65536;
    doc["telemetry_overhead"]["relative_slowdown"] = overhead;
    doc["telemetry_overhead"]["target"] = 0.05;
    std::cout << "telemetry overhead at n=65536: "
              << overhead * 100.0 << "% (target <= 5%)\n";
  }

  // Sampled after the benchmark loop so it covers the largest workload;
  // comparisons across hosts should also check host.hardware_threads
  // (scripts/bench_compare.py warns on a mismatch). Re-indexed through
  // doc: the earlier `host` reference is invalidated by key insertions.
  doc["host"]["peak_rss_bytes"] = ft::host_peak_rss_bytes();
  ft::JsonValue& baseline = doc["baseline"];
  baseline = ft::JsonValue::object();
  baseline["git_sha"] = "daff69516052";
  baseline["note"] =
      "pre-rewrite engine (per-stage scan loop) on the same host";
  ft::JsonValue& baseline_rows = baseline["benchmarks"];
  baseline_rows = ft::JsonValue::array();
  for (const auto& b : kEngineBaseline) {
    ft::JsonValue entry = ft::JsonValue::object();
    entry["name"] = b.name;
    entry["cycles_per_sec"] = b.cycles_per_sec;
    baseline_rows.push_back(std::move(entry));
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  doc.write(out, 2);
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_engine_bench("BENCH_engine.json");
  std::cout << "wrote BENCH_engine.json\n";
  return 0;
}
