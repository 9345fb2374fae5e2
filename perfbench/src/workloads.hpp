// The benchmark's workloads (perfbench/README.md explains each choice).
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace ftbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the ftd daemon binary (ftd_small only).
  std::string ftd_path;
  /// Where a traced run writes its spans (Chrome trace_event JSON).
  std::string spans_path;
};

/// contended_t2, stream1m_t4, hotspot_serial.
bool is_route_workload(const std::string& name);
/// Threads a route workload needs to run as designed (1 for serial).
unsigned route_workload_threads(const std::string& name);
Outcome run_route_workload(const RunArgs& args);

/// ftd_small.
inline constexpr const char* kFtdWorkload = "ftd_small";
/// Busy threads: the daemon's event loop and two workers plus the load's
/// one thread, which multiplexes kFtdConnections connections.
inline constexpr unsigned kFtdThreads = 4;
inline constexpr unsigned kFtdConnections = 4;
Outcome run_ftd_workload(const RunArgs& args);

}  // namespace ftbench
