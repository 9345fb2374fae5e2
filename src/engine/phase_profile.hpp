// Wall-clock phase decomposition of a timed engine run. Split out of
// engine.hpp so topology adapters can surface the profile in their result
// structs without depending on the full engine interface.
#pragma once

#include <cstdint>

namespace ft {

/// Wall-clock decomposition of a timed run (EngineOptions::time_phases)
/// into its parallelizable and inherently serial parts. In the sharded
/// executor `up`/`down` cover the shard-parallel sweeps and `spine` the
/// serial band between them (outbox landing and spine stages); the
/// serial executor counts its whole stage sweep as `spine`; FIFO
/// rounds count pooled range processing as `up` and a single-range sweep
/// as `spine`. `coord` is everything else in the cycle loop — injection,
/// compaction, fault bookkeeping, observer callbacks — which is serial in
/// every mode.
struct EnginePhaseProfile {
  double up_seconds = 0.0;
  double spine_seconds = 0.0;
  /// Always 0: no executor runs spine stages on the pool. Kept so the
  /// ft.run_report/2 `amdahl` section and its readers keep their shape.
  double spine_parallel_seconds = 0.0;
  double down_seconds = 0.0;
  double coord_seconds = 0.0;
  std::uint64_t timed_cycles = 0;  ///< cycles covered (0 = timing was off)
  double parallel_seconds() const {
    return up_seconds + spine_parallel_seconds + down_seconds;
  }
  double serial_seconds() const { return spine_seconds + coord_seconds; }
  double total_seconds() const {
    return parallel_seconds() + serial_seconds();
  }
  /// The measured Amdahl serial fraction: serial time over total timed
  /// time (0 when nothing was timed).
  double serial_fraction() const {
    const double t = total_seconds();
    return t > 0.0 ? serial_seconds() / t : 0.0;
  }
};

}  // namespace ft
