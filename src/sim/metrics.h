// Cycle attribution over a finished run: *where did the makespan go?*
// (the pipe-level characterization of Zhou et al., see
// docs/OBSERVABILITY.md). attribute_cores() decomposes every pipe of
// every core's timeline into busy / wait / flag / idle buckets that sum
// exactly to the device horizon (PipeScheduler::attribution()), and
// keeps the critical core's run log, from which
// DeviceAttribution::critical_path() computes the bounding interval chain
// when a reader asks for it. The run's one bottleneck verdict,
// DeviceAttribution::bottleneck(), is read from the same buckets.
//
// This header depends only on pipe_schedule so units and tests can use
// it without pulling in Device; Device::RunResult carries a
// DeviceAttribution, and sim/metrics_registry.h serializes it to the
// versioned metrics JSON.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/pipe_schedule.h"

namespace davinci {

// One core's per-pipe bucket decomposition. Each pipe's buckets sum
// exactly to the horizon the attribution was taken at.
struct CoreAttribution {
  int core = 0;
  std::int64_t makespan = 0;
  PipeBuckets pipes[PipeScheduler::kNumPipes];
};

struct DeviceAttribution {
  std::int64_t horizon = 0;  // device_cycles: max makespan over used cores
  std::vector<CoreAttribution> cores;
  // The core whose makespan equals the horizon (lowest id on ties) and a
  // copy of its scheduler's run log (PipeScheduler::runs()), so the
  // attribution answers for its own launch after the device runs others.
  // `path_truncated` marks a log that hit its cap.
  int critical_core = -1;
  std::vector<PipeScheduler::LoggedRun> critical_runs;
  bool path_truncated = false;

  // The critical core's bounding chain, computed from critical_runs on
  // each call: segment lengths sum exactly to `horizon`. Empty when
  // `path_truncated` (buckets still exact) or no core ran.
  std::vector<CritSegment> critical_path() const {
    if (path_truncated) return {};
    return PipeScheduler::critical_path(critical_runs, horizon);
  }

  // The execution unit (Sync excluded) with the most busy cycles on the
  // critical core, ties to the lower pipe; "none" when no core ran.
  const char* bottleneck() const;
};

// Decomposes the timelines of the used cores (scheds[i] is core i's
// scheduler). The horizon is the max makespan, so cores that finished
// early show the shared wait as idle tail.
DeviceAttribution attribute_cores(
    const std::vector<const PipeScheduler*>& scheds);

}  // namespace davinci
