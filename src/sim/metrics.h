// Cycle attribution and roofline analysis over a finished run.
//
// Two questions the raw counters cannot answer (the pipe-level
// characterization of Zhou et al. and the co-design roofline of Gupta et
// al., see docs/OBSERVABILITY.md):
//
//  1. *Where did the makespan go?* attribute_cores() decomposes every
//     pipe of every core's timeline into busy / wait / flag / idle
//     buckets that sum exactly to the device horizon
//     (PipeScheduler::attribution()), and keeps the critical core's run
//     log, from which DeviceAttribution::critical_path() computes the
//     bounding interval chain when a reader asks for it.
//  2. *Is the kernel compute- or transfer-bound?* compute_roofline()
//     compares achieved global-memory bytes/cycle against the
//     arch_config.h peak and classifies by arithmetic intensity
//     (vector lane-operations per GM byte) vs the machine balance.
//
// This header depends only on pipe_schedule/stats/arch so units and tests
// can use it without pulling in Device; Device::RunResult carries a
// DeviceAttribution, and sim/metrics_registry.h serializes both analyses
// to the versioned metrics JSON.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "sim/pipe_schedule.h"
#include "sim/stats.h"

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
};

// Decomposes the timelines of the used cores (scheds[i] is core i's
// scheduler). The horizon is the max makespan, so cores that finished
// early show the shared wait as idle tail.
DeviceAttribution attribute_cores(
    const std::vector<const PipeScheduler*>& scheds);

// Roofline classification of one run from its aggregate counters.
struct Roofline {
  std::int64_t gm_bytes = 0;      // bytes crossing the GM boundary
  std::int64_t mte_bytes = 0;     // bytes on all MTE routes
  std::int64_t vector_slots = 0;  // active lane-operations issued
  double achieved_gm_bytes_per_cycle = 0.0;  // per core, vs the peak
  double peak_gm_bytes_per_cycle = 0.0;      // arch peak, per core
  double arithmetic_intensity = 0.0;  // lane-ops per GM byte
  double machine_balance = 0.0;       // lane-ops/cycle over peak bytes/cycle
  bool transfer_bound = false;

  const char* klass() const {
    return transfer_bound ? "transfer-bound" : "vector-bound";
  }
};

// `traffic` and `profile` are sums over used cores, `device_cycles` the
// overlapped makespan; achieved bandwidth is normalized per core so it
// compares directly against the per-core arch peak.
Roofline compute_roofline(const MemTraffic& traffic, const Profile& profile,
                          const ArchConfig& arch, std::int64_t device_cycles,
                          int cores_used);

}  // namespace davinci
