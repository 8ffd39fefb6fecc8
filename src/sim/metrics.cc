#include "sim/metrics.h"

#include "common/check.h"

namespace davinci {

DeviceAttribution attribute_cores(
    const std::vector<const PipeScheduler*>& scheds) {
  DeviceAttribution out;
  for (const PipeScheduler* s : scheds) {
    DV_CHECK(s != nullptr) << "attribute_cores: null scheduler";
    if (s->makespan() > out.horizon) out.horizon = s->makespan();
  }
  out.cores.reserve(scheds.size());
  for (std::size_t c = 0; c < scheds.size(); ++c) {
    CoreAttribution ca;
    ca.core = static_cast<int>(c);
    ca.makespan = scheds[c]->makespan();
    for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
      ca.pipes[p] =
          scheds[c]->attribution(static_cast<Pipe>(p), out.horizon);
    }
    if (out.critical_core < 0 && ca.makespan == out.horizon) {
      out.critical_core = ca.core;
    }
    out.cores.push_back(ca);
  }
  if (out.critical_core >= 0) {
    const PipeScheduler* crit =
        scheds[static_cast<std::size_t>(out.critical_core)];
    out.critical_runs = crit->runs();
    out.path_truncated = crit->interval_log_truncated();
  }
  return out;
}

Roofline compute_roofline(const MemTraffic& traffic, const Profile& profile,
                          const ArchConfig& arch, std::int64_t device_cycles,
                          int cores_used) {
  Roofline r;
  r.gm_bytes = traffic.gm_total();
  r.mte_bytes = traffic.mte_total();
  r.vector_slots = profile.vec.slots_used;
  r.peak_gm_bytes_per_cycle =
      static_cast<double>(arch.peak_mte_bytes_per_cycle);
  if (device_cycles > 0 && cores_used > 0) {
    r.achieved_gm_bytes_per_cycle =
        static_cast<double>(r.gm_bytes) /
        (static_cast<double>(device_cycles) *
         static_cast<double>(cores_used));
  }
  if (arch.peak_mte_bytes_per_cycle > 0) {
    r.machine_balance = static_cast<double>(arch.vector_lanes) /
                        static_cast<double>(arch.peak_mte_bytes_per_cycle);
  }
  if (r.gm_bytes > 0) {
    r.arithmetic_intensity = static_cast<double>(r.vector_slots) /
                             static_cast<double>(r.gm_bytes);
    // Below the machine balance the GM pipe saturates before the vector
    // lanes can: the kernel is transfer-bound. A run that moved bytes but
    // issued no vector work is transfer-bound by definition.
    r.transfer_bound = r.arithmetic_intensity < r.machine_balance;
  }
  return r;
}

}  // namespace davinci
