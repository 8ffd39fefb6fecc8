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

const char* DeviceAttribution::bottleneck() const {
  if (critical_core < 0) return "none";
  const CoreAttribution& crit =
      cores[static_cast<std::size_t>(critical_core)];
  int best = 0;
  for (int p = 1; p < PipeScheduler::kNumPipes; ++p) {
    if (static_cast<Pipe>(p) != Pipe::kSync &&
        crit.pipes[p].busy > crit.pipes[best].busy) {
      best = p;
    }
  }
  return to_string(static_cast<Pipe>(best));
}

}  // namespace davinci
