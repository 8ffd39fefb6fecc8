// The accounting of one AI Core: the pipe timeline, the occupancy
// profile, the byte and Cube-MAC counts, the optional instruction trace
// and the fault stream, in one place. AiCore owns one Ledger; the Vector,
// MTE, SCU and Cube units each hold one pointer to it, and each of their
// charge sites books an issue with one call (book). The timeline is the
// only cycle count (see sim/pipe_schedule.h).
#pragma once

#include <cstdint>
#include <string>

#include "sim/fault.h"
#include "sim/pipe_schedule.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace davinci {

struct Ledger {
  PipeScheduler sched;
  Profile profile;
  CoreCounts counts;
  Trace trace;  // recorded only when enabled; outlives reset()
  // The core's fault stream, attached only for a run under a resilience
  // policy; null otherwise.
  CoreFaultState* fault = nullptr;

  // Books one issue of `unit`: places its cycles on the timeline (on the
  // open stage's pipe, else on `pipe` at the serial frontier), adds its
  // occupancy (in the unit's slot currency, see Profile) to the unit's,
  // and, when tracing, records an event at the interval's start with the
  // text detail() returns.
  //
  // With `issues` > 1 or `then` > 0 it books an instruction run
  // (sim/vector_unit.h) in one step: `issues` back-to-back issues, each
  // followed by `then` cycles of scalar-loop work on the same pipe, with
  // exactly the intervals, counts and trace events (one per issue, at its
  // start) that booking the issues and their scalar iterations one at a
  // time appends.
  template <class Detail>
  void book(TraceKind unit, Pipe pipe, std::int64_t cycles,
            const UnitOccupancy& occ, Detail&& detail,
            std::int64_t issues = 1, std::int64_t then = 0) {
    const PipeScheduler::Interval iv = sched.issue(pipe, cycles, issues, then);
    profile.count(unit, occ, issues);
    if (trace.enabled()) {
      const std::string text = detail();
      for (std::int64_t i = 0; i < issues; ++i) {
        trace.record(unit, text, cycles, occ.slots_used, occ.slots_capacity,
                     iv.start + i * (cycles + then));
      }
    }
  }

  // Zeroes the timeline and every count for a new launch; the trace and
  // the fault stream stay.
  void reset() {
    sched.reset();
    profile = Profile{};
    counts = CoreCounts{};
  }
};

}  // namespace davinci
