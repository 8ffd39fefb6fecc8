// Instruction descriptors of the async instruction-stream VM.
//
// The serving worker used to run each coalesced batch to completion
// before launching the next, so the modeled device drained between
// batches: MTE-in sat idle exactly when it could have been prefetching
// batch k+1's tiles under batch k's vector/store tail. The VM closes
// that gap (docs/ASYNC_VM.md). Device::run still executes each launch
// functionally exactly as before -- outputs are bit-identical by
// construction -- but when a VmStream is attached the launch's captured
// per-core pipe timeline is decomposed into per-(core, pipe) VmOps and
// handed to the stream scheduler, which places them on persistent
// cross-launch resource tracks. `device_cycles` for a request trace then
// becomes the cross-batch overlapped makespan instead of a sum of
// per-batch makespans.
//
// Resources the dependency tracker covers:
//  * every (core, pipe) execution track -- an op cannot start before the
//    track's previous occupant ends (ports are exclusive);
//  * UB slots, via the bounded in-flight window -- launch k may not
//    start before launch k-W completed (W = in_flight), so at most W
//    launches hold UB tile slots at once;
//  * the buffers a launch names, via read/write BufferIds -- RAW, WAR
//    and WAW hazards each floor the dependent launch's start at the
//    conflicting launch's completion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/pipe_schedule.h"

namespace davinci::vm {

// Opaque buffer identity for dependency tracking. A served launch names
// no buffers: it reads only its requests' inputs and writes only fresh
// outputs that no later launch reads, so it can never hazard.
using BufferId = std::uint64_t;

// One pipe's share of a captured launch on one core, in launch-local
// cycles (the launch's own schedule started at 0).
struct PipeWork {
  std::int64_t busy = 0;        // charged interval cycles
  std::int64_t flag = 0;        // flag-wait / barrier stall cycles
  std::int64_t first_busy = -1;  // start of the first interval (-1: none)
  std::int64_t last_busy = 0;    // end of the last interval
};

// One core's captured timeline: the per-pipe totals and contact points,
// plus (only when the stream captures for trace export) the scheduler's
// run log, which PipeScheduler::expand turns into intervals, and the UB
// tile marks.
struct CoreWork {
  int core = 0;
  std::int64_t makespan = 0;  // the core's launch-local makespan
  PipeWork pipes[PipeScheduler::kNumPipes];
  std::vector<PipeScheduler::LoggedRun> runs;
  std::vector<std::pair<std::int64_t, int>> tile_marks;
};

// One device launch, captured after functional execution, before stream
// placement. The VM decomposes it into per-(core, pipe) ops; the rigid
// launch-local offsets between those ops ARE the launch's intra-kernel
// dependency structure, so shifting all of them by one delta preserves
// every stage dependency the kernel declared.
struct VmLaunch {
  std::string label;             // e.g. "maxpool 3x3/2 impl=im2col"
  std::vector<BufferId> reads;   // input buffers (RAW/WAR tracking)
  std::vector<BufferId> writes;  // output buffers (WAR/WAW tracking)
  std::vector<CoreWork> cores;   // used cores only
  std::int64_t makespan = 0;     // max over cores of CoreWork::makespan
};

}  // namespace davinci::vm
