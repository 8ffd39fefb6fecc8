// Chrome trace_event ("chrome://tracing" / Perfetto) export of the
// per-core instruction traces.
//
// Each AI Core becomes one process track (pid = core id) and each
// execution unit one thread row inside it (Vector, MTE, SCU, Cube, Sync).
// An event's timestamp is its start on the trace's timeline (see
// sim/trace.h): the start cycle the core's pipe-overlap scheduler
// (sim/pipe_schedule.h) assigned, after every earlier launch the trace
// holds, so double-buffered kernels render with genuinely overlapping
// per-unit intervals and successive launches run back to back. One
// simulated cycle is exported as one microsecond of trace time. Events
// carry their detail string, cycle cost, slot occupancy and launch
// ordinal in args, every Vector Unit instruction also emits an "active
// lanes" counter sample so the 16-vs-128-lane difference the paper argues
// about is visible as a counter track, and ping-pong kernels add a
// "ub tiles in flight" counter (tiles loaded but not yet stored) that
// shows the double-buffer depth directly.
//
// Tracing must be enabled per core (AiCore::trace().enable()) before the
// run; cores with empty traces are skipped. A truncated trace (see
// Trace::kMaxEvents) is exported with an instant event at the trace's end
// marking the cutoff.
#pragma once

#include <string>
#include <vector>

#include "sim/trace.h"

namespace davinci {

namespace vm {
class VmStream;
}  // namespace vm

class Device;

// Serializes the given per-core traces; entry i is rendered as the track
// of core `core_ids[i]`. Returns a complete JSON object (trace_event
// "JSON Object Format": {"traceEvents": [...], ...}).
std::string chrome_trace_json(const std::vector<const Trace*>& traces,
                              const std::vector<int>& core_ids);

// Serializes every core of `dev` that recorded at least one event.
std::string chrome_trace_json(Device& dev);

// Writes chrome_trace_json(dev) to `path`. Throws Error on I/O failure.
void write_chrome_trace(const std::string& path, Device& dev);

// One host-side span for the unified host+device timeline: a row of the
// dedicated "serve requests" process track (pid kHostTrackPid), placed
// directly on the VM stream's cycle timeline so request lifecycle phases
// line up with the device tracks they caused. Rows are labeled once via
// row_name; args_json, when non-empty, must be a serialized JSON object
// and is embedded verbatim as the event's args.
struct HostSpan {
  int row = 0;
  std::string row_name;
  std::string name;
  std::int64_t start = 0, end = 0;  // stream cycles
  std::string args_json;
  bool instant = false;  // render as an instant event at `start`
};

// The host track's pid: far above any VM launch pid (seq + 1, bounded
// by vm::VmStream::kMaxPlacedLaunches).
constexpr int kHostTrackPid = 1000000;

// The unified host+device timeline (docs/OBSERVABILITY.md, ASYNC_VM.md).
// Each placed VM launch is one process track (pid = launch sequence + 1,
// labeled with its op string) with one thread row per (core, pipe) lane
// at stream-scheduled starts, so overlapping batches show as overlapping
// tracks; launch tracks need a VmStreamOptions::capture stream. pid 0
// carries the stream-global "ub tiles in flight" counter, closed with a
// zero sample at the cross-batch makespan; its samples stay the final
// "C" events (the CI invariant). The host spans ride alongside: with
// none the document is the device-only view, and with no captured
// placements it is host-only but still valid.
std::string unified_chrome_trace_json(const vm::VmStream& stream,
                                      const std::vector<HostSpan>& spans);

// Writes unified_chrome_trace_json to `path`. Throws Error on I/O
// failure.
void write_unified_chrome_trace(const std::string& path,
                                const vm::VmStream& stream,
                                const std::vector<HostSpan>& spans);

}  // namespace davinci
