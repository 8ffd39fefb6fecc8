#include "sim/trace_export.h"

#include <algorithm>
#include <fstream>

#include "common/check.h"
#include "common/json.h"
#include "sim/device.h"
#include "sim/vm/stream.h"

namespace davinci {

namespace {

// Thread rows inside one core's process track.
constexpr int kTidVector = 0;
constexpr int kTidMte = 1;
constexpr int kTidScu = 2;
constexpr int kTidCube = 3;
constexpr int kTidSync = 4;

int tid_of(TraceKind k) {
  switch (k) {
    case TraceKind::kVector: return kTidVector;
    case TraceKind::kMte: return kTidMte;
    case TraceKind::kIm2col:
    case TraceKind::kCol2im: return kTidScu;
    case TraceKind::kCube: return kTidCube;
    case TraceKind::kBarrier: return kTidSync;
  }
  return kTidSync;
}

// All string emission goes through json::escape (common/json.h) so a
// kernel label or detail string carrying quotes, backslashes or control
// bytes cannot produce an invalid trace file. escape() returns the
// string already quoted.
void append_meta(std::string* out, int pid, int tid, const char* key,
                 const std::string& value) {
  *out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid);
  if (tid >= 0) *out += ",\"tid\":" + std::to_string(tid);
  *out += ",\"name\":\"";
  *out += key;
  *out += "\",\"args\":{\"name\":";
  *out += json::escape(value);
  *out += "}},\n";
}

// The event's display name: the first token of the detail string (the
// mnemonic), or the trace-kind label when the detail is empty.
std::string event_name(const TraceEvent& e) {
  const std::size_t sp = e.detail.find(' ');
  if (e.detail.empty()) return to_string(e.kind);
  return sp == std::string::npos ? e.detail : e.detail.substr(0, sp);
}

// One VM process track per placed launch, events at their stream-
// scheduled starts. Collects every launch's shifted tile marks into
// `marks` for the stream-global counter.
void append_vm_launch_tracks(
    std::string* out, const std::vector<vm::PlacedLaunch>& placed,
    std::vector<std::pair<std::int64_t, int>>* marks) {
  for (const vm::PlacedLaunch& p : placed) {
    const int pid = static_cast<int>(p.seq) + 1;
    append_meta(out, pid, -1, "process_name",
                "launch " + std::to_string(p.seq) + ": " + p.label);
    for (const vm::CoreWork& cw : p.cores) {
      bool named[PipeScheduler::kNumPipes] = {};
      for (const PipeScheduler::LoggedInterval& iv :
           PipeScheduler::expand(cw.runs)) {
        const int pi = static_cast<int>(iv.pipe);
        const int tid = cw.core * PipeScheduler::kNumPipes + pi;
        if (!named[pi]) {
          named[pi] = true;
          append_meta(out, pid, tid, "thread_name",
                      "core " + std::to_string(cw.core) + " " +
                          to_string(iv.pipe));
        }
        const std::int64_t ts = p.start + iv.start;
        *out += "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
                ",\"tid\":" + std::to_string(tid) +
                ",\"ts\":" + std::to_string(ts) +
                ",\"dur\":" + std::to_string(iv.end - iv.start) +
                ",\"name\":" + json::escape(to_string(iv.pipe)) +
                ",\"cat\":\"vm\",\"args\":{\"launch\":" +
                std::to_string(p.seq) +
                ",\"cycles\":" + std::to_string(iv.end - iv.start) + "}},\n";
      }
      for (const auto& mark : cw.tile_marks) {
        marks->emplace_back(p.start + mark.first, mark.second);
      }
    }
  }
}

// The stream-global "ub tiles in flight" counter on pid 0, closed with a
// zero sample at the cross-batch makespan. Callers must emit this LAST:
// CI asserts the final counter sample is the close at the makespan.
void append_vm_counter(std::string* out,
                       std::vector<std::pair<std::int64_t, int>> marks,
                       std::int64_t makespan) {
  if (marks.empty()) return;
  std::stable_sort(
      marks.begin(), marks.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::int64_t depth = 0;
  for (const auto& mark : marks) {
    depth += mark.second;
    *out += "{\"ph\":\"C\",\"pid\":0,\"ts\":" + std::to_string(mark.first) +
            ",\"name\":\"ub tiles in flight\",\"args\":{\"tiles\":" +
            std::to_string(depth) + "}},\n";
  }
  // Close the counter at the end of the stream; without this the viewer
  // extends the last sample's value to infinity, which reads as tiles
  // still in flight after the device has drained. With inter-batch
  // pipelining the relevant end is the stream's, not any single
  // launch's.
  std::int64_t end_ts = makespan;
  if (end_ts < marks.back().first) end_ts = marks.back().first;
  *out += "{\"ph\":\"C\",\"pid\":0,\"ts\":" + std::to_string(end_ts) +
          ",\"name\":\"ub tiles in flight\",\"args\":{\"tiles\":0}},\n";
}

void append_host_spans(std::string* out,
                       const std::vector<HostSpan>& spans) {
  if (spans.empty()) return;
  append_meta(out, kHostTrackPid, -1, "process_name", "serve requests");
  std::vector<int> named_rows;
  for (const HostSpan& h : spans) {
    if (std::find(named_rows.begin(), named_rows.end(), h.row) ==
        named_rows.end()) {
      named_rows.push_back(h.row);
      append_meta(out, kHostTrackPid, h.row, "thread_name", h.row_name);
    }
    if (h.instant) {
      *out += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
              std::to_string(kHostTrackPid) +
              ",\"tid\":" + std::to_string(h.row) +
              ",\"ts\":" + std::to_string(h.start) +
              ",\"name\":" + json::escape(h.name) + ",\"cat\":\"serve\"";
    } else {
      *out += "{\"ph\":\"X\",\"pid\":" + std::to_string(kHostTrackPid) +
              ",\"tid\":" + std::to_string(h.row) +
              ",\"ts\":" + std::to_string(h.start) +
              ",\"dur\":" + std::to_string(h.end - h.start) +
              ",\"name\":" + json::escape(h.name) + ",\"cat\":\"serve\"";
    }
    if (!h.args_json.empty()) *out += ",\"args\":" + h.args_json;
    *out += "},\n";
  }
}

void strip_trailing_comma(std::string* out) {
  if (out->size() >= 2 && (*out)[out->size() - 2] == ',') {
    out->erase(out->size() - 2, 1);
  }
}

std::string trace_header(const char* generator) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\n";
  out += "\"otherData\":{\"generator\":\"";
  out += generator;
  out += "\",\"time_unit\":\"1 event microsecond = 1 simulated cycle\"},\n";
  out += "\"traceEvents\":[\n";
  return out;
}

void write_trace_file(const std::string& path, const std::string& json) {
  std::ofstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open trace output file " << path;
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  DV_CHECK(f.good()) << "failed writing trace output file " << path;
}

}  // namespace

std::string chrome_trace_json(const std::vector<const Trace*>& traces,
                              const std::vector<int>& core_ids) {
  DV_CHECK_EQ(traces.size(), core_ids.size());
  std::string out = trace_header("davinci-sim");

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Trace& trace = *traces[i];
    const int pid = core_ids[i];
    if (trace.events().empty()) continue;

    append_meta(&out, pid, -1, "process_name",
                "AI Core " + std::to_string(pid));
    append_meta(&out, pid, kTidVector, "thread_name", "Vector Unit");
    append_meta(&out, pid, kTidMte, "thread_name", "MTE");
    append_meta(&out, pid, kTidScu, "thread_name", "SCU (Im2col/Col2im)");
    append_meta(&out, pid, kTidCube, "thread_name", "Cube Unit");
    append_meta(&out, pid, kTidSync, "thread_name", "Sync");

    for (const TraceEvent& e : trace.events()) {
      out += "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(tid_of(e.kind)) +
             ",\"ts\":" + std::to_string(e.start) +
             ",\"dur\":" + std::to_string(e.cycles) +
             ",\"name\":" + json::escape(event_name(e)) +
             ",\"cat\":" + json::escape(to_string(e.kind)) +
             ",\"args\":{\"detail\":" + json::escape(e.detail) +
             ",\"cycles\":" + std::to_string(e.cycles) +
             ",\"launch\":" + std::to_string(e.launch);
      if (e.slots_capacity > 0) {
        // json::number keeps the decimal separator '.' regardless of
        // LC_NUMERIC (snprintf "%f" would not).
        out += ",\"slots_used\":" + std::to_string(e.slots_used) +
               ",\"slots_capacity\":" + std::to_string(e.slots_capacity) +
               ",\"occupancy\":" +
               json::number(static_cast<double>(e.slots_used) /
                            static_cast<double>(e.slots_capacity));
      }
      out += "}},\n";

      if (e.kind == TraceKind::kVector && e.slots_capacity > 0) {
        // Counter track: mean active lanes of this instruction, dropping
        // to zero when the Vector Unit goes idle.
        const double lanes = 128.0 * static_cast<double>(e.slots_used) /
                             static_cast<double>(e.slots_capacity);
        out += "{\"ph\":\"C\",\"pid\":" + std::to_string(pid) +
               ",\"ts\":" + std::to_string(e.start) +
               ",\"name\":\"vec active lanes\",\"args\":{\"lanes\":" +
               json::number(lanes) + "}},\n";
        out += "{\"ph\":\"C\",\"pid\":" + std::to_string(pid) +
               ",\"ts\":" + std::to_string(e.start + e.cycles) +
               ",\"name\":\"vec active lanes\",\"args\":{\"lanes\":0}},\n";
      }
    }

    // Ping-pong queue depth: tiles loaded into a UB slot but not yet
    // stored back to GM (see AiCore::note_tile).
    if (!trace.tile_marks().empty()) {
      auto marks = trace.tile_marks();
      std::stable_sort(
          marks.begin(), marks.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      std::int64_t depth = 0;
      for (const auto& mark : marks) {
        depth += mark.second;
        out += "{\"ph\":\"C\",\"pid\":" + std::to_string(pid) +
               ",\"ts\":" + std::to_string(mark.first) +
               ",\"name\":\"ub tiles in flight\",\"args\":{\"tiles\":" +
               std::to_string(depth) + "}},\n";
      }
      // Close the counter track at the end of the trace; without this
      // the viewer extends the last sample's value to infinity, which
      // reads as tiles still in flight after the core has drained.
      out += "{\"ph\":\"C\",\"pid\":" + std::to_string(pid) +
             ",\"ts\":" + std::to_string(trace.end()) +
             ",\"name\":\"ub tiles in flight\",\"args\":{\"tiles\":0}},\n";
    }

    if (trace.truncated()) {
      out += "{\"ph\":\"i\",\"s\":\"p\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(kTidSync) +
             ",\"ts\":" + std::to_string(trace.end()) +
             ",\"name\":\"trace truncated (kMaxEvents reached)\"},\n";
    }
  }

  // Strip the trailing ",\n" so the array is valid JSON.
  strip_trailing_comma(&out);
  out += "]}\n";
  return out;
}

std::string chrome_trace_json(Device& dev) {
  std::vector<const Trace*> traces;
  std::vector<int> ids;
  for (int c = 0; c < dev.num_cores(); ++c) {
    const Trace& t = dev.core(c).trace();
    if (!t.events().empty()) {
      traces.push_back(&t);
      ids.push_back(c);
    }
  }
  return chrome_trace_json(traces, ids);
}

void write_chrome_trace(const std::string& path, Device& dev) {
  write_trace_file(path, chrome_trace_json(dev));
}

std::string unified_chrome_trace_json(const vm::VmStream& stream,
                                      const std::vector<HostSpan>& spans) {
  std::string out = trace_header("davinci-sim serve");
  append_meta(&out, 0, -1, "process_name", "VM stream");
  // Host request tracks first, then the device launch tracks, and the
  // stream counter strictly last -- the "ub tiles in flight" counter's
  // final sample must stay the zero close at the makespan (the CI
  // invariant), so nothing may append counter samples after it.
  append_host_spans(&out, spans);
  std::vector<std::pair<std::int64_t, int>> marks;
  append_vm_launch_tracks(&out, stream.placements(), &marks);
  append_vm_counter(&out, std::move(marks), stream.stats().makespan);
  strip_trailing_comma(&out);
  out += "]}\n";
  return out;
}

void write_unified_chrome_trace(const std::string& path,
                                const vm::VmStream& stream,
                                const std::vector<HostSpan>& spans) {
  write_trace_file(path, unified_chrome_trace_json(stream, spans));
}

}  // namespace davinci
