// Optional per-core instruction trace. When enabled, every instruction
// the simulator executes is recorded with its unit, parameters and cycle
// cost -- the equivalent of reading the lowered CCE-C of a kernel. Used
// by tests to assert on instruction streams and by humans to see *why* a
// schedule costs what it costs.
//
// Disabled by default; recording is bounded so a runaway kernel cannot
// exhaust memory (the bound trips a `truncated` flag instead).
//
// A trace outlives launches: Device::run resets each core's pipe timeline
// to cycle 0 but opens a new launch on the trace (begin_launch), so every
// launch is drawn after everything the trace already holds and its
// events carry the launch's ordinal.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace davinci {

enum class TraceKind : std::uint8_t {
  kVector,
  kMte,
  kIm2col,
  kCol2im,
  kCube,
  kBarrier,
};

inline const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kVector: return "VEC";
    case TraceKind::kMte: return "MTE";
    case TraceKind::kIm2col: return "IM2COL";
    case TraceKind::kCol2im: return "COL2IM";
    case TraceKind::kCube: return "CUBE";
    case TraceKind::kBarrier: return "BAR";
  }
  return "?";
}

struct TraceEvent {
  TraceKind kind;
  std::string detail;
  std::int64_t cycles = 0;
  // Occupancy of the instruction(s) behind this event, in the unit's slot
  // currency (see Profile in sim/stats.h); 0/0 when not recorded.
  std::int64_t slots_used = 0;
  std::int64_t slots_capacity = 0;
  // Start cycle on the trace's timeline: the launch's origin plus the
  // start the core's pipe-overlap scheduler (sim/pipe_schedule.h) gave
  // the instruction. Events recorded without a start follow the trace's
  // end.
  std::int64_t start = 0;
  // Ordinal of the Device launch that issued the event (0 on a core
  // driven outside Device::run).
  std::int64_t launch = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Trace {
 public:
  static constexpr std::size_t kMaxEvents = 1 << 16;
  static constexpr std::size_t kMaxTileMarks = 1 << 16;

  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }

  void clear() {
    events_.clear();
    tile_marks_.clear();
    truncated_ = false;
    origin_ = 0;
    end_ = 0;
  }

  // Opens launch `ordinal`: its starts and tile marks are offset by
  // `origin` (Device::run passes the furthest end() over its cores).
  void begin_launch(std::int64_t ordinal, std::int64_t origin) {
    launch_ = ordinal;
    origin_ = origin;
  }

  // One past the last cycle any recorded event or tile mark occupies.
  std::int64_t end() const { return end_; }

  // `start` is the launch-relative start cycle, or -1 to append the event
  // at the trace's end (hand-built traces).
  void record(TraceKind kind, std::string detail, std::int64_t cycles,
              std::int64_t slots_used = 0, std::int64_t slots_capacity = 0,
              std::int64_t start = -1) {
    if (!enabled_) return;
    if (events_.size() >= kMaxEvents) {
      truncated_ = true;
      return;
    }
    const std::int64_t at = start >= 0 ? origin_ + start : end_;
    events_.push_back(TraceEvent{kind, std::move(detail), cycles, slots_used,
                                 slots_capacity, at, launch_});
    if (at + cycles > end_) end_ = at + cycles;
  }

  // A ping-pong tile entering (+1) or leaving (-1) flight at the
  // launch-relative `cycle` (see PipeScheduler::note_tile); the exporter
  // renders the running sum as the "ub tiles in flight" counter.
  void mark_tile(std::int64_t cycle, int delta) {
    if (!enabled_ || tile_marks_.size() >= kMaxTileMarks) return;
    tile_marks_.emplace_back(origin_ + cycle, delta);
    if (origin_ + cycle > end_) end_ = origin_ + cycle;
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::pair<std::int64_t, int>>& tile_marks() const {
    return tile_marks_;
  }
  bool truncated() const { return truncated_; }

  std::int64_t count(TraceKind kind) const {
    std::int64_t n = 0;
    for (const auto& e : events_) n += e.kind == kind;
    return n;
  }

  std::string to_string(std::size_t max_lines = 64) const {
    std::string out;
    std::size_t n = 0;
    for (const auto& e : events_) {
      if (n++ >= max_lines) {
        out += "... (" + std::to_string(events_.size() - max_lines) +
               " more)\n";
        break;
      }
      out += std::string(davinci::to_string(e.kind)) + " " + e.detail +
             " [" + std::to_string(e.cycles) + " cyc]\n";
    }
    if (truncated_) out += "(trace truncated)\n";
    return out;
  }

 private:
  bool enabled_ = false;
  bool truncated_ = false;
  std::int64_t launch_ = 0;
  std::int64_t origin_ = 0;
  std::int64_t end_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::int64_t, int>> tile_marks_;
};

}  // namespace davinci
