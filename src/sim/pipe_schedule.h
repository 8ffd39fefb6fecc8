// Event-driven pipe-overlap scheduler for one AI Core.
//
// The simulator executes kernels functionally on the host, but every
// charged cost also becomes an *interval* on a per-unit timeline here:
// MTE-in, SCU, Vector (which absorbs the Scalar Unit that issues its
// instructions), Cube, MTE-out, plus a Sync row for barriers and launch
// overhead. This timeline is the core's only cycle count: the makespan of
// its intervals is the modeled overlapped execution time that
// Device::RunResult reports as device_cycles, and serial() -- every
// charge in issue order -- is device_cycles_serial.
//
// Scheduling discipline:
//
//  * Outside a stage, every operation starts at the global frontier (the
//    max ready time over all pipes) -- i.e. unannotated code executes on
//    the strictly serial timeline the simulator always had, and its
//    makespan equals its serial cycle total. Kernels that never open a
//    stage are bit-for-bit unaffected by this class.
//  * Inside a stage (AiCore::begin_stage / end_stage), operations queue
//    in issue order on the stage's pipe, starting no earlier than the
//    stage's dependency events. This is how the ping-pong kernels declare
//    "the reduction of tile t needs the Im2Col of tile t, not the MTE
//    load of tile t+1", and how cross-pipe overlap emerges.
//  * A stage with a nonzero dependency pays one pipe_barrier_cycles
//    flag-wait, mirroring the set_flag/wait_flag pair a real CCE kernel
//    issues at that dependency: AiCore::begin_stage folds it into the
//    stage's dependency here, and serial() counts it even where the pipe
//    is already past the dependency and the timeline absorbs it.
//
// Because every start time is bounded by the sum of all charges issued so
// far, makespan() <= serial() always holds; and since busy time
// accumulates per pipe, makespan() >= the busiest pipe's busy time.
// Tests assert this sandwich for every kernel.
//
// Cycle attribution (docs/OBSERVABILITY.md): every cycle of every pipe's
// timeline is charged to exactly one bucket as the schedule is built --
// busy (an interval occupies the pipe), wait (the pipe sat behind a
// dependency event or the serial frontier), flag (a flag-wait or
// pipe_barrier stall), and the idle tail up to a query horizon. The
// invariant busy + wait + flag + idle == horizon holds exactly per pipe by
// construction. A bounded interval log additionally supports
// critical_path(): the backward chain of intervals (with explicit stall
// segments) whose lengths sum exactly to the makespan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace davinci {

enum class Pipe : std::uint8_t {
  kMteIn = 0,  // GM/L1 -> scratch transfers
  kScu,        // Im2Col / Col2Im
  kVector,     // Vector Unit + Scalar Unit control flow
  kCube,
  kMteOut,     // scratch -> GM transfers
  kSync,       // barriers, launch overhead
  kCount,
};

inline const char* to_string(Pipe p) {
  switch (p) {
    case Pipe::kMteIn: return "MTE-in";
    case Pipe::kScu: return "SCU";
    case Pipe::kVector: return "Vector";
    case Pipe::kCube: return "Cube";
    case Pipe::kMteOut: return "MTE-out";
    case Pipe::kSync: return "Sync";
    case Pipe::kCount: break;
  }
  return "?";
}

// Where a cycle of a pipe's timeline went (see attribution()).
struct PipeBuckets {
  std::int64_t busy = 0;  // an interval occupied the pipe
  std::int64_t wait = 0;  // stalled behind a dependency event / frontier
  std::int64_t flag = 0;  // flag-wait or pipe_barrier synchronization
  std::int64_t idle = 0;  // tail after the pipe's last interval
  std::int64_t total() const { return busy + wait + flag + idle; }
};

// One link of the critical path: either a scheduled interval (kBusy) or a
// gap the bounding chain spent stalled (kStall).
struct CritSegment {
  enum class Kind : std::uint8_t { kBusy, kStall };
  Pipe pipe = Pipe::kSync;
  Kind kind = Kind::kBusy;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t length() const { return end - start; }
};

class PipeScheduler {
 public:
  // A completion event: the cycle at which a stage (or interval) ends.
  // Events are plain cycle counts so callers combine them with std::max.
  using Event = std::int64_t;

  struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  static constexpr int kNumPipes = static_cast<int>(Pipe::kCount);

  // One logged busy interval (bounded; see kMaxLoggedIntervals). Public
  // so the async VM (sim/vm/) can replay a captured launch timeline onto
  // its cross-launch stream tracks and the trace exporter can render the
  // shifted intervals.
  struct LoggedInterval {
    std::int64_t start = 0;
    std::int64_t end = 0;
    Pipe pipe = Pipe::kSync;
  };

  // Opens a stage on `pipe`; operations issued until end_stage() land on
  // that pipe in order, starting no earlier than `after` (0 = no
  // dependency). The flag-wait cost of the dependency is folded into
  // `after` by the caller (AiCore::begin_stage), which also reports it as
  // `flag_cycles` so the stall is attributed to the flag bucket rather
  // than a generic dependency wait. serial() counts all `flag_cycles`,
  // including any the pipe's own backlog absorbs.
  void begin_stage(Pipe pipe, Event after, std::int64_t flag_cycles = 0) {
    DV_CHECK(!stage_open_) << "begin_stage inside an open stage";
    DV_CHECK_GE(after, 0);
    DV_CHECK_GE(flag_cycles, 0);
    flags_charged_ += flag_cycles;
    stage_open_ = true;
    stage_pipe_ = pipe;
    stage_dep_ = after;
    stage_flag_ = flag_cycles;
  }

  // Closes the stage; returns its completion event (the dependency floor
  // when the stage issued nothing).
  Event end_stage() {
    DV_CHECK(stage_open_) << "end_stage without begin_stage";
    stage_open_ = false;
    stage_flag_ = 0;
    const std::int64_t done =
        ready_[pipe_index(stage_pipe_)] > stage_dep_
            ? ready_[pipe_index(stage_pipe_)]
            : stage_dep_;
    return done;
  }

  bool stage_open() const { return stage_open_; }

  // Closes a stage a faulted block left open (the resilient scheduler
  // calls this before retrying); the failed attempt's charges stay
  // accounted.
  void abandon_stage() {
    stage_open_ = false;
    stage_flag_ = 0;
  }

  // Schedules `cycles` of work. Inside a stage the work lands on the
  // stage's pipe after the stage dependency; outside, it lands on
  // `natural_pipe` at the global frontier (serial semantics). Any gap
  // between the pipe's last ready time and the new start is attributed:
  // up to stage_flag_ cycles of a stage-dependency gap count as flag
  // stall (the modeled wait_flag spin), the remainder as event wait; a
  // serial-frontier gap is all event wait.
  Interval issue(Pipe natural_pipe, std::int64_t cycles) {
    DV_CHECK_GE(cycles, 0);
    const Pipe pipe = stage_open_ ? stage_pipe_ : natural_pipe;
    const int pi = pipe_index(pipe);
    std::int64_t start;
    if (stage_open_) {
      start = ready_[pi] > stage_dep_ ? ready_[pi] : stage_dep_;
      if (start > ready_[pi]) {
        std::int64_t gap = start - ready_[pi];
        const std::int64_t flag_part = gap < stage_flag_ ? gap : stage_flag_;
        stage_flag_ -= flag_part;
        flag_[pi] += flag_part;
        wait_[pi] += gap - flag_part;
      }
    } else {
      start = frontier();
      wait_[pi] += start - ready_[pi];
    }
    Interval iv{start, start + cycles};
    ready_[pi] = iv.end;
    busy_[pi] += cycles;
    log_interval(pipe, iv);
    return iv;
  }

  // A full synchronization costing `cycles`: starts at the global
  // frontier and holds *every* pipe until it completes (pipe_barrier).
  // Every pipe's gap up to the barrier start, plus the barrier duration
  // itself, is flag stall -- except Sync, which spends the duration busy
  // (that is the charged cost of the barrier instruction).
  Interval barrier(std::int64_t cycles) {
    DV_CHECK(!stage_open_) << "pipe_barrier inside a stage";
    const std::int64_t start = frontier();
    Interval iv{start, start + cycles};
    for (int i = 0; i < kNumPipes; ++i) {
      std::int64_t stall = start - ready_[i];
      if (static_cast<Pipe>(i) != Pipe::kSync) stall += cycles;
      flag_[i] += stall;
      ready_[i] = iv.end;
    }
    busy_[pipe_index(Pipe::kSync)] += cycles;
    log_interval(Pipe::kSync, iv);
    return iv;
  }

  // Modeled overlapped execution time so far.
  std::int64_t makespan() const { return frontier(); }

  // The strictly serial cycle count: every charge in issue order, i.e.
  // busy time over all pipes plus every stage flag-wait charged.
  std::int64_t serial() const {
    std::int64_t total = flags_charged_;
    for (int i = 0; i < kNumPipes; ++i) total += busy_[i];
    return total;
  }

  // Busy (charged) cycles of one pipe.
  std::int64_t busy(Pipe p) const { return busy_[pipe_index(p)]; }

  // Dependency-wait and flag-stall cycles of one pipe (the other two
  // attribution buckets; idle is derived against a horizon).
  std::int64_t wait(Pipe p) const { return wait_[pipe_index(p)]; }
  std::int64_t flag(Pipe p) const { return flag_[pipe_index(p)]; }

  // The pipe's timeline frontier: the end of its last interval or
  // barrier hold (busy + wait + flag == ready by construction).
  std::int64_t ready(Pipe p) const { return ready_[pipe_index(p)]; }

  // First/last cycle the pipe was *occupied* by an interval (-1 / 0 when
  // it never ran anything). The async VM shifts a whole launch timeline
  // by one delta; these bounds are the per-pipe contact points that
  // decide how far two launches may overlap, and they stay exact even
  // when the interval log truncates.
  std::int64_t first_busy(Pipe p) const { return first_busy_[pipe_index(p)]; }
  std::int64_t last_busy(Pipe p) const { return last_busy_[pipe_index(p)]; }

  // The bounded interval log (start/end/pipe per scheduled interval).
  const std::vector<LoggedInterval>& intervals() const { return log_; }

  // Busy time of the busiest real execution unit (Sync excluded) -- the
  // lower half of the sandwich bound.
  std::int64_t busiest_unit_busy() const {
    std::int64_t best = 0;
    for (int i = 0; i < kNumPipes; ++i) {
      if (static_cast<Pipe>(i) == Pipe::kSync) continue;
      if (busy_[i] > best) best = busy_[i];
    }
    return best;
  }

  // --- Cycle attribution -------------------------------------------------
  // Decomposes each pipe's timeline up to `horizon` (>= makespan; pass the
  // device-wide horizon so cores that finished early show the shared idle
  // tail). busy/wait/flag accumulate as the schedule is built; idle is the
  // tail between the pipe's last ready time and the horizon. By
  // construction busy + wait + flag == ready_[pipe], so the four buckets
  // sum exactly to `horizon` for every pipe.
  PipeBuckets attribution(Pipe p, std::int64_t horizon) const {
    DV_CHECK_GE(horizon, makespan()) << "attribution horizon before makespan";
    const int pi = pipe_index(p);
    PipeBuckets b;
    b.busy = busy_[pi];
    b.wait = wait_[pi];
    b.flag = flag_[pi];
    b.idle = horizon - ready_[pi];
    return b;
  }

  // True when the interval log hit its cap; critical_path() is then empty
  // (the buckets from attribution() stay exact regardless).
  bool interval_log_truncated() const { return log_truncated_; }

  // The backward chain of intervals that bounds the makespan: starting at
  // the makespan, repeatedly hop to an interval ending at the current
  // cycle (earliest start wins, ties broken by pipe order, so the result
  // is deterministic); where no interval ends exactly at the current
  // cycle, a kStall segment bridges down to the latest interval end below
  // it. Segment lengths always sum exactly to the makespan.
  std::vector<CritSegment> critical_path() const {
    std::vector<CritSegment> path;
    if (log_truncated_) return path;
    std::int64_t cur = makespan();
    if (cur == 0) return path;
    // Each pipe's logged intervals are disjoint and in time order, so a
    // backward walk needs one cursor per pipe: at[p] is the log index of
    // pipe p's latest interval ending at or below cur (-1 once none is
    // left). The cursors only move backward, so the walk is linear.
    const auto n = static_cast<std::ptrdiff_t>(log_.size());
    std::ptrdiff_t at[kNumPipes];
    const auto retreat = [&](int p) {
      std::ptrdiff_t i = at[p];
      do {
        --i;
      } while (i >= 0 && pipe_index(log_[i].pipe) != p);
      at[p] = i;
    };
    for (int p = 0; p < kNumPipes; ++p) {
      at[p] = n;
      retreat(p);
    }
    while (cur > 0) {
      // The latest end at or below cur, and among intervals ending
      // exactly at cur the earliest start (then lowest pipe index) -- the
      // longest link, deterministically.
      std::int64_t best_end = 0;
      const LoggedInterval* pick = nullptr;
      for (int p = 0; p < kNumPipes; ++p) {
        while (at[p] >= 0 && log_[at[p]].end > cur) retreat(p);
        if (at[p] < 0) continue;
        const LoggedInterval& iv = log_[at[p]];
        best_end = std::max(best_end, iv.end);
        if (iv.end == cur && (pick == nullptr || iv.start < pick->start)) {
          pick = &iv;
        }
      }
      if (pick == nullptr) {
        // Gap: the bounding chain waited from best_end (0 when nothing is
        // scheduled below cur) up to cur.
        path.push_back(
            {Pipe::kSync, CritSegment::Kind::kStall, best_end, cur});
        cur = best_end;
        continue;
      }
      path.push_back({pick->pipe, CritSegment::Kind::kBusy, pick->start, cur});
      cur = pick->start;
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  // --- Ping-pong observability -------------------------------------------
  // The double-buffered drivers mark tiles entering (+1, at the load's
  // completion) and leaving (-1, at the store's completion) flight
  // (AiCore::note_tile); the async VM renders the running sum of a
  // launch's marks as a queue-depth counter track. Bounded like the
  // instruction trace so a huge run cannot grow without limit.
  static constexpr std::size_t kMaxTileMarks = 1 << 16;

  void note_tile(Event cycle, int delta) {
    if (tile_marks_.size() >= kMaxTileMarks) return;
    tile_marks_.emplace_back(cycle, delta);
  }
  const std::vector<std::pair<Event, int>>& tile_marks() const {
    return tile_marks_;
  }

  void reset() {
    for (int i = 0; i < kNumPipes; ++i) {
      ready_[i] = 0;
      busy_[i] = 0;
      wait_[i] = 0;
      flag_[i] = 0;
      first_busy_[i] = -1;
      last_busy_[i] = 0;
    }
    flags_charged_ = 0;
    stage_open_ = false;
    stage_dep_ = 0;
    stage_flag_ = 0;
    tile_marks_.clear();
    log_.clear();
    log_truncated_ = false;
  }

 private:
  // Bound on the interval log -- big enough for every kernel in the test
  // and bench suites, small enough that a pathological run cannot grow
  // without limit. Attribution buckets stay exact past the cap; only
  // critical_path() degrades (to empty, flagged via
  // interval_log_truncated()).
  static constexpr std::size_t kMaxLoggedIntervals = 1 << 18;

  static int pipe_index(Pipe p) { return static_cast<int>(p); }

  void log_interval(Pipe p, Interval iv) {
    if (iv.end == iv.start) return;  // zero-length: nothing to attribute
    const int pi = pipe_index(p);
    if (first_busy_[pi] < 0) first_busy_[pi] = iv.start;
    if (iv.end > last_busy_[pi]) last_busy_[pi] = iv.end;
    if (log_.size() >= kMaxLoggedIntervals) {
      log_truncated_ = true;
      return;
    }
    log_.push_back({iv.start, iv.end, p});
  }

  std::int64_t frontier() const {
    std::int64_t f = 0;
    for (int i = 0; i < kNumPipes; ++i) {
      if (ready_[i] > f) f = ready_[i];
    }
    return f;
  }

  std::int64_t ready_[kNumPipes] = {};
  std::int64_t busy_[kNumPipes] = {};
  std::int64_t wait_[kNumPipes] = {};
  std::int64_t flag_[kNumPipes] = {};
  std::int64_t first_busy_[kNumPipes] = {-1, -1, -1, -1, -1, -1};
  std::int64_t last_busy_[kNumPipes] = {};
  std::int64_t flags_charged_ = 0;  // stage flag-waits, absorbed or not
  bool stage_open_ = false;
  Pipe stage_pipe_ = Pipe::kVector;
  std::int64_t stage_dep_ = 0;
  std::int64_t stage_flag_ = 0;
  std::vector<std::pair<Event, int>> tile_marks_;
  std::vector<LoggedInterval> log_;
  bool log_truncated_ = false;
};

}  // namespace davinci
