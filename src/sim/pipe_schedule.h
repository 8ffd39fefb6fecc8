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
// construction. A bounded run log -- one record per issue() or barrier()
// call -- additionally supports critical_path(): the backward chain of
// intervals (with explicit stall segments) whose lengths sum exactly to
// the makespan. The path is computed from the log when read; scheduling
// never walks it.
#pragma once

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

  // One logged issue() or barrier() call that occupied its pipe:
  // `count` back-to-back issues of `cycles` from `start`, each followed
  // by `then` cycles of scalar-loop work. Public so a launch's result
  // (DeviceAttribution) and the async VM's capture (sim/vm/) can keep a
  // core's log past the scheduler's next reset().
  struct LoggedRun {
    std::int64_t start = 0;
    std::int64_t cycles = 0;
    std::int64_t then = 0;
    std::int64_t count = 1;
    Pipe pipe = Pipe::kSync;
  };

  // One busy interval of an expanded run log (expand()).
  struct LoggedInterval {
    std::int64_t start = 0;
    std::int64_t end = 0;
    Pipe pipe = Pipe::kSync;
    // Index of the same pipe's previous interval, -1 for its first (fits
    // the struct's padding; an expanded log holds at most
    // kMaxLoggedIntervals entries).
    std::int32_t prev = -1;

    friend bool operator==(const LoggedInterval&,
                           const LoggedInterval&) = default;
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
  //
  // With `count` > 1 or `then` > 0 this schedules an instruction run
  // (sim/vector_unit.h): `count` back-to-back issues of `cycles`, each
  // followed by `then` cycles of scalar-loop work on the same pipe. Only
  // the first issue can wait: it leaves its pipe at the frontier (outside
  // a stage) or past the stage dependency (inside one), so every later
  // interval starts where the previous one ended. The buckets and
  // frontier are exactly those of 2 * count single issues, and the one
  // run it logs expands to exactly their intervals (the zero-length ones
  // logging nothing). Returns the first issue's interval.
  Interval issue(Pipe natural_pipe, std::int64_t cycles,
                 std::int64_t count = 1, std::int64_t then = 0) {
    DV_CHECK_GE(cycles, 0);
    DV_CHECK_GE(count, 1);
    DV_CHECK_GE(then, 0);
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
    const std::int64_t end = start + count * (cycles + then);
    log_run({start, cycles, then, count, pipe}, end);
    ready_[pi] = end;
    busy_[pi] += end - start;
    return {start, start + cycles};
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
    log_run({start, cycles, 0, 1, Pipe::kSync}, iv.end);
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
  // when the run log truncates.
  std::int64_t first_busy(Pipe p) const { return first_busy_[pipe_index(p)]; }
  std::int64_t last_busy(Pipe p) const { return last_busy_[pipe_index(p)]; }

  // The bounded run log, in issue order.
  const std::vector<LoggedRun>& runs() const { return runs_; }

  // The intervals the logged runs scheduled (expand(runs())).
  std::vector<LoggedInterval> intervals() const { return expand(runs_); }

  // Expands a run log into its intervals, in order: each issue's
  // interval, then its scalar iterations', zero-length ones skipped.
  // Each pipe's intervals are disjoint and in time order.
  static std::vector<LoggedInterval> expand(const std::vector<LoggedRun>& runs);

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

  // True when the run log hit its cap; critical_path() is then empty
  // (the buckets from attribution() stay exact regardless).
  bool interval_log_truncated() const { return log_truncated_; }

  // The backward chain of intervals that bounds the makespan; empty when
  // the log truncated. See the static overload.
  std::vector<CritSegment> critical_path() const {
    if (log_truncated_) return {};
    return critical_path(runs_, makespan());
  }

  // The backward chain of the schedule that logged `runs` (a whole,
  // untruncated log) and ended at `makespan`: starting at the makespan,
  // repeatedly hop to an interval ending at the current cycle (earliest
  // start wins, ties broken by pipe order, so the result is
  // deterministic); where no interval ends exactly at the current cycle,
  // a kStall segment bridges down to the latest interval end below it.
  // Segment lengths always sum exactly to the makespan.
  static std::vector<CritSegment> critical_path(
      const std::vector<LoggedRun>& runs, std::int64_t makespan);

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
    runs_.clear();
    logged_intervals_ = 0;
    log_truncated_ = false;
  }

 private:
  // Bound on the log, counted in the intervals its runs expand to -- big
  // enough for every kernel in the test and bench suites, small enough
  // that neither the log nor an expansion or path read from it can grow
  // without limit. Attribution buckets stay exact past the cap; only
  // critical_path() degrades (to empty, flagged via
  // interval_log_truncated()).
  static constexpr std::int64_t kMaxLoggedIntervals = 1 << 18;
  static_assert(kMaxLoggedIntervals <= INT32_MAX,
                "LoggedInterval::prev is an int32 index");

  static int pipe_index(Pipe p) { return static_cast<int>(p); }

  // Logs `run`, which ends at `end`, unless it occupies nothing.
  void log_run(const LoggedRun& run, std::int64_t end) {
    const std::int64_t parts =
        run.count * ((run.cycles > 0 ? 1 : 0) + (run.then > 0 ? 1 : 0));
    if (parts == 0) return;  // zero-length: nothing to attribute
    const int pi = pipe_index(run.pipe);
    if (first_busy_[pi] < 0) first_busy_[pi] = run.start;
    if (end > last_busy_[pi]) last_busy_[pi] = end;
    if (log_truncated_ || logged_intervals_ + parts > kMaxLoggedIntervals) {
      log_truncated_ = true;
      return;
    }
    runs_.push_back(run);
    logged_intervals_ += parts;
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
  std::vector<LoggedRun> runs_;
  std::int64_t logged_intervals_ = 0;  // the intervals runs_ expands to
  bool log_truncated_ = false;
};

}  // namespace davinci
