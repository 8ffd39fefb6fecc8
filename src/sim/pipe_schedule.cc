#include "sim/pipe_schedule.h"

#include <algorithm>

namespace davinci {

std::vector<PipeScheduler::LoggedInterval> PipeScheduler::expand(
    const std::vector<LoggedRun>& runs) {
  std::vector<LoggedInterval> log;
  std::int32_t last[kNumPipes] = {-1, -1, -1, -1, -1, -1};
  const auto add = [&](Pipe p, std::int64_t start, std::int64_t end) {
    if (end == start) return;
    std::int32_t& prev = last[pipe_index(p)];
    log.push_back({start, end, p, prev});
    prev = static_cast<std::int32_t>(log.size() - 1);
  };
  for (const LoggedRun& r : runs) {
    std::int64_t at = r.start;
    for (std::int64_t i = 0; i < r.count; ++i) {
      add(r.pipe, at, at + r.cycles);
      at += r.cycles;
      add(r.pipe, at, at + r.then);
      at += r.then;
    }
  }
  return log;
}

std::vector<CritSegment> PipeScheduler::critical_path(
    const std::vector<LoggedRun>& runs, std::int64_t makespan) {
  std::vector<CritSegment> path;
  std::int64_t cur = makespan;
  if (cur == 0) return path;
  const std::vector<LoggedInterval> log = expand(runs);
  // Each pipe's intervals are disjoint and in time order, so a backward
  // walk needs one cursor per pipe: at[p] is the index of pipe p's latest
  // interval ending at or below cur (-1 once none is left). The cursors
  // only move backward, one prev link at a time, so the walk is linear in
  // the path it visits.
  std::int32_t at[kNumPipes] = {-1, -1, -1, -1, -1, -1};
  for (std::size_t i = 0; i < log.size(); ++i) {
    at[pipe_index(log[i].pipe)] = static_cast<std::int32_t>(i);
  }
  while (cur > 0) {
    // The latest end at or below cur, and among intervals ending exactly
    // at cur the earliest start (then lowest pipe index) -- the longest
    // link, deterministically.
    std::int64_t best_end = 0;
    const LoggedInterval* pick = nullptr;
    for (int p = 0; p < kNumPipes; ++p) {
      while (at[p] >= 0 && log[at[p]].end > cur) at[p] = log[at[p]].prev;
      if (at[p] < 0) continue;
      const LoggedInterval& iv = log[at[p]];
      best_end = std::max(best_end, iv.end);
      if (iv.end == cur && (pick == nullptr || iv.start < pick->start)) {
        pick = &iv;
      }
    }
    if (pick == nullptr) {
      // Gap: the bounding chain waited from best_end (0 when nothing is
      // scheduled below cur) up to cur.
      path.push_back({Pipe::kSync, CritSegment::Kind::kStall, best_end, cur});
      cur = best_end;
      continue;
    }
    path.push_back({pick->pipe, CritSegment::Kind::kBusy, pick->start, cur});
    cur = pick->start;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace davinci
