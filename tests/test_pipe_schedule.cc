// Unit tests of the per-core pipe-overlap scheduler (sim/pipe_schedule.h):
// serial semantics outside stages, overlap inside stages, the barrier, the
// sandwich bound, the ping-pong tile marks and the critical path.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/prng.h"
#include "sim/pipe_schedule.h"

namespace davinci {
namespace {

using Event = PipeScheduler::Event;
using Logged = PipeScheduler::LoggedInterval;

// Reference critical path: sort a copy of the interval log by end and
// binary-search each backward hop. Same contract as
// PipeScheduler::critical_path() -- among intervals ending at the current
// cycle the earliest start wins, then the lowest pipe; gaps become stall
// segments; a truncated log gives an empty path.
std::vector<CritSegment> critical_path_oracle(const PipeScheduler& s) {
  std::vector<CritSegment> path;
  if (s.interval_log_truncated()) return path;
  std::int64_t cur = s.makespan();
  if (cur == 0) return path;
  std::vector<Logged> by_end = s.intervals();
  std::stable_sort(by_end.begin(), by_end.end(),
                   [](const Logged& a, const Logged& b) { return a.end < b.end; });
  while (cur > 0) {
    auto it = std::upper_bound(
        by_end.begin(), by_end.end(), cur,
        [](std::int64_t v, const Logged& iv) { return v < iv.end; });
    if (it == by_end.begin()) {
      path.push_back({Pipe::kSync, CritSegment::Kind::kStall, 0, cur});
      break;
    }
    const std::int64_t best_end = std::prev(it)->end;
    if (best_end < cur) {
      path.push_back({Pipe::kSync, CritSegment::Kind::kStall, best_end, cur});
      cur = best_end;
      continue;
    }
    const Logged* pick = nullptr;
    for (auto jt = it; jt != by_end.begin();) {
      --jt;
      if (jt->end != cur) break;
      if (pick == nullptr || jt->start < pick->start ||
          (jt->start == pick->start && jt->pipe < pick->pipe)) {
        pick = &*jt;
      }
    }
    path.push_back({pick->pipe, CritSegment::Kind::kBusy, pick->start, cur});
    cur = pick->start;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// A seeded random schedule: unstaged issues and instruction runs, stages
// on random pipes after earlier completion events (with flag cycles)
// holding both, barriers and zero-length issues. Cycle counts are tiny,
// so intervals on different pipes often end on the same cycle. With
// `split`, each run is issued as its 2 * count single issues instead.
void random_schedule(PipeScheduler& s, std::uint64_t seed, int ops,
                     bool split = false) {
  Xoshiro256 rng(seed);
  const auto cycles = [&] { return static_cast<std::int64_t>(rng.next_below(5)); };
  // One issue, or one time in three a run: 1-4 issues, each followed by
  // 0-2 scalar cycles.
  const auto issue = [&](Pipe pipe) {
    const std::int64_t c = cycles();
    if (rng.next_below(3) != 0) {
      s.issue(pipe, c);
      return;
    }
    const auto count = static_cast<std::int64_t>(1 + rng.next_below(4));
    const auto then = static_cast<std::int64_t>(rng.next_below(3));
    if (!split) {
      s.issue(pipe, c, count, then);
      return;
    }
    for (std::int64_t k = 0; k < count; ++k) {
      s.issue(pipe, c);
      s.issue(pipe, then);
    }
  };
  std::vector<Event> events{0};
  for (int i = 0; i < ops; ++i) {
    const auto pipe =
        static_cast<Pipe>(rng.next_below(PipeScheduler::kNumPipes));
    const std::uint64_t kind = rng.next_below(8);
    if (kind == 0) {
      s.barrier(cycles());
    } else if (kind <= 2) {
      issue(pipe);
    } else {
      s.begin_stage(pipe, events[rng.next_below(events.size())],
                    static_cast<std::int64_t>(rng.next_below(3)));
      for (std::uint64_t k = 0, n = 1 + rng.next_below(3); k < n; ++k) {
        issue(pipe);
      }
      events.push_back(s.end_stage());
    }
  }
}

void expect_same_path(const std::vector<CritSegment>& got,
                      const std::vector<CritSegment>& want,
                      std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pipe, want[i].pipe) << "seed " << seed << " segment " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "seed " << seed << " segment " << i;
    EXPECT_EQ(got[i].start, want[i].start) << "seed " << seed << " segment " << i;
    EXPECT_EQ(got[i].end, want[i].end) << "seed " << seed << " segment " << i;
  }
}

TEST(PipeSchedule, UnstagedOpsSerialize) {
  // Outside a stage every op starts at the global frontier, so the
  // makespan equals the serial sum even across different pipes.
  PipeScheduler s;
  auto a = s.issue(Pipe::kMteIn, 10);
  auto b = s.issue(Pipe::kVector, 7);
  auto c = s.issue(Pipe::kMteOut, 5);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(b.start, 10);
  EXPECT_EQ(c.start, 17);
  EXPECT_EQ(s.makespan(), 22);
}

TEST(PipeSchedule, StagesOverlapAcrossPipes) {
  // load (MTE-in, 10) then compute (Vector, 10) depending on the load,
  // then a second independent load: the second load starts at cycle 10,
  // concurrent with the compute.
  PipeScheduler s;
  s.begin_stage(Pipe::kMteIn, 0);
  auto load1 = s.issue(Pipe::kMteIn, 10);
  Event load1_done = s.end_stage();
  EXPECT_EQ(load1_done, 10);

  s.begin_stage(Pipe::kVector, load1_done);
  auto comp = s.issue(Pipe::kVector, 10);
  Event comp_done = s.end_stage();

  s.begin_stage(Pipe::kMteIn, 0);
  auto load2 = s.issue(Pipe::kMteIn, 10);
  Event load2_done = s.end_stage();

  EXPECT_EQ(comp.start, 10);
  EXPECT_EQ(load2.start, 10);  // overlaps the compute
  EXPECT_EQ(comp_done, 20);
  EXPECT_EQ(load2_done, 20);
  EXPECT_EQ(s.makespan(), 20);        // not the serial 30
  EXPECT_EQ(load1.start, 0);
}

TEST(PipeSchedule, StageRespectsDependencyEvent) {
  PipeScheduler s;
  s.begin_stage(Pipe::kMteIn, 0);
  s.issue(Pipe::kMteIn, 10);
  Event load_done = s.end_stage();

  // A stage whose dependency is later than its pipe's ready time waits.
  s.begin_stage(Pipe::kVector, load_done + 5);
  auto comp = s.issue(Pipe::kVector, 3);
  s.end_stage();
  EXPECT_EQ(comp.start, 15);
}

TEST(PipeSchedule, InStageOpsQueueInOrder) {
  PipeScheduler s;
  s.begin_stage(Pipe::kVector, 4);
  auto a = s.issue(Pipe::kMteIn, 2);  // natural pipe overridden by stage
  auto b = s.issue(Pipe::kVector, 3);
  Event done = s.end_stage();
  EXPECT_EQ(a.start, 4);
  EXPECT_EQ(b.start, 6);
  EXPECT_EQ(done, 9);
  EXPECT_EQ(s.busy(Pipe::kVector), 5);
  EXPECT_EQ(s.busy(Pipe::kMteIn), 0);
}

TEST(PipeSchedule, EmptyStageCompletesAtDependency) {
  PipeScheduler s;
  s.begin_stage(Pipe::kScu, 42);
  EXPECT_EQ(s.end_stage(), 42);
  EXPECT_EQ(s.makespan(), 0);  // nothing was charged
}

TEST(PipeSchedule, BarrierHoldsEveryPipe) {
  PipeScheduler s;
  s.begin_stage(Pipe::kMteIn, 0);
  s.issue(Pipe::kMteIn, 10);
  s.end_stage();
  auto bar = s.barrier(2);
  EXPECT_EQ(bar.start, 10);
  // After the barrier nothing may start before cycle 12, even with no
  // dependency.
  s.begin_stage(Pipe::kVector, 0);
  auto op = s.issue(Pipe::kVector, 1);
  s.end_stage();
  EXPECT_EQ(op.start, 12);
  EXPECT_EQ(s.busy(Pipe::kSync), 2);
}

TEST(PipeSchedule, SandwichBound) {
  // busiest unit busy <= makespan <= serial sum, on an arbitrary mix.
  PipeScheduler s;
  std::int64_t serial = 0;
  const Pipe pipes[] = {Pipe::kMteIn, Pipe::kVector, Pipe::kScu,
                        Pipe::kMteOut};
  Event dep = 0;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t cycles = 3 + (i % 5);
    s.begin_stage(pipes[i % 4], i % 3 == 0 ? dep : 0);
    s.issue(pipes[i % 4], cycles);
    dep = s.end_stage();
    serial += cycles;
  }
  EXPECT_LE(s.busiest_unit_busy(), s.makespan());
  EXPECT_LE(s.makespan(), serial);
}

TEST(PipeSchedule, BusiestUnitExcludesSync) {
  PipeScheduler s;
  s.barrier(100);
  s.issue(Pipe::kVector, 5);
  EXPECT_EQ(s.busiest_unit_busy(), 5);
}

TEST(PipeSchedule, TileMarksRecordAndReset) {
  PipeScheduler s;
  s.note_tile(10, +1);
  s.note_tile(25, -1);
  ASSERT_EQ(s.tile_marks().size(), 2u);
  EXPECT_EQ(s.tile_marks()[0].first, 10);
  EXPECT_EQ(s.tile_marks()[0].second, 1);
  EXPECT_EQ(s.tile_marks()[1].second, -1);
  s.reset();
  EXPECT_TRUE(s.tile_marks().empty());
  EXPECT_EQ(s.makespan(), 0);
  EXPECT_EQ(s.busiest_unit_busy(), 0);
}

TEST(PipeSchedule, ResetClearsReadyTimes) {
  PipeScheduler s;
  s.issue(Pipe::kVector, 9);
  s.reset();
  auto op = s.issue(Pipe::kMteIn, 1);
  EXPECT_EQ(op.start, 0);
}

TEST(PipeSchedule, OneLogRecordPerCall) {
  PipeScheduler s;
  s.issue(Pipe::kVector, 3, /*count=*/4, /*then=*/2);
  s.issue(Pipe::kVector, 0, /*count=*/3, /*then=*/1);
  s.issue(Pipe::kMteIn, 0);  // occupies nothing: not logged
  s.barrier(2);
  ASSERT_EQ(s.runs().size(), 3u);
  const std::vector<Logged> log = s.intervals();
  ASSERT_EQ(log.size(), 4u * 2 + 3 + 1);
  EXPECT_TRUE((log[0] == Logged{0, 3, Pipe::kVector, -1}));
  EXPECT_TRUE((log[1] == Logged{3, 5, Pipe::kVector, 0}));
  EXPECT_TRUE((log[8] == Logged{20, 21, Pipe::kVector, 7}));
  EXPECT_TRUE((log[11] == Logged{23, 25, Pipe::kSync, -1}));
}

TEST(PipeSchedule, LogCapCountsIntervals) {
  // The cap bounds the intervals the log expands to: a run that would
  // cross it truncates the log and is not logged, while the contact
  // points stay exact.
  constexpr int kCap = 1 << 18;
  PipeScheduler s;
  for (int i = 0; i + 1 < kCap; ++i) s.issue(Pipe::kVector, 1);
  ASSERT_FALSE(s.interval_log_truncated());
  s.issue(Pipe::kMteIn, 1, /*count=*/2);
  EXPECT_TRUE(s.interval_log_truncated());
  EXPECT_EQ(s.intervals().size(), static_cast<std::size_t>(kCap - 1));
  EXPECT_EQ(s.first_busy(Pipe::kMteIn), kCap - 1);
  EXPECT_EQ(s.last_busy(Pipe::kMteIn), s.makespan());
}

TEST(PipeSchedule, CriticalPathMatchesSortingOracle) {
  int ties = 0;  // intervals on different pipes ending on the same cycle
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    PipeScheduler s;
    random_schedule(s, seed, 5 + static_cast<int>(seed % 120));
    const std::vector<CritSegment> path = s.critical_path();
    expect_same_path(path, critical_path_oracle(s), seed);
    // The segments tile [0, makespan] exactly.
    std::int64_t at = 0;
    for (const CritSegment& seg : path) {
      EXPECT_EQ(seg.start, at) << "seed " << seed;
      EXPECT_GT(seg.length(), 0) << "seed " << seed;
      at = seg.end;
    }
    EXPECT_EQ(at, s.makespan()) << "seed " << seed;
    // Each run logs exactly the intervals of its single issues.
    PipeScheduler split;
    random_schedule(split, seed, 5 + static_cast<int>(seed % 120),
                    /*split=*/true);
    EXPECT_EQ(split.makespan(), s.makespan()) << "seed " << seed;
    const std::vector<Logged> log = s.intervals();
    EXPECT_TRUE(split.intervals() == log) << "seed " << seed;
    for (std::size_t i = 0; i < log.size(); ++i) {
      for (std::size_t j = i + 1; j < log.size(); ++j) {
        ties += log[i].end == log[j].end && log[i].pipe != log[j].pipe;
      }
    }
  }
  EXPECT_GT(ties, 0) << "the schedules never exercised the tie rule";
}

TEST(PipeSchedule, CriticalPathEmptyWhenLogTruncated) {
  PipeScheduler s;
  random_schedule(s, 7, 64);
  ASSERT_FALSE(s.critical_path().empty());
  for (int i = 0; !s.interval_log_truncated() && i < (1 << 20); ++i) {
    s.issue(static_cast<Pipe>(i % PipeScheduler::kNumPipes), 1);
  }
  ASSERT_TRUE(s.interval_log_truncated());
  EXPECT_TRUE(s.critical_path().empty());
  expect_same_path(s.critical_path(), critical_path_oracle(s), 7);
  // reset() clears the truncation; the next schedule has a path again.
  s.reset();
  random_schedule(s, 8, 64);
  ASSERT_FALSE(s.interval_log_truncated());
  expect_same_path(s.critical_path(), critical_path_oracle(s), 8);
  EXPECT_FALSE(s.critical_path().empty());
}

}  // namespace
}  // namespace davinci
