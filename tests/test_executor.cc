// Tests of the persistent work-stealing pool (sim/executor.h) and of the
// Device invariant it must preserve: host scheduling is a free variable,
// so parallel and serial runs produce identical outputs and accounting.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "sim/executor.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  WorkStealingPool pool;
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingPool, StartsLazilyAndPersists) {
  WorkStealingPool pool;
  EXPECT_EQ(pool.num_threads(), 0);
  std::atomic<int> count{0};
  pool.run(8, [&](int) { count++; });
  const int threads = pool.num_threads();
  EXPECT_GT(threads, 0);
  // Reuse: the worker count is stable across runs.
  pool.run(8, [&](int) { count++; });
  EXPECT_EQ(pool.num_threads(), threads);
  EXPECT_EQ(count.load(), 16);
}

TEST(WorkStealingPool, HandlesUnevenLaneDurations) {
  // Lanes with wildly different costs must all complete (stealing or not).
  WorkStealingPool pool;
  std::vector<std::atomic<std::int64_t>> sums(16);
  pool.run(16, [&](int i) {
    std::int64_t s = 0;
    const std::int64_t reps = (i % 4 == 0) ? 200000 : 100;
    for (std::int64_t k = 0; k < reps; ++k) s += k;
    sums[static_cast<std::size_t>(i)] = s;
  });
  for (int i = 0; i < 16; ++i) {
    const std::int64_t reps = (i % 4 == 0) ? 200000 : 100;
    EXPECT_EQ(sums[static_cast<std::size_t>(i)].load(),
              reps * (reps - 1) / 2);
  }
}

TEST(WorkStealingPool, MoreTasksThanWorkers) {
  WorkStealingPool pool;
  std::atomic<int> count{0};
  pool.run(1000, [&](int) { count++; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(WorkStealingPool, ZeroAndSingleTask) {
  WorkStealingPool pool;
  std::atomic<int> count{0};
  pool.run(0, [&](int) { count++; });
  EXPECT_EQ(count.load(), 0);
  pool.run(1, [&](int i) { count += i + 1; });
  EXPECT_EQ(count.load(), 1);
}

// Narrows the calling thread's affinity mask for the guard's lifetime.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& set) {
    ok_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) ==
              0 &&
          pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }
  ~ScopedAffinity() {
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

TEST(WorkStealingPool, SizedFromAffinityMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  WorkStealingPool pool;
  pool.run(1, [](int) {});
  EXPECT_EQ(pool.num_threads(), CPU_COUNT(&mask));
}

TEST(WorkStealingPool, WorkersPinnedToAllowedCpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  if (CPU_COUNT(&mask) < 2) GTEST_SKIP() << "fewer than two CPUs allowed";
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int c = 0, picked = 0; c < CPU_SETSIZE && picked < 2; ++c) {
    if (CPU_ISSET(c, &mask)) {
      CPU_SET(c, &two);
      ++picked;
    }
  }
  const ScopedAffinity narrowed(two);
  ASSERT_TRUE(narrowed.ok());

  // The pool starts from the narrowed thread, so it gets two workers.
  WorkStealingPool pool;
  std::atomic<int> arrived{0};
  std::vector<int> cpu(2, -1);
  pool.run(2, [&](int i) {
    // Each task waits for the other, so they occupy both workers at
    // once; pinned workers must then report two distinct CPUs.
    arrived++;
    while (arrived.load() < 2) std::this_thread::yield();
    cpu[static_cast<std::size_t>(i)] = sched_getcpu();
  });
  EXPECT_EQ(pool.num_threads(), 2);
  for (int c : cpu) EXPECT_TRUE(c >= 0 && CPU_ISSET(c, &two)) << "cpu " << c;
  EXPECT_NE(cpu[0], cpu[1]);
}

TEST(WorkStealingPool, DeviceKernelMatchesSerialHostExecution) {
  // The end the pool serves: identical outputs and cycle accounting
  // whether the lanes run on pool workers or on the calling thread. A
  // real kernel (tiled, double-buffered) exercises the heterogeneous-lane
  // case: block 0's core has more H-tiles than the rest.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 8, 64, 64, 301);
  const Window2d w = Window2d::pool(3, 2);
  auto par = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  dev.set_parallel(false);
  auto ser = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_EQ(par.run.device_cycles, ser.run.device_cycles);
  EXPECT_EQ(par.run.device_cycles_serial, ser.run.device_cycles_serial);
  testutil::expect_equal_f16(par.out, ser.out, "repeat run");
  testutil::expect_equal_f16(par.out, ref::maxpool_fwd(in, w), "reference");
}

}  // namespace
}  // namespace davinci
