// Persistent work-stealing thread pool for Device::run.
//
// Device used to spawn one std::thread per used core on *every* run()
// call -- thousands of thread creations per bench sweep. The pool starts
// its workers once (lazily, on the first parallel run) and reuses them
// for every subsequent run of the owning Device.
//
// Tasks are *core lanes*, not blocks: task c executes every block of
// simulated core c, in increasing block order. Blocks of one core must
// stay on one host thread in order (the AiCore's scratch, stats and fault
// stream are that lane's serial state), so stealing happens at lane
// granularity -- an idle worker takes over a whole pending lane rather
// than individual blocks. Lanes are heterogeneous once H-tiling and edge
// tiles exist, which is exactly when the old static one-thread-per-lane
// spawn load-imbalanced on hosts with fewer hardware threads than lanes.
//
// Placement: the pool starts one worker per CPU in the starting thread's
// affinity mask, and pins worker w to the w-th of those CPUs (see
// docs/PIPELINING.md, "Host-side execution").
//
// Determinism: which worker runs a lane never changes *what* the lane
// computes or charges -- see the block-ordering invariant in
// sim/device.h.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace davinci {

class WorkStealingPool {
 public:
  WorkStealingPool() = default;
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  // Executes task(0) .. task(n - 1) on the pool and returns when all have
  // completed. Tasks are dealt round-robin to the workers' deques; a
  // worker drains its own deque front-to-back and steals from the back of
  // the fullest other deque when idle. `task` must not throw -- callers
  // wrap their work and record failures themselves (Device::run does).
  void run(int n, const std::function<void(int)>& task);

  // Workers the pool runs with: 0 before the first parallel run, then one
  // per CPU the first run()'s calling thread was allowed to use.
  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void ensure_started();
  void worker_main(std::size_t w);
  // Pops the next task for worker `w` (own front, else steal from the
  // fullest victim's back). Returns -1 when no task is available.
  int grab_task(std::size_t w);

  std::mutex m_;
  std::condition_variable work_cv_;  // workers: "a job arrived / shutdown"
  std::condition_variable done_cv_;  // run(): "all tasks finished"
  std::vector<std::thread> threads_;
  std::vector<std::deque<int>> queues_;  // one per worker
  const std::function<void(int)>* task_ = nullptr;
  int outstanding_ = 0;  // tasks dealt but not yet finished
  bool shutdown_ = false;
};

}  // namespace davinci
