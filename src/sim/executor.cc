#include "sim/executor.h"

#include <pthread.h>
#include <sched.h>

#include "common/check.h"

namespace davinci {

namespace {

// The CPUs the calling thread may run on, in increasing order; empty when
// the affinity mask cannot be read.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Binds the calling thread to one CPU. A failure leaves the thread
// unpinned, which only costs placement, never correctness.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

}  // namespace

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::ensure_started() {
  if (!threads_.empty()) return;
  // One worker per CPU the process may use, pinned to it: with the
  // scheduler's load balancing off (a cpuset with sched_load_balance=0),
  // unpinned workers stay on the CPU they were created on, and all of
  // them can end up sharing one.
  const std::vector<int> cpus = allowed_cpus();
  std::size_t n = cpus.size();
  if (n == 0) {  // mask unreadable: size from the hardware, unpinned
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 4 : hw;  // the standard allows 0 = "unknown"
  }
  queues_.resize(n);
  threads_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    const int cpu = w < cpus.size() ? cpus[w] : -1;
    threads_.emplace_back([this, w, cpu] {
      if (cpu >= 0) pin_to(cpu);
      worker_main(w);
    });
  }
}

int WorkStealingPool::grab_task(std::size_t w) {
  // Own work first, front-to-back (lane order).
  if (!queues_[w].empty()) {
    const int t = queues_[w].front();
    queues_[w].pop_front();
    return t;
  }
  // Steal from the back of the fullest victim.
  std::size_t victim = queues_.size();
  std::size_t best = 0;
  for (std::size_t v = 0; v < queues_.size(); ++v) {
    if (v != w && queues_[v].size() > best) {
      best = queues_[v].size();
      victim = v;
    }
  }
  if (victim == queues_.size()) return -1;
  const int t = queues_[victim].back();
  queues_[victim].pop_back();
  return t;
}

void WorkStealingPool::worker_main(std::size_t w) {
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    work_cv_.wait(lk, [&] {
      if (shutdown_) return true;
      if (task_ == nullptr) return false;
      for (const auto& q : queues_) {
        if (!q.empty()) return true;
      }
      return false;
    });
    if (shutdown_) return;
    const int t = grab_task(w);
    if (t < 0) continue;  // another worker drained the queues first
    const std::function<void(int)>* fn = task_;
    lk.unlock();
    (*fn)(t);
    lk.lock();
    if (--outstanding_ == 0) done_cv_.notify_all();
  }
}

void WorkStealingPool::run(int n, const std::function<void(int)>& task) {
  DV_CHECK_GE(n, 0);
  if (n == 0) return;
  ensure_started();
  std::unique_lock<std::mutex> lk(m_);
  DV_CHECK(task_ == nullptr) << "WorkStealingPool::run is not reentrant";
  task_ = &task;
  outstanding_ = n;
  for (int t = 0; t < n; ++t) {
    queues_[static_cast<std::size_t>(t) % queues_.size()].push_back(t);
  }
  work_cv_.notify_all();
  done_cv_.wait(lk, [&] { return outstanding_ == 0; });
  task_ = nullptr;
}

}  // namespace davinci
