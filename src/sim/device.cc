#include "sim/device.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <string>

namespace davinci {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Rethrows a failed block's exception as the same Error subclass, its
// message prefixed with the "core C at block B" context and followed by
// `suffix` -- callers dispatch on the Error hierarchy.
[[noreturn]] void rethrow_in_context(const std::exception_ptr& error,
                                     int core, std::int64_t block,
                                     const std::string& suffix) {
  const std::string where = "core " + std::to_string(core) + " at block " +
                            std::to_string(block) + ": ";
  try {
    std::rethrow_exception(error);
  } catch (const TransientFault& e) {
    throw TransientFault(where + e.what() + suffix);
  } catch (const CoreFailed& e) {
    throw CoreFailed(e.core(), where + e.what() + suffix);
  } catch (const RetryExhausted& e) {
    throw RetryExhausted(where + e.what() + suffix);
  } catch (const std::exception& e) {
    throw Error(where + e.what() + suffix);
  } catch (...) {
    throw Error(where + "unknown exception" + suffix);
  }
}

}  // namespace

Device::Device(ArchConfig arch, CostModel cost)
    : arch_(arch), cost_(cost) {
  DV_CHECK_GE(arch_.num_cores, 1);
  cores_.reserve(static_cast<std::size_t>(arch_.num_cores));
  for (int i = 0; i < arch_.num_cores; ++i) {
    cores_.push_back(std::make_unique<AiCore>(i, arch_, cost_));
  }
}

// Shared state of one run. Guarded by `m`; a core's fault stream is
// touched only by the lane running that core.
struct Device::Sched {
  const ResilienceOptions* policy = nullptr;  // null: fault-free run
  std::mutex m;
  std::vector<std::deque<std::int64_t>> queue;  // per core lane, FIFO
  std::vector<char> quarantined;                // per core lane
  std::vector<int> execs;                       // per block, under a policy
  int rr = 0;  // round-robin cursor for redistribution
  // Non-empty once the policy gave up (retry budget or healthy cores
  // exhausted): every lane stops and the run throws RetryExhausted.
  std::string exhausted;
  struct Failure {
    int core;
    std::int64_t block;
    std::exception_ptr error;
  };
  std::vector<Failure> failures;  // blocks that failed outright
  std::vector<std::unique_ptr<CoreFaultState>> faults;  // per core
  FaultStats run_stats;  // quarantine / redispatch counters

  // Pops core c's next block; -1 when its lane must stop.
  std::int64_t next(int c) {
    std::lock_guard<std::mutex> lk(m);
    auto& q = queue[static_cast<std::size_t>(c)];
    if (!exhausted.empty() || quarantined[static_cast<std::size_t>(c)] ||
        q.empty()) {
      return -1;
    }
    const std::int64_t b = q.front();
    q.pop_front();
    return b;
  }

  void fail(int c, std::int64_t block, std::exception_ptr error) {
    std::lock_guard<std::mutex> lk(m);
    failures.push_back({c, block, std::move(error)});
  }
};

bool Device::run_block(int c, std::int64_t block, Sched& s,
                       const BlockFn& fn) {
  AiCore& core = *cores_[static_cast<std::size_t>(c)];
  if (s.policy == nullptr) {
    core.reset_scratch();
    try {
      fn(core, block);
    } catch (...) {
      s.fail(c, block, std::current_exception());
      return false;
    }
    return true;
  }

  const ResilienceOptions& opts = *s.policy;
  CoreFaultState& st = *s.faults[static_cast<std::size_t>(c)];
  // Budget: each of the (max_retries + 1) allowed attempts is one
  // execution, or a redundant pair under verification.
  const int exec_budget = (opts.max_retries + 1) * (opts.verify ? 2 : 1);
  // CRCs of completed executions of this block; the block is accepted as
  // soon as two of them agree (majority vote over attempts).
  std::vector<std::uint64_t> seen_crcs;

  while (true) {
    int exec_no = 0;
    {
      std::lock_guard<std::mutex> lk(s.m);
      if (!s.exhausted.empty()) return false;
      int& execs = s.execs[static_cast<std::size_t>(block)];
      if (execs >= exec_budget) {
        s.exhausted = "retry budget exhausted: block " +
                      std::to_string(block) + " still unverified after " +
                      std::to_string(execs) + " execution(s) (max_retries=" +
                      std::to_string(opts.max_retries) + ", last core " +
                      std::to_string(c) + ")";
        return false;
      }
      exec_no = ++execs;
    }
    if (!seen_crcs.empty()) st.stats().verification_runs += 1;

    try {
      if (opts.verify) {
        // Scrub with an attempt-varying pattern: otherwise a truncated
        // reload is masked by the previous attempt's identical stale data
        // and two faulty executions can agree on the same wrong output.
        core.scrub_scratch(
            static_cast<std::byte>(0xA5u ^ static_cast<unsigned>(exec_no * 17)));
      }
      core.reset_scratch();
      st.begin_execution(block, opts.verify);
      st.check_core_alive(block);
      fn(core, block);
    } catch (const CoreFailed&) {
      // Hard failure: quarantine this core and hand the current block plus
      // everything left in its queue to the healthy cores, round-robin in
      // block order (deterministic given the quarantine point). A lane
      // that already drained its queue picks them up in the next round.
      core.sched().abandon_stage();
      st.stats().faults_detected += 1;
      std::lock_guard<std::mutex> lk(s.m);
      s.run_stats.cores_quarantined += 1;
      s.quarantined[static_cast<std::size_t>(c)] = 1;
      std::deque<std::int64_t> moved;
      moved.swap(s.queue[static_cast<std::size_t>(c)]);
      moved.push_front(block);
      const int lanes = static_cast<int>(s.queue.size());
      for (std::int64_t x : moved) {
        int target = -1;
        for (int tries = 0; tries < lanes && target < 0; ++tries) {
          const int cand = s.rr;
          s.rr = (s.rr + 1) % lanes;
          if (!s.quarantined[static_cast<std::size_t>(cand)]) target = cand;
        }
        if (target < 0) {
          // No lane is running a block any more, so every unfinished
          // block sits in `moved`.
          s.exhausted = "all " + std::to_string(lanes) +
                        " core(s) quarantined with " +
                        std::to_string(moved.size()) +
                        " block(s) unfinished";
          break;
        }
        s.queue[static_cast<std::size_t>(target)].push_back(x);
        s.run_stats.blocks_redispatched += 1;
      }
      return false;
    } catch (const TransientFault&) {
      // Detected transient: same core retries with fresh scratch. The
      // aborted execution contributes no CRC vote.
      core.sched().abandon_stage();
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
      continue;
    } catch (...) {
      // A genuine kernel/scheduling error, not an injected fault:
      // retrying cannot help.
      s.fail(c, block, std::current_exception());
      return false;
    }

    if (!opts.verify) {
      st.accept_execution();
      return true;
    }
    const std::uint64_t crc = st.crc();
    if (std::find(seen_crcs.begin(), seen_crcs.end(), crc) !=
        seen_crcs.end()) {
      st.accept_execution();
      return true;
    }
    if (!seen_crcs.empty()) {
      // Executions disagree: at least one was silently corrupted.
      st.stats().faults_detected += 1;
      st.stats().retries += 1;
    }
    seen_crcs.push_back(crc);
  }
}

Device::RunResult Device::run(std::int64_t num_blocks, const BlockFn& fn) {
  DV_CHECK_GE(num_blocks, 0);
  const std::int64_t t0 = now_ns();
  const int cores_used =
      static_cast<int>(std::min<std::int64_t>(num_blocks, num_cores()));
  const bool serial = !parallel_ || cores_used <= 1;

  Sched s;
  s.queue.resize(static_cast<std::size_t>(cores_used));
  s.quarantined.assign(static_cast<std::size_t>(cores_used), 0);
  for (int c = 0; c < cores_used; ++c) {
    BlockOrder::for_core(c, num_blocks, num_cores(), [&](std::int64_t b) {
      s.queue[static_cast<std::size_t>(c)].push_back(b);
    });
  }

  // Under a policy, arm one deterministic fault stream per core; detach
  // on every exit path so a later fault-free run pays zero overhead.
  struct Disarm {
    Device* dev;
    ~Disarm() {
      for (auto& core : dev->cores_) core->set_fault_state(nullptr);
    }
  } disarm{this};
  if (resilience_) {
    const ResilienceOptions& opts = *resilience_;
    DV_CHECK_GE(opts.max_retries, 0);
    for (const CoreFailTrigger& t : opts.plan.core_failures) {
      DV_CHECK(t.core >= 0 && t.core < num_cores())
          << "core_fail trigger targets core " << t.core
          << " but the device has " << num_cores() << " cores";
    }
    s.policy = &opts;
    s.execs.assign(static_cast<std::size_t>(num_blocks), 0);
    for (int c = 0; c < num_cores(); ++c) {
      s.faults.push_back(std::make_unique<CoreFaultState>(opts.plan, c));
      cores_[static_cast<std::size_t>(c)]->set_fault_state(
          s.faults.back().get());
    }
  }

  // Every trace resumes where the furthest one ends, so traced launches
  // run back to back on one clock.
  std::int64_t trace_origin = 0;
  for (const auto& core : cores_) {
    trace_origin = std::max(trace_origin, core->trace().end());
  }
  for (const auto& core : cores_) {
    core->reset_stats();
    core->trace().begin_launch(launches_, trace_origin);
  }
  ++launches_;
  // Each used core pays its launch overhead once, however many rounds
  // its lane takes.
  for (int c = 0; c < cores_used; ++c) {
    cores_[static_cast<std::size_t>(c)]->launch(cost_.core_launch_cycles);
  }

  // A lane drains its core's queue and returns; it never waits for
  // redistributed blocks (pool workers are far fewer than lanes). Blocks
  // that reach a lane after it returned run in a further round, so a
  // fault-free run takes exactly one.
  std::vector<int> ready(static_cast<std::size_t>(cores_used));
  for (int c = 0; c < cores_used; ++c) ready[static_cast<std::size_t>(c)] = c;
  auto lane = [&](int c) {
    for (std::int64_t b = s.next(c); b >= 0; b = s.next(c)) {
      if (!run_block(c, b, s, fn)) return;
    }
  };
  const std::function<void(int)> task = [&](int i) {
    lane(ready[static_cast<std::size_t>(i)]);
  };
  while (!ready.empty()) {
    if (serial) {
      for (int c : ready) {
        lane(c);
        if (!s.failures.empty()) break;  // serial: first failure wins
      }
    } else {
      pool_.run(static_cast<int>(ready.size()), task);
    }
    if (!s.failures.empty() || !s.exhausted.empty()) break;
    ready.clear();
    for (int c = 0; c < cores_used; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (!s.quarantined[i] && !s.queue[i].empty()) ready.push_back(c);
    }
  }

  FaultStats total = s.run_stats;
  for (const auto& st : s.faults) total += st->stats();
  const std::string fault_report =
      s.policy == nullptr ? std::string()
                          : " | fault stats: " + total.summary() +
                                " | plan: " + s.policy->plan.to_string();
  if (!s.exhausted.empty()) throw RetryExhausted(s.exhausted + fault_report);
  if (!s.failures.empty()) {
    if (serial) {
      const Sched::Failure& f = s.failures.front();
      rethrow_in_context(f.error, f.core, f.block, fault_report);
    }
    // Every failed core is reported, not just the first: a multi-core
    // failure (e.g. a tiling bug that overflows UB on all 32 cores at
    // once) comes with per-core context instead of one arbitrary winner.
    std::sort(s.failures.begin(), s.failures.end(),
              [](const Sched::Failure& a, const Sched::Failure& b) {
                return a.core < b.core;
              });
    std::ostringstream os;
    os << s.failures.size() << " core(s) failed during Device::run:";
    for (const Sched::Failure& f : s.failures) {
      os << "\n  core " << f.core << " at block " << f.block << ": ";
      try {
        std::rethrow_exception(f.error);
      } catch (const std::exception& e) {
        os << e.what();
      } catch (...) {
        os << "unknown exception";
      }
    }
    throw Error(os.str() + fault_report);
  }

  RunResult result = collect_result(cores_used);
  result.faults = total;
  result.host_ns = now_ns() - t0;
  result.host_execute_ns = result.host_ns;
  return result;
}

Device::RunResult Device::collect_result(int cores_used) {
  RunResult result;
  result.cores_used = cores_used;
  std::vector<const PipeScheduler*> scheds;
  scheds.reserve(static_cast<std::size_t>(cores_used));
  for (int c = 0; c < cores_used; ++c) {
    const AiCore& core = *cores_[static_cast<std::size_t>(c)];
    const PipeScheduler& sched = core.sched();
    result.aggregate += core.counts();
    result.profile += core.profile();
    result.device_cycles = std::max(result.device_cycles, sched.makespan());
    result.device_cycles_serial =
        std::max(result.device_cycles_serial, sched.serial());
    result.busiest_unit_cycles =
        std::max(result.busiest_unit_cycles, sched.busiest_unit_busy());
    scheds.push_back(&sched);
  }
  result.attribution = attribute_cores(scheds);

  // Hand the captured launch timeline to the attached instruction-stream
  // VM: the stream shifts the whole launch onto its cross-launch tracks
  // and returns the scheduled start. Writes get a fresh tagged id per
  // launch -- serving outputs are never re-read by a later launch, and a
  // recycled arena address must not alias a retired buffer.
  if (vm_stream_ != nullptr) {
    vm::VmLaunch launch;
    launch.label = std::move(vm_label_);
    vm_label_.clear();
    launch.reads = std::move(vm_reads_);
    vm_reads_.clear();
    launch.writes.push_back(
        (std::uint64_t{1} << 63) +
        static_cast<std::uint64_t>(vm_write_seq_++));
    launch.makespan = result.device_cycles;
    const bool capture = vm_stream_->options().capture;
    launch.cores.reserve(static_cast<std::size_t>(cores_used));
    for (int c = 0; c < cores_used; ++c) {
      const PipeScheduler& sched = cores_[static_cast<std::size_t>(c)]->sched();
      vm::CoreWork cw;
      cw.core = c;
      cw.makespan = sched.makespan();
      for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
        const Pipe p = static_cast<Pipe>(pi);
        cw.pipes[pi] = {sched.busy(p), sched.flag(p), sched.first_busy(p),
                        sched.last_busy(p)};
      }
      if (capture) {
        cw.intervals = sched.intervals();
        cw.tile_marks = sched.tile_marks();
      }
      launch.cores.push_back(std::move(cw));
    }
    result.vm_start = vm_stream_->enqueue(std::move(launch));
    result.vm_end = result.vm_start + result.device_cycles;
  }
  return result;
}

}  // namespace davinci
