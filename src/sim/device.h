// The Ascend-910-like device: 32 AI Cores sharing global memory.
//
// The paper parallelizes pooling by splitting the outer loops (mainly C1)
// across AI Cores; each core computes a share of the output ("the outer
// loops are parallelized between the AI Cores available on the target
// device", Section IV-A). The simulator distributes tile blocks
// round-robin over the cores and executes them on a real thread pool --
// blocks must write disjoint regions of global memory, which all kernels
// in this repository guarantee by construction.
//
// The device-level time of a kernel is the *maximum* per-core cycle count
// (cores run concurrently) plus a per-core launch overhead. Per-core time
// is the makespan of the core's pipe-overlap schedule
// (sim/pipe_schedule.h), the core's only cycle count; for kernels that
// never open a stage it equals the schedule's serial(), which stays
// reported as device_cycles_serial.
//
// Execution: block b is accounted to simulated core (b mod num_cores),
// and each core runs its blocks from a FIFO queue seeded in increasing
// block order (BlockOrder). Which HOST THREAD runs a core's lane is a free
// variable -- the persistent work-stealing pool (sim/executor.h) or the
// calling thread when set_parallel(false) -- and never changes what the
// lane computes or charges, so outputs, cycles and per-core fault streams
// are identical either way.
//
// One scheduler runs every launch. A resilience policy (set_resilience)
// adds the RAS layer a production fleet needs on top: deterministic fault
// injection (sim/fault.h), bounded per-block retry, quarantine of
// hard-failed cores with round-robin redistribution of their remaining
// blocks (the one exception to the home-core rule, deterministic given
// the quarantine point), and optional redundant-execution verification of
// each block's global-memory stores. Blocks must be idempotent --
// recompute their output region from inputs rather than accumulate into
// it -- which every kernel here already satisfies (a retried block simply
// overwrites its region).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "sim/ai_core.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/stats.h"
#include "sim/vm/stream.h"

namespace davinci {

// The canonical block -> core accounting rule (see above): the lane of
// `core` starts with these blocks, in this order.
struct BlockOrder {
  // Invokes fn(block) for every block of `core`, in execution order.
  template <typename Fn>
  static void for_core(int core, std::int64_t num_blocks, int num_cores,
                       Fn&& fn) {
    for (std::int64_t b = core; b < num_blocks; b += num_cores) fn(b);
  }
};

class Device {
 public:
  explicit Device(ArchConfig arch = ArchConfig::ascend910(),
                  CostModel cost = CostModel::calibrated());

  int num_cores() const { return static_cast<int>(cores_.size()); }
  AiCore& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }
  const ArchConfig& arch() const { return arch_; }
  const CostModel& cost() const { return cost_; }

  struct RunResult {
    std::int64_t device_cycles = 0;       // max over used cores of the
                                          // modeled overlapped makespan
                                          // (== serial for unstaged code)
    std::int64_t device_cycles_serial = 0;  // max over used cores of
                                            // PipeScheduler::serial()
    std::int64_t busiest_unit_cycles = 0;  // max over used cores of the
                                           // busiest single unit's busy
                                           // time (sandwich lower bound)
    // Host wall-clock of the whole launch, split into attribution
    // buckets. Device::run fills host_execute_ns (the simulation itself);
    // the kernel drivers (kernels/) add their tiling-plan computation and
    // kernels::run_pool its output construction and input check, keeping
    // host_ns the exact bucket sum. Invariant
    // (asserted by tests, serialized in metrics schema v4):
    //   host_alloc_ns + host_plan_ns + host_validate_ns +
    //   host_execute_ns == host_ns.
    std::int64_t host_ns = 0;
    std::int64_t host_alloc_ns = 0;     // output-tensor construction
    std::int64_t host_plan_ns = 0;      // akg::plan_fwd / plan_bwd
    std::int64_t host_validate_ns = 0;  // kernels::check_inputs
    std::int64_t host_execute_ns = 0;   // inside Device::run
    CoreCounts aggregate;                 // sum over used cores
    Profile profile;                      // occupancy, merged over used cores
    int cores_used = 0;
    FaultStats faults;                    // all-zero without a policy
    // Per-pipe busy/wait/flag/idle buckets, each used core's makespan and
    // the critical core's bounding chain (sim/metrics.h);
    // attribution.horizon == device_cycles.
    DeviceAttribution attribution;
    // When a VmStream is attached (set_vm_stream), the launch's scheduled
    // span on the cross-launch stream timeline; vm_end == 0 means the
    // launch was not stream-placed.
    std::int64_t vm_start = 0;
    std::int64_t vm_end = 0;
  };

  using BlockFn = std::function<void(AiCore&, std::int64_t)>;

  // Executes blocks [0, num_blocks) with `fn(core, block_index)`, block b
  // on core (b mod num_cores). Scratch is reset before every block and
  // core stats are reset before the run. Traced cores record the run after
  // everything any core's trace already holds (one clock for all cores)
  // and tag its events with the run's launch ordinal.
  //
  // Without a resilience policy any exception is a failure of its block:
  // that core's lane stops, and a parallel run rethrows one Error naming
  // (core id, block index, message) for every failed core; a serial run
  // stops at the first failure and rethrows it as the same Error subclass
  // with "core C at block B" context.
  //
  // Under a policy (set_resilience):
  //  * the fault plan is armed on every core for the duration of the run;
  //  * a block whose execution throws a detected fault (TransientFault) is
  //    retried on the same core with fresh scratch;
  //  * a core that throws CoreFailed is quarantined and its unfinished
  //    blocks are redistributed round-robin over the healthy cores, so the
  //    run completes with fewer cores and honestly larger device_cycles;
  //  * with verify, each block's global-memory stores are checksummed on
  //    the MTE store path and the block re-executed until two executions
  //    agree (majority vote over attempts) -- silent corruption becomes a
  //    detected-and-retried fault;
  //  * every block has a bounded execution budget,
  //    (max_retries + 1) * (verify ? 2 : 1); exhausting it, or running out
  //    of healthy cores, throws RetryExhausted with the fault report in
  //    the message.
  // With an empty plan and verification off, the result (output bits,
  // per-core cycles, device_cycles) is identical to a run without a
  // policy. Fault injection is deterministic per core; see
  // docs/RESILIENCE.md for the replay guarantees.
  RunResult run(std::int64_t num_blocks, const BlockFn& fn);

  // Installs the resilience policy every subsequent run() (and therefore
  // every kernel executed on this device) runs under. This is how whole
  // pooling workloads, pipelines and serving sessions run under fault
  // injection without changing kernel code.
  void set_resilience(const ResilienceOptions& opts) { resilience_ = opts; }
  void clear_resilience() { resilience_.reset(); }
  const std::optional<ResilienceOptions>& resilience() const {
    return resilience_;
  }

  // Host execution of the core lanes: on (the default), the persistent
  // work-stealing pool runs them concurrently; off, the calling thread
  // runs them in core order (deterministic debugging). Outputs, cycles
  // and fault statistics are identical either way.
  void set_parallel(bool on) { parallel_ = on; }
  bool parallel() const { return parallel_; }

  // Ping-pong (double) buffering policy consulted by the tiled kernels:
  // on (the default), they plan two UB tile slots when the budget allows
  // and issue their tile loops as overlapping stages; off, they run the
  // strictly serial single-buffer schedule (device_cycles then equals
  // device_cycles_serial). Outputs are bit-identical either way.
  void set_double_buffer(bool on) { double_buffer_ = on; }
  bool double_buffer() const { return double_buffer_; }

  // --- Async instruction-stream VM (sim/vm/, docs/ASYNC_VM.md) ----------
  // With a stream attached, every completed launch's captured per-core
  // pipe timeline is enqueued on it: the stream schedules launches to
  // overlap across batch boundaries, so the *stream's* makespan models
  // the trace's device time while each RunResult keeps its own per-launch
  // makespan. Functional execution is untouched -- outputs are
  // bit-identical with and without a stream. The stream pointer and the
  // staged annotation are driven by a single launcher thread (the serving
  // worker); they are intentionally not synchronized.
  void set_vm_stream(vm::VmStream* stream) { vm_stream_ = stream; }
  vm::VmStream* vm_stream() const { return vm_stream_; }

  // Stages the next launch's identity for the stream: a display label and
  // the input buffers it reads (dependency tracking). Consumed by the
  // next collect_result; kernels::run_pool_maps stages this automatically
  // when a stream is attached.
  void annotate_vm_launch(std::string label, std::vector<vm::BufferId> reads) {
    vm_label_ = std::move(label);
    vm_reads_ = std::move(reads);
  }

 private:
  struct Sched;  // shared scheduling state of one run (device.cc)

  // Runs one block on core `c` (with retries / verification under a
  // policy). Returns false when the core's lane must stop: the core was
  // quarantined, the block failed, or the run was abandoned.
  bool run_block(int c, std::int64_t block, Sched& s, const BlockFn& fn);

  // Collects per-core results into a RunResult.
  RunResult collect_result(int cores_used);

  ArchConfig arch_;
  CostModel cost_;
  std::vector<std::unique_ptr<AiCore>> cores_;
  std::optional<ResilienceOptions> resilience_;
  bool double_buffer_ = true;
  bool parallel_ = true;
  vm::VmStream* vm_stream_ = nullptr;
  std::string vm_label_;
  std::vector<vm::BufferId> vm_reads_;
  std::int64_t vm_write_seq_ = 0;
  std::int64_t launches_ = 0;  // runs so far: the next trace ordinal
  // Lazily started on the first parallel run; workers persist for the
  // Device's lifetime (see sim/executor.h).
  WorkStealingPool pool_;
};

}  // namespace davinci
