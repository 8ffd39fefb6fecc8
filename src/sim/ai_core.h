// One DaVinci AI Core (Figure 4): Cube, Vector and Scalar units, the SCU,
// and the private scratch-pad buffers, with one Ledger (sim/ledger.h)
// that every unit books its charges in: the pipe timeline (the core's
// only cycle count), the occupancy profile, the byte and Cube-MAC counts,
// the optional instruction trace and the fault stream.
//
// Kernels (src/kernels/) are written against this class the way CCE-C
// kernels are written against the hardware ISA: explicit buffer
// allocation, explicit MTE transfers, explicit instruction issue. The
// composite v*_flat helpers model the scalar loop AKG emits around vector
// instructions when a tile needs more than `max_repeat` repeats.
#pragma once

#include <cstdint>
#include <memory>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/float16.h"
#include "sim/cube_unit.h"
#include "sim/ledger.h"
#include "sim/mte.h"
#include "sim/scratch.h"
#include "sim/scu.h"
#include "sim/vector_unit.h"

namespace davinci {

class AiCore {
 public:
  AiCore(int id, const ArchConfig& arch, const CostModel& cost);

  AiCore(const AiCore&) = delete;
  AiCore& operator=(const AiCore&) = delete;

  int id() const { return id_; }
  const ArchConfig& arch() const { return arch_; }
  const CostModel& cost() const { return cost_; }
  // Per-instruction occupancy counters (always recorded; see sim/stats.h).
  const Profile& profile() const { return ledger_.profile; }
  // Bytes moved and Cube MACs issued since the last reset_stats().
  const CoreCounts& counts() const { return ledger_.counts; }

  ScratchBuffer& l1() { return l1_; }
  ScratchBuffer& l0a() { return l0a_; }
  ScratchBuffer& l0b() { return l0b_; }
  ScratchBuffer& l0c() { return l0c_; }
  ScratchBuffer& ub() { return ub_; }

  VectorUnit& vec() { return vec_; }
  Mte& mte() { return mte_; }
  Scu& scu() { return scu_; }
  CubeUnit& cube() { return cube_; }

  // Optional instruction trace (disabled by default; see sim/trace.h).
  // reset_stats() leaves it alone, so it accumulates across launches.
  Trace& trace() { return ledger_.trace; }

  // Pipe-overlap timeline of this core (see sim/pipe_schedule.h): the
  // core's only cycle count. Every charged cost is placed on it; kernels
  // that never open a stage keep a makespan equal to its serial().
  PipeScheduler& sched() { return ledger_.sched; }
  const PipeScheduler& sched() const { return ledger_.sched; }

  // Opens a pipelined stage on `pipe`: until end_stage(), every cost this
  // core charges queues on that pipe in issue order, starting no earlier
  // than `after` (a completion event returned by a previous end_stage; 0 =
  // no dependency). Combine multiple dependencies with std::max. A nonzero
  // dependency charges one pipe_barrier_cycles flag-wait, the
  // set_flag/wait_flag pair a CCE kernel issues at that point.
  void begin_stage(Pipe pipe, PipeScheduler::Event after = 0);
  // Closes the stage and returns its completion event.
  PipeScheduler::Event end_stage();

  // Marks a ping-pong tile entering (+1, at its load's completion) or
  // leaving (-1, at its store's completion) flight, on the timeline and
  // in the trace.
  void note_tile(PipeScheduler::Event cycle, int delta) {
    ledger_.sched.note_tile(cycle, delta);
    ledger_.trace.mark_tile(cycle, delta);
  }

  // Charges the per-core kernel-launch overhead (called by Device at the
  // start of a run; on the Sync row of the overlap timeline).
  void launch(std::int64_t cycles);

  // Frees every scratch allocation (tile-iteration boundary).
  void reset_scratch();
  // Overwrites every scratch buffer with `pattern` (see
  // ScratchBuffer::scrub); a host-side simulation step, charges no cycles.
  void scrub_scratch(std::byte pattern);
  // Zeroes the timeline and every count; the trace keeps its events.
  void reset_stats() { ledger_.reset(); }

  // Attaches (or detaches, with nullptr) a fault-injection stream to this
  // core's units. Owned by Device::run under a resilience policy; a core
  // with no stream attached pays zero overhead.
  void set_fault_state(CoreFaultState* fault) { ledger_.fault = fault; }

  // Charges the Scalar Unit for `iterations` loop iterations of control
  // flow / address arithmetic around other instructions.
  void scalar_loop(std::int64_t iterations);

  // Synchronization between dependent instructions on different pipes.
  void pipe_barrier();

  // --- Composite flat helpers over `n` contiguous UB elements ---
  // Each splits the operation into ceil(n / (128 * max_repeat)) full
  // instructions plus a masked tail, charging a scalar-loop iteration per
  // reissue after the first (the loop the repeat parameter cannot absorb).
  void vbin_flat(VecOp op, Span<Float16> dst, Span<Float16> src0,
                 Span<Float16> src1, std::int64_t n);
  void vdup_flat(Span<Float16> dst, Float16 value, std::int64_t n);
  void vadds_flat(Span<Float16> dst, Span<Float16> src, Float16 s,
                  std::int64_t n);
  void vmuls_flat(Span<Float16> dst, Span<Float16> src, Float16 s,
                  std::int64_t n);
  void vcmpv_eq_flat(Span<Float16> dst, Span<Float16> src0,
                     Span<Float16> src1, std::int64_t n);

 private:
  // Calls emit(element_offset, repeat, mask) for each instruction needed
  // to cover n contiguous elements; returns instructions issued.
  template <typename F>
  std::int64_t for_flat(std::int64_t n, F&& emit);

  int id_;
  ArchConfig arch_;
  CostModel cost_;
  Ledger ledger_;

  ScratchBuffer l1_;
  ScratchBuffer l0a_;
  ScratchBuffer l0b_;
  ScratchBuffer l0c_;
  ScratchBuffer ub_;

  VectorUnit vec_;
  Mte mte_;
  Scu scu_;
  CubeUnit cube_;
};

}  // namespace davinci
