#include "sim/ai_core.h"

namespace davinci {

AiCore::AiCore(int id, const ArchConfig& arch, const CostModel& cost)
    : id_(id),
      arch_(arch),
      cost_(cost),
      l1_(BufferKind::kL1, arch.l1_bytes),
      l0a_(BufferKind::kL0A, arch.l0a_bytes),
      l0b_(BufferKind::kL0B, arch.l0b_bytes),
      l0c_(BufferKind::kL0C, arch.l0c_bytes),
      ub_(BufferKind::kUnified, arch.ub_bytes),
      vec_(arch_, cost_, &ledger_),
      mte_(cost_, &ledger_),
      scu_(arch_, cost_, &ledger_),
      cube_(arch_, cost_, &ledger_) {
  l1_.set_owner_core(id_);
  l0a_.set_owner_core(id_);
  l0b_.set_owner_core(id_);
  l0c_.set_owner_core(id_);
  ub_.set_owner_core(id_);
}

void AiCore::reset_scratch() {
  l1_.reset();
  l0a_.reset();
  l0b_.reset();
  l0c_.reset();
  ub_.reset();
}

void AiCore::scrub_scratch(std::byte pattern) {
  l1_.scrub(pattern);
  l0a_.scrub(pattern);
  l0b_.scrub(pattern);
  l0c_.scrub(pattern);
  ub_.scrub(pattern);
}

void AiCore::scalar_loop(std::int64_t iterations) {
  DV_CHECK_GE(iterations, 0);
  // Scalar control flow rides the Vector pipe on the overlap timeline:
  // on DaVinci the scalar unit issues the vector instructions.
  ledger_.sched.issue(Pipe::kVector, iterations * cost_.scalar_loop_cycles);
}

void AiCore::pipe_barrier() {
  const PipeScheduler::Interval iv =
      ledger_.sched.barrier(cost_.pipe_barrier_cycles);
  if (ledger_.trace.enabled()) {
    ledger_.trace.record(TraceKind::kBarrier, "pipe_barrier",
                         cost_.pipe_barrier_cycles, 0, 0, iv.start);
  }
}

void AiCore::begin_stage(Pipe pipe, PipeScheduler::Event after) {
  std::int64_t flag_cycles = 0;
  if (after > 0) {
    // The cross-pipe dependency costs one flag-wait, exactly what
    // pipe_barrier charges -- but it only delays this stage's pipe
    // instead of synchronizing all of them. The scheduler attributes up
    // to this many stall cycles to the flag bucket, and counts all of
    // them in its serial().
    after += cost_.pipe_barrier_cycles;
    flag_cycles = cost_.pipe_barrier_cycles;
  }
  ledger_.sched.begin_stage(pipe, after, flag_cycles);
}

PipeScheduler::Event AiCore::end_stage() { return ledger_.sched.end_stage(); }

void AiCore::launch(std::int64_t cycles) {
  ledger_.sched.issue(Pipe::kSync, cycles);
}

template <typename F>
std::int64_t AiCore::for_flat(std::int64_t n, F&& emit) {
  DV_CHECK_GE(n, 0);
  const std::int64_t lanes = arch_.vector_lanes;
  std::int64_t full_reps = n / lanes;
  const int tail = static_cast<int>(n % lanes);
  std::int64_t offset = 0;
  std::int64_t instrs = 0;
  while (full_reps > 0) {
    const int r = static_cast<int>(
        full_reps > arch_.max_repeat ? arch_.max_repeat : full_reps);
    emit(offset, r, VecMask::full());
    offset += static_cast<std::int64_t>(r) * lanes;
    full_reps -= r;
    ++instrs;
  }
  if (tail > 0) {
    emit(offset, 1, VecMask::first_n(tail));
    ++instrs;
  }
  if (instrs > 1) scalar_loop(instrs - 1);
  return instrs;
}

void AiCore::vbin_flat(VecOp op, Span<Float16> dst, Span<Float16> src0,
                       Span<Float16> src1, std::int64_t n) {
  for_flat(n, [&](std::int64_t off, int repeat, VecMask mask) {
    VecConfig cfg;
    cfg.mask = mask;
    cfg.repeat = repeat;
    vec_.binary(op, dst.drop_front(off), src0.drop_front(off),
                src1.drop_front(off), cfg);
  });
}

void AiCore::vdup_flat(Span<Float16> dst, Float16 value, std::int64_t n) {
  for_flat(n, [&](std::int64_t off, int repeat, VecMask mask) {
    VecConfig cfg;
    cfg.mask = mask;
    cfg.repeat = repeat;
    vec_.dup(dst.drop_front(off), value, cfg);
  });
}

void AiCore::vadds_flat(Span<Float16> dst, Span<Float16> src, Float16 s,
                        std::int64_t n) {
  for_flat(n, [&](std::int64_t off, int repeat, VecMask mask) {
    VecConfig cfg;
    cfg.mask = mask;
    cfg.repeat = repeat;
    vec_.adds(dst.drop_front(off), src.drop_front(off), s, cfg);
  });
}

void AiCore::vmuls_flat(Span<Float16> dst, Span<Float16> src, Float16 s,
                        std::int64_t n) {
  for_flat(n, [&](std::int64_t off, int repeat, VecMask mask) {
    VecConfig cfg;
    cfg.mask = mask;
    cfg.repeat = repeat;
    vec_.muls(dst.drop_front(off), src.drop_front(off), s, cfg);
  });
}

void AiCore::vcmpv_eq_flat(Span<Float16> dst, Span<Float16> src0,
                           Span<Float16> src1, std::int64_t n) {
  for_flat(n, [&](std::int64_t off, int repeat, VecMask mask) {
    VecConfig cfg;
    cfg.mask = mask;
    cfg.repeat = repeat;
    vec_.cmpv_eq(dst.drop_front(off), src0.drop_front(off),
                 src1.drop_front(off), cfg);
  });
}

}  // namespace davinci
