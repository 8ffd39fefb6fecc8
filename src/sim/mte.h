// Memory Transfer Engine: explicit data movement between global memory and
// the scratch-pad buffers (arrows 1 -> 2, 1 -> 8, 8 -> 1, 2 -> 8 ... in
// Figure 4 of the paper). Transfers pay a startup latency plus a bandwidth
// term, and strided (2-D) transfers pay an extra per-burst cost -- which is
// what makes halo reloads and scattered stores visible in the cycle counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "arch/cost_model.h"
#include "common/check.h"
#include "common/float16.h"
#include "sim/fault.h"
#include "sim/pipe_schedule.h"
#include "sim/scratch.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace davinci {

class Mte {
 public:
  Mte(const CostModel& cost, CycleStats* stats, Profile* profile,
      Trace* trace = nullptr, PipeScheduler* sched = nullptr)
      : cost_(cost), stats_(stats), profile_(profile), trace_(trace),
        sched_(sched) {}

  // Attaches/detaches the core's fault stream (resilient runs only).
  void set_fault_state(CoreFaultState* fault) { fault_ = fault; }

  // Contiguous copy of `count` elements. Exactly the legal datapaths are
  // accepted (see allowed()).
  template <typename T>
  void copy(Span<T> dst, Span<T> src, std::int64_t count) {
    DV_CHECK(allowed(src.kind(), dst.kind()))
        << "no MTE path " << to_string(src.kind()) << " -> "
        << to_string(dst.kind());
    DV_CHECK_LE(count, src.size());
    DV_CHECK_LE(count, dst.size());
    const std::int64_t moved = fault_ ? fault_->admit_transfer(count) : count;
    // moved <= count <= both span sizes, so the bulk move is in bounds.
    std::memcpy(dst.data(), src.data(),
                static_cast<std::size_t>(moved) * sizeof(T));
    if (fault_) {
      fault_->on_landing(dst.kind(), reinterpret_cast<std::byte*>(dst.data()),
                         moved * static_cast<std::int64_t>(sizeof(T)));
      // The store-path CRC covers the *addressed* region as it now stands
      // plus the delivered length, so a truncated transfer hashes
      // differently from a complete one -- and from a truncation of a
      // different length, even when the region contents coincide (the
      // correct prefix grows monotonically across retries).
      if (dst.kind() == BufferKind::kGlobal && fault_->crc_enabled()) {
        fault_->crc_update(dst.data(),
                           count * static_cast<std::int64_t>(sizeof(T)));
        fault_->crc_note(static_cast<std::uint64_t>(moved));
      }
    }
    charge(src.kind(), dst.kind(), count * static_cast<std::int64_t>(sizeof(T)),
           /*bursts=*/1);
  }

  // 2-D strided copy: `rows` bursts of `row_elems` elements; operand
  // offsets advance by the respective stride between bursts.
  template <typename T>
  void copy_2d(Span<T> dst, std::int64_t dst_stride, Span<T> src,
               std::int64_t src_stride, std::int64_t rows,
               std::int64_t row_elems) {
    DV_CHECK(allowed(src.kind(), dst.kind()))
        << "no MTE path " << to_string(src.kind()) << " -> "
        << to_string(dst.kind());
    DV_CHECK_GE(rows, 0);
    DV_CHECK_GE(row_elems, 0);
    const std::int64_t total = rows * row_elems;
    const std::int64_t moved = fault_ ? fault_->admit_transfer(total) : total;
    if (moved > 0) {
      // One bounds check over the touched strided extent (exactly what the
      // per-element at() accesses enforced), then burst-wise memmove
      // (operands may overlap within one buffer).
      DV_CHECK_GE(dst_stride, 0);
      DV_CHECK_GE(src_stride, 0);
      const std::int64_t last = (moved - 1) / row_elems;
      const std::int64_t tail = moved - last * row_elems;
      std::int64_t dneed = last * dst_stride + tail;
      std::int64_t sneed = last * src_stride + tail;
      if (last >= 1) {
        dneed = std::max(dneed, (last - 1) * dst_stride + row_elems);
        sneed = std::max(sneed, (last - 1) * src_stride + row_elems);
      }
      DV_CHECK_LE(dneed, dst.size());
      DV_CHECK_LE(sneed, src.size());
      std::int64_t copied = 0;
      for (std::int64_t r = 0; r <= last; ++r) {
        const std::int64_t burst =
            std::min<std::int64_t>(row_elems, moved - copied);
        std::memmove(dst.data() + r * dst_stride, src.data() + r * src_stride,
                     static_cast<std::size_t>(burst) * sizeof(T));
        copied += burst;
      }
    }
    if (fault_) {
      if (rows > 0 && row_elems > 0) {
        const std::int64_t extent = (rows - 1) * dst_stride + row_elems;
        fault_->on_landing(dst.kind(),
                           reinterpret_cast<std::byte*>(dst.data()),
                           extent * static_cast<std::int64_t>(sizeof(T)));
      }
      if (dst.kind() == BufferKind::kGlobal && fault_->crc_enabled()) {
        for (std::int64_t r = 0; r < rows; ++r) {
          fault_->crc_update(dst.data() + r * dst_stride,
                             row_elems * static_cast<std::int64_t>(sizeof(T)));
        }
        fault_->crc_note(static_cast<std::uint64_t>(moved));
      }
    }
    charge(src.kind(), dst.kind(),
           rows * row_elems * static_cast<std::int64_t>(sizeof(T)), rows);
  }

  // L0C (fp32) -> UB (fp16) converting copy: models the vconv-on-the-way
  // path used to drain Cube results.
  void copy_convert(Span<Float16> dst, Span<float> src, std::int64_t count) {
    DV_CHECK(src.kind() == BufferKind::kL0C &&
             dst.kind() == BufferKind::kUnified)
        << "converting copy is L0C -> UB only";
    DV_CHECK_LE(count, src.size());
    DV_CHECK_LE(count, dst.size());
    const std::int64_t moved = fault_ ? fault_->admit_transfer(count) : count;
    for (std::int64_t i = 0; i < moved; ++i) dst.at(i) = Float16(src.at(i));
    if (fault_) {
      fault_->on_landing(dst.kind(), reinterpret_cast<std::byte*>(dst.data()),
                         moved * 2);
    }
    charge(src.kind(), dst.kind(), count * 4, /*bursts=*/1);
  }

  // Strided converting drain: `rows` bursts of `row_elems`, converting
  // fp32 -> fp16 in flight (gathering one fractal column of the L0C grid
  // per burst).
  void copy_convert_2d(Span<Float16> dst, std::int64_t dst_stride,
                       Span<float> src, std::int64_t src_stride,
                       std::int64_t rows, std::int64_t row_elems) {
    DV_CHECK(src.kind() == BufferKind::kL0C &&
             dst.kind() == BufferKind::kUnified)
        << "converting copy is L0C -> UB only";
    DV_CHECK_GE(rows, 0);
    const std::int64_t total = rows * row_elems;
    const std::int64_t moved = fault_ ? fault_->admit_transfer(total) : total;
    std::int64_t copied = 0;
    for (std::int64_t r = 0; r < rows && copied < moved; ++r) {
      for (std::int64_t i = 0; i < row_elems && copied < moved; ++i) {
        dst.at(r * dst_stride + i) = Float16(src.at(r * src_stride + i));
        ++copied;
      }
    }
    if (fault_ && rows > 0 && row_elems > 0) {
      const std::int64_t extent = (rows - 1) * dst_stride + row_elems;
      fault_->on_landing(dst.kind(), reinterpret_cast<std::byte*>(dst.data()),
                         extent * 2);
    }
    charge(src.kind(), dst.kind(), rows * row_elems * 4, rows);
  }

 private:
  static bool allowed(BufferKind src, BufferKind dst) {
    using B = BufferKind;
    // Paths in Figure 4: GM <-> L1, GM <-> UB, L1 -> UB (plain copy; the
    // transforming variant is the SCU's Im2Col), UB -> L1, L0C <-> UB,
    // L1 -> L0A/L0B (plain fractal load for Cube operands).
    if (src == B::kGlobal && (dst == B::kL1 || dst == B::kUnified))
      return true;
    if (dst == B::kGlobal && (src == B::kL1 || src == B::kUnified))
      return true;
    if (src == B::kL1 &&
        (dst == B::kUnified || dst == B::kL0A || dst == B::kL0B))
      return true;
    if (src == B::kUnified && dst == B::kL1) return true;
    if (src == B::kL0C && dst == B::kUnified) return true;
    if (src == B::kUnified && dst == B::kL0C) return true;
    return false;
  }

  // Route a transfer's bytes into the MemTraffic counter matching its
  // src/dst buffer pair (see allowed() for the legal paths).
  void route_bytes(BufferKind src, BufferKind dst, std::int64_t bytes) {
    using B = BufferKind;
    MemTraffic& t = stats_->traffic;
    if (src == B::kGlobal) {
      (dst == B::kL1 ? t.gm_to_l1 : t.gm_to_ub) += bytes;
    } else if (dst == B::kGlobal) {
      (src == B::kL1 ? t.l1_to_gm : t.ub_to_gm) += bytes;
    } else if (src == B::kL1) {
      (dst == B::kUnified ? t.l1_to_ub : t.l1_to_l0) += bytes;
    } else if (src == B::kUnified) {
      (dst == B::kL1 ? t.ub_to_l1 : t.ub_to_l0c) += bytes;
    } else if (src == B::kL0C) {
      t.l0c_to_ub += bytes;
    }
  }

  void charge(BufferKind src, BufferKind dst, std::int64_t bytes,
              std::int64_t bursts) {
    route_bytes(src, dst, bytes);
    const std::int64_t cycles = cost_.mte_copy(bytes, bursts);
    stats_->mte_cycles += cycles;
    // A transfer landing in global memory is an MTE-out (store) interval
    // on the overlap timeline; everything else feeds the compute side.
    std::int64_t start = -1;
    if (sched_) {
      const Pipe pipe =
          dst == BufferKind::kGlobal ? Pipe::kMteOut : Pipe::kMteIn;
      start = sched_->issue(pipe, cycles).start;
    }
    // Occupancy: payload bandwidth cycles vs charged cycles -- the
    // fraction of the transfer time not spent on startup latency or
    // per-burst (strided-row) overhead.
    const std::int64_t payload = ceil_div(bytes, cost_.mte_bytes_per_cycle);
    profile_->mte.instrs += 1;
    profile_->mte.slots_used += payload;
    profile_->mte.slots_capacity += cycles;
    if (trace_ && trace_->enabled()) {
      trace_->record(TraceKind::kMte,
                     std::string(to_string(src)) + "->" + to_string(dst) +
                         " bytes=" + std::to_string(bytes) +
                         " bursts=" + std::to_string(bursts),
                     cycles, payload, cycles, start);
    }
  }

  const CostModel& cost_;
  CycleStats* stats_;
  Profile* profile_;
  Trace* trace_;
  PipeScheduler* sched_ = nullptr;
  CoreFaultState* fault_ = nullptr;
};

}  // namespace davinci
