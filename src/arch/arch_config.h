// Architectural constants of the simulated DaVinci AI Core (Section III of
// the paper; capacities follow the published Ascend 910 "DaVinci Max"
// configuration).
//
// The AI Core has three compute units (Cube, Vector, Scalar), five private
// scratch-pad buffers (L1, L0A, L0B, L0C, Unified Buffer) and a Storage
// Conversion Unit (SCU) that performs layout transformations -- including
// Im2Col and Col2Im -- while data moves between buffers. All shared
// memories (DDR/HBM/L2) are modeled as one "global memory".
#pragma once

#include <cstdint>

namespace davinci {

struct ArchConfig {
  // --- Scratch-pad capacities (bytes) ---
  std::int64_t l1_bytes = 1 * 1024 * 1024;   // input buffer feeding the SCU
  std::int64_t l0a_bytes = 64 * 1024;        // Cube left-operand buffer
  std::int64_t l0b_bytes = 64 * 1024;        // Cube right-operand buffer
  std::int64_t l0c_bytes = 256 * 1024;       // Cube output buffer (fp32)
  std::int64_t ub_bytes = 256 * 1024;        // Unified Buffer (Vector/Scalar)

  // --- Vector Unit ---
  // One vector instruction iteration processes up to 128 fp16 lanes; the
  // 128-bit mask register gates lanes individually (Section III-A).
  int vector_lanes = 128;
  // Maximum value of the hardware repeat parameter; larger tiles need the
  // surrounding (scalar) loop to reissue the instruction.
  int max_repeat = 255;

  // --- Device ---
  int num_cores = 32;  // Ascend 910 has 32 AI Cores

  static ArchConfig ascend910() { return ArchConfig{}; }

  // An Ascend-310-like edge configuration ("DaVinci edge chips also
  // feature Im2Col instructions", Section VII): 2 AI Cores and the same
  // per-core buffer organization. Used by the A6 ablation to check the
  // paper's conclusions on an inference-class device.
  static ArchConfig ascend310() {
    ArchConfig a;
    a.num_cores = 2;
    return a;
  }
};

}  // namespace davinci
