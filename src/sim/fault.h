// Deterministic fault injection for the simulated device (the subsystem a
// real accelerator fleet calls RAS: reliability, availability,
// serviceability).
//
// Production accelerators treat transient faults as routine: bit flips in
// the software-managed scratch-pads, dropped or truncated DMA transfers,
// corrupted SCU fractals, parity errors in a compute pipe, and whole
// cores that stop answering. The simulator models all of these as a
// *seeded, replayable* fault stream so resilient execution (Device::run
// under a set_resilience policy) can be exercised and regression-tested
// deterministically: the same FaultPlan and seed always produce the same
// fault sites and -- after retry/quarantine -- the same final output.
//
// Fault classes:
//   * silent corruption -- bit flips on data landing in UB/L1/L0, MTE
//     truncation, SCU fractal errors. Invisible to the core; only output
//     verification (the CRC the MTE computes on the store path) or a
//     reference comparison can reveal them.
//   * detected transients -- parity-style vector-unit faults. The core
//     observes them (TransientFault) and the block can be retried.
//   * hard core failure -- a targeted trigger after which a core throws
//     CoreFailed for every block; the scheduler must quarantine it.
//
// Each core owns one CoreFaultState: an independent PRNG stream (seeded
// from plan.seed and the core id) plus per-attempt bookkeeping. A core's
// stream is consumed in its own deterministic execution order, so replay
// does not depend on thread interleaving as long as the block-to-core
// assignment is deterministic (see docs/RESILIENCE.md for the one caveat:
// redistribution order when *several* cores fail concurrently).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "sim/scratch.h"

namespace davinci {

// Where a fault strikes. Rates are probabilities per site-specific event:
// per landed *byte* for the bit-flip sites, per transfer for kMteDrop,
// per SCU invocation for kScuFractal, per instruction for kVecTransient.
enum class FaultSite : std::uint8_t {
  kBitflipUb = 0,  // SEU in the Unified Buffer
  kBitflipL1,      // SEU in L1
  kBitflipL0,      // SEU in L0A/L0B/L0C
  kMteDrop,        // truncated DMA transfer (tail never arrives)
  kScuFractal,     // corrupted element in an im2col/col2im result
  kVecTransient,   // detected (parity) vector-unit fault
  kCoreFail,       // hard core failure (targeted trigger, not a rate)
};
inline constexpr int kNumFaultSites = 7;

const char* to_string(FaultSite site);

// "Core C fails hard for every block index >= from_block."
struct CoreFailTrigger {
  int core = -1;
  std::int64_t from_block = 0;
};

// A complete, serializable description of the faults to inject.
struct FaultPlan {
  std::uint64_t seed = 0;
  double rate[kNumFaultSites] = {};
  std::vector<CoreFailTrigger> core_failures;

  bool empty() const;
  // True if any enabled site corrupts data without the core noticing
  // (bit flips, MTE drops, SCU errors) -- the sites output verification
  // exists for.
  bool has_silent_sites() const;

  // Parses the CLI spec grammar (comma-separated):
  //   core_fail@C[@B]    hard-fail core C from block B (default 0)
  //   bitflip:ub:R       bit flip per byte landing in UB, rate R
  //   bitflip:l1:R       ... in L1
  //   bitflip:l0:R       ... in L0A/L0B/L0C
  //   mte_drop:R         truncated transfer, rate R per transfer
  //   scu_err:R          corrupted SCU result, rate R per invocation
  //   vec_fault:R        detected vector fault, rate R per instruction
  // Throws Error on malformed specs.
  static FaultPlan parse(const std::string& spec, std::uint64_t seed);

  std::string to_string() const;
};

// Counters surfaced next to the cycle counts in Device::RunResult.
struct FaultStats {
  std::int64_t faults_injected = 0;   // all faults, every class
  std::int64_t silent_injected = 0;   // subset: silent corruption
  std::int64_t faults_detected = 0;   // verification mismatches, transients,
                                      // core failures observed
  std::int64_t faults_absorbed = 0;   // silent faults present in an attempt
                                      // that was accepted unverified
  std::int64_t retries = 0;           // extra executions caused by faults
  std::int64_t verification_runs = 0; // redundant executions for CRC compare
  std::int64_t blocks_redispatched = 0;
  std::int64_t cores_quarantined = 0;

  FaultStats& operator+=(const FaultStats& o);
  std::string summary() const;
  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// A transient, *detected* fault (parity/ECC style): the instruction's
// results are untrustworthy but the core keeps working -- retry the block.
class TransientFault : public Error {
 public:
  using Error::Error;
};

// Hard core failure. The scheduler must quarantine the core; retrying on
// the same core is pointless.
class CoreFailed : public Error {
 public:
  CoreFailed(int core, const std::string& what) : Error(what), core_(core) {}
  int core() const { return core_; }

 private:
  int core_;
};

// A resilient run gave up: a block exhausted its attempt budget or no
// healthy core remains. what() carries the structured context (block,
// attempts, core) so callers and scripts can report it.
class RetryExhausted : public Error {
 public:
  using Error::Error;
};

// Per-core fault stream and per-execution bookkeeping. One instance per
// AiCore, attached for the duration of a resilient run; every method is
// called only from that core's worker thread. With an all-zero plan every
// hook is a no-op (no PRNG draws, no corruption), which is what makes the
// empty-plan resilient run bit- and cycle-identical to a run without a
// policy.
class CoreFaultState {
 public:
  CoreFaultState(const FaultPlan& plan, int core);

  int core() const { return core_; }
  FaultStats& stats() { return stats_; }

  // Marks the start of one execution (attempt) of `block`. Resets the
  // store-path CRC and the per-attempt silent-fault count.
  void begin_execution(std::int64_t block, bool record_crc);

  // Throws CoreFailed if a core-failure trigger covers (core, block).
  void check_core_alive(std::int64_t block);

  // The execution's output was accepted: silent faults it carried (if
  // any survived verification, or verification was off) are absorbed.
  void accept_execution();

  // --- hooks called by the functional units ---

  // MTE: how many of `count` elements the DMA actually delivers.
  // Less than `count` models a truncated transfer (stale tail).
  std::int64_t admit_transfer(std::int64_t count);

  // Data landed in a scratch buffer via an MTE transfer: may flip one bit
  // among `bytes` bytes, at the per-byte rate of the buffer's site. (SCU
  // writes are covered by on_scu_result instead, not by the bitflip
  // sites.)
  void on_landing(BufferKind dst, std::byte* data, std::int64_t bytes);

  // An SCU im2col/col2im invocation produced `bytes` bytes: may corrupt
  // one fp16 element (fractal error).
  void on_scu_result(std::byte* data, std::int64_t bytes);

  // The vec_fault draws of `issues` vector instructions issued in order
  // (an instruction run, sim/vector_unit.h): one draw per issue, stopping
  // at the first that fires, which counts as injected. Returns that
  // issue's index, or `issues` when none fires.
  std::int64_t vector_fault_at(std::int64_t issues);
  // The TransientFault of the vector instruction `op` a draw hit.
  [[noreturn]] void throw_vector_fault(const char* op) const;

  // --- store-path CRC (output-region verification) ---
  bool crc_enabled() const { return record_crc_; }
  void crc_update(const void* data, std::int64_t bytes);
  // Folds a scalar (e.g. the element count a DMA actually delivered) into
  // the CRC, so two truncated stores that leave identical region contents
  // still hash differently when their delivered lengths differ.
  void crc_note(std::uint64_t value);
  std::uint64_t crc() const { return crc_; }

  // Silent faults injected during the current execution.
  std::int64_t attempt_silent() const { return attempt_silent_; }

 private:
  // Bernoulli draw: fires with probability rate(site) * events, clamped
  // to 1. Zero-rate sites consume no PRNG state.
  bool fire(FaultSite site, double events);

  const FaultPlan* plan_;
  int core_;
  Xoshiro256 rng_;
  FaultStats stats_;
  std::int64_t block_ = -1;
  std::int64_t fail_from_block_ = -1;  // -1: no trigger for this core
  std::int64_t attempt_silent_ = 0;
  std::uint64_t crc_ = 0;
  bool record_crc_ = false;
};

// The resilience policy Device::run executes under (Device::set_resilience).
struct ResilienceOptions {
  FaultPlan plan;
  // Retry allowance per block. The execution budget is
  // (max_retries + 1) * (verify ? 2 : 1): each allowed attempt is one
  // execution, or a redundant pair under verification. 0 means a single
  // (verified) attempt -- any fault is fatal.
  int max_retries = 3;
  // Verify each block's global-memory stores by redundant execution: the
  // block is accepted once two executions (not necessarily consecutive --
  // a majority vote over the attempts seen so far) produce the same
  // store-path CRC. Turns silent corruption into detected-and-retried
  // faults, at the honest cost of one extra execution per block.
  bool verify = false;
};

}  // namespace davinci
