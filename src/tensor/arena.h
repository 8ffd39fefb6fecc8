// Reusing arena for host tensor storage (the OneFlow tensor-pool
// pattern): freed tensor buffers park in a size-keyed free list and are
// handed back to the next acquire of a fitting size, instead of going
// through the system allocator -- and through a fresh zero-fill -- on
// every request.
//
// Why it exists: the serving hot path (serve::Session -> Cluster ->
// kernels::make_outputs) constructs the same few tensor geometries over and
// over -- the working set is exactly the plan cache's geometry keys -- so
// after the first wave of requests every buffer acquire is a reuse. The
// arena is deliberately content-agnostic: it pools raw byte capacity, and
// the geometry affinity falls out of the serving workload (equal
// geometry => equal byte size => same free-list bucket).
//
// Semantics:
//  * Tensor<T> (tensor/tensor.h) owns its buffer exactly as before --
//    deep copies, value semantics -- only the storage *source* changes.
//    Release happens in the Tensor destructor, so buffers recycle at
//    natural request boundaries.
//  * acquire() never returns previously-zeroed memory: callers that need
//    zero-fill (Tensor's default construction) memset themselves, and
//    callers that overwrite every element (the kernel outputs
//    kernels::make_outputs does not zero-fill) use Tensor's
//    kUninitialized mode and skip it.
//  * set_poison(true) scribbles 0xA5 over every acquired buffer -- a test
//    mode that makes any consumer silently relying on zero-fill fail
//    loudly (tests/test_arena.cc runs the kernels under it).
//
// Thread safety: all methods are safe to call concurrently (one mutex;
// the serving layer acquires on the worker thread and releases on
// whatever thread drops the last PoolResult copy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

namespace davinci {

class TensorArena {
 public:
  struct Stats {
    std::int64_t allocs = 0;    // acquires served by the system allocator
    std::int64_t reuses = 0;    // acquires served from the free list
    std::int64_t releases = 0;  // buffers parked in the free list
    std::int64_t discards = 0;  // buffers freed instead (pool full)
    std::int64_t pooled_buffers = 0;  // currently parked
    std::int64_t pooled_bytes = 0;    // capacity currently parked
    std::int64_t peak_pooled_bytes = 0;
  };

  // The process-wide arena every Tensor allocates through. Leaked on
  // purpose (never destroyed): tensors with static storage duration may
  // release after any arena destructor would have run.
  static TensorArena& global();

  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  // Returns a 64-byte-aligned buffer of at least `bytes` and stores its
  // true capacity in *capacity (pass it back to release). The contents
  // are unspecified -- stale bytes from the buffer's previous life, or
  // 0xA5 under poison mode. `bytes` == 0 still returns a real buffer.
  void* acquire(std::size_t bytes, std::size_t* capacity);

  // Returns a buffer obtained from acquire(). Pools it for reuse, or
  // frees it when the pooled-byte cap is reached.
  void release(void* p, std::size_t capacity) noexcept;

  // Test mode: scribble 0xA5 over every acquired buffer (see above).
  void set_poison(bool on);
  bool poison() const;

  // Frees every pooled buffer (keeps the poison switch).
  void trim();

  Stats stats() const;
  void reset_stats();

 private:
  void* allocate_raw(std::size_t bytes);

  mutable std::mutex mu_;
  bool poison_ = false;
  // capacity -> buffer; multimap so equal-size buffers (the common case:
  // repeated request geometries) all pool.
  std::multimap<std::size_t, void*> pool_;
  Stats stats_;
  // Pooled-byte cap: beyond it releases free instead of parking, so a
  // one-off huge geometry cannot pin memory forever.
  std::size_t max_pooled_bytes_ = std::size_t{256} << 20;
};

}  // namespace davinci
