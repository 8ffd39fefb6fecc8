// Scratch-pad memories of the AI Core (Section III-A).
//
// Unlike hardware-managed caches, DaVinci's private buffers are software-
// managed: each buffer is its own address space and the kernel explicitly
// allocates regions and moves data. The simulator models each buffer as a
// bump allocator over a byte array with hard capacity checks -- the
// "tiling threshold" experiments of Figure 8 depend on these capacities
// being enforced exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/float16.h"

namespace davinci {

// Which physical buffer a span points into; used to validate that each
// instruction's operands live where the datapath (Figure 4) requires.
enum class BufferKind : std::uint8_t {
  kGlobal,  // DDR/HBM/L2 (host memory)
  kL1,
  kL0A,
  kL0B,
  kL0C,
  kUnified,
};

inline const char* to_string(BufferKind k) {
  switch (k) {
    case BufferKind::kGlobal: return "GM";
    case BufferKind::kL1: return "L1";
    case BufferKind::kL0A: return "L0A";
    case BufferKind::kL0B: return "L0B";
    case BufferKind::kL0C: return "L0C";
    case BufferKind::kUnified: return "UB";
  }
  return "?";
}

// A bounds-checked typed view into one buffer. Element accesses in the
// simulator's functional execution go through at(), so any kernel bug that
// would read/write outside its allocation throws instead of corrupting
// neighbouring tiles.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(T* data, std::int64_t len, BufferKind kind)
      : data_(data), len_(len), kind_(kind) {}

  std::int64_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  BufferKind kind() const { return kind_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& at(std::int64_t i) {
    DV_CHECK(i >= 0 && i < len_)
        << to_string(kind_) << " span access " << i << " of " << len_;
    return data_[i];
  }
  const T& at(std::int64_t i) const {
    DV_CHECK(i >= 0 && i < len_)
        << to_string(kind_) << " span access " << i << " of " << len_;
    return data_[i];
  }

  Span sub(std::int64_t offset, std::int64_t len) const {
    DV_CHECK(offset >= 0 && len >= 0 && offset + len <= len_)
        << to_string(kind_) << " subspan [" << offset << ", " << offset + len
        << ") of " << len_;
    return Span(data_ + offset, len, kind_);
  }

  Span drop_front(std::int64_t n) const { return sub(n, len_ - n); }

 private:
  T* data_ = nullptr;
  std::int64_t len_ = 0;
  BufferKind kind_ = BufferKind::kGlobal;
};

// Wraps host memory (a tensor's storage) as a global-memory span.
template <typename T>
Span<T> gm_span(T* data, std::int64_t len) {
  return Span<T>(data, len, BufferKind::kGlobal);
}

namespace detail {

// `bytes` of zeros whose pages the OS materializes on first touch (an
// anonymous mapping; nullptr for 0 bytes), and its release. A guard page
// follows the last page: access past a capacity that is a whole number of
// pages (every on-chip buffer's) faults at once. Throws on a negative size
// or when the OS has no room.
std::byte* map_zero_pages(std::int64_t bytes);
void unmap_pages(std::byte* p, std::size_t bytes);

}  // namespace detail

class ScratchBuffer {
 public:
  // The buffer starts all-zero, but costs no memory until kernels touch
  // it: a device's cores hold 1.625 MB each, most of which a typical
  // launch never uses.
  ScratchBuffer(BufferKind kind, std::int64_t capacity_bytes)
      : kind_(kind),
        storage_(detail::map_zero_pages(capacity_bytes),
                 Unmap{static_cast<std::size_t>(capacity_bytes)}) {}

  // Which AI Core owns this buffer; -1 for free-standing buffers (tests).
  // Only used to make overflow diagnostics actionable on a 32-core run.
  void set_owner_core(int core) { owner_core_ = core; }
  int owner_core() const { return owner_core_; }

  BufferKind kind() const { return kind_; }
  std::int64_t capacity_bytes() const {
    return static_cast<std::int64_t>(storage_.get_deleter().bytes);
  }
  std::int64_t bytes_used() const { return offset_; }
  std::int64_t bytes_free() const { return capacity_bytes() - offset_; }
  std::int64_t high_water_bytes() const { return high_water_; }

  // Allocates `count` elements of T (32-byte aligned, the hardware's block
  // granularity). Throws on overflow -- a kernel that exceeds a buffer
  // capacity is a scheduling bug (the AKG layer must tile instead).
  template <typename T>
  Span<T> alloc(std::int64_t count) {
    DV_CHECK_GE(count, 0);
    const std::int64_t bytes = count * static_cast<std::int64_t>(sizeof(T));
    const std::int64_t aligned = (offset_ + 31) / 32 * 32;
    DV_CHECK_LE(aligned + bytes, capacity_bytes())
        << to_string(kind_) << " overflow on core " << owner_core_
        << ": requested " << bytes << " B at aligned offset " << aligned
        << ", available " << (capacity_bytes() - aligned) << " B of "
        << capacity_bytes() << " B capacity"
        << " (tile too large; adjust the tiling plan)";
    T* p = reinterpret_cast<T*>(storage_.get() + aligned);
    offset_ = aligned + bytes;
    if (offset_ > high_water_) high_water_ = offset_;
    return Span<T>(p, count, kind_);
  }

  // Frees everything (tile iteration boundary). Contents become stale;
  // kernels must re-initialize anything they read.
  void reset() { offset_ = 0; }
  void reset_high_water() { high_water_ = 0; }

  // Overwrites the whole buffer with `pattern`. Used by the resilient
  // scheduler between verified attempts of a block: without scrubbing, a
  // truncated reload is masked by the previous attempt's (identical)
  // stale data and redundant execution cannot detect it.
  void scrub(std::byte pattern) {
    std::fill_n(storage_.get(), capacity_bytes(), pattern);
  }

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(std::byte* p) const { detail::unmap_pages(p, bytes); }
  };

  BufferKind kind_;
  int owner_core_ = -1;
  std::unique_ptr<std::byte[], Unmap> storage_;
  std::int64_t offset_ = 0;
  std::int64_t high_water_ = 0;
};

}  // namespace davinci
