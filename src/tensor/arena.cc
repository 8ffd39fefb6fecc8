#include "tensor/arena.h"

#include <cstring>
#include <new>

namespace davinci {

namespace {

constexpr std::size_t kAlign = 64;
// Capacities are rounded up so near-equal request sizes share a bucket.
constexpr std::size_t kGranule = 256;

std::size_t rounded_capacity(std::size_t bytes) {
  const std::size_t c = (bytes + kGranule - 1) / kGranule * kGranule;
  return c == 0 ? kGranule : c;
}

}  // namespace

TensorArena& TensorArena::global() {
  static TensorArena* arena = new TensorArena;  // leaked by design
  return *arena;
}

void* TensorArena::allocate_raw(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kAlign});
}

void* TensorArena::acquire(std::size_t bytes, std::size_t* capacity) {
  const std::size_t want = rounded_capacity(bytes);
  void* p = nullptr;
  bool poison = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    poison = poison_;
    // Best fit, but never hand out a buffer more than 2x the request:
    // parking a tiny tensor in a huge buffer would slowly bloat every
    // bucket's effective footprint.
    auto it = pool_.lower_bound(want);
    if (it != pool_.end() && it->first <= want * 2) {
      p = it->second;
      *capacity = it->first;
      stats_.reuses += 1;
      stats_.pooled_buffers -= 1;
      stats_.pooled_bytes -= static_cast<std::int64_t>(it->first);
      pool_.erase(it);
    }
    if (p == nullptr) stats_.allocs += 1;
  }
  if (p == nullptr) {
    p = allocate_raw(want);
    *capacity = want;
  }
  if (poison) std::memset(p, 0xA5, *capacity);
  return p;
}

void TensorArena::release(void* p, std::size_t capacity) noexcept {
  if (p == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.pooled_bytes + static_cast<std::int64_t>(capacity) <=
        static_cast<std::int64_t>(max_pooled_bytes_)) {
      pool_.emplace(capacity, p);
      stats_.releases += 1;
      stats_.pooled_buffers += 1;
      stats_.pooled_bytes += static_cast<std::int64_t>(capacity);
      if (stats_.pooled_bytes > stats_.peak_pooled_bytes) {
        stats_.peak_pooled_bytes = stats_.pooled_bytes;
      }
      return;
    }
    stats_.discards += 1;
  }
  ::operator delete(p, std::align_val_t{kAlign});
}

void TensorArena::set_poison(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  poison_ = on;
}

bool TensorArena::poison() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poison_;
}

void TensorArena::trim() {
  std::multimap<std::size_t, void*> drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drop.swap(pool_);
    stats_.pooled_buffers = 0;
    stats_.pooled_bytes = 0;
  }
  for (auto& [cap, p] : drop) {
    (void)cap;
    ::operator delete(p, std::align_val_t{kAlign});
  }
}

TensorArena::Stats TensorArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TensorArena::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t buffers = stats_.pooled_buffers;
  const std::int64_t bytes = stats_.pooled_bytes;
  stats_ = Stats{};
  stats_.pooled_buffers = buffers;
  stats_.pooled_bytes = bytes;
  stats_.peak_pooled_bytes = bytes;
}

}  // namespace davinci
