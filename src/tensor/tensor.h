// Dense row-major host tensor. Used both as "global memory" contents for
// the simulator (DDR/HBM in Figure 4 of the paper) and as the container
// for reference-implementation results.
//
// Storage comes from the process-wide TensorArena (tensor/arena.h): the
// destructor parks the buffer for reuse instead of freeing it, so the
// serving hot path recycles buffers across requests of the same geometry.
// Value semantics are unchanged -- copies are deep, moves steal the
// buffer. Construction offers three modes:
//
//   Tensor(shape)                 zero-filled (as always)
//   Tensor(shape, fill_value)     filled with fill_value
//   Tensor(shape, kUninitialized) storage only -- for outputs every
//                                 element of which is overwritten before
//                                 any read (the kernel outputs
//                                 kernels::make_outputs does not
//                                 zero-fill).
//                                 Contents start as whatever the arena
//                                 hands back; TensorArena poison mode
//                                 exists to flush out misuse.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/float16.h"
#include "common/prng.h"
#include "tensor/arena.h"
#include "tensor/shape.h"

namespace davinci {

// Tag selecting the uninitialized construction mode.
struct Uninitialized {};
inline constexpr Uninitialized kUninitialized{};

template <typename T>
class Tensor {
  // The arena deals in raw bytes (memcpy copies, no per-element
  // destruction), which is only sound for trivially copyable elements
  // whose value-initialized form is all-zero bits (true for Float16,
  // whose default bit pattern is 0x0000 == 0.0f, and for the arithmetic
  // types).
  static_assert(std::is_trivially_copyable_v<T>,
                "Tensor elements must be trivially copyable");
  // Shape::kMaxElements elements of at most 8 bytes fit int64 bytes.
  static_assert(sizeof(T) <= 8, "Tensor elements are at most 8 bytes");

 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(shape) {
    allocate();
    fill(T());
  }
  Tensor(Shape shape, Uninitialized) : shape_(shape) { allocate(); }
  Tensor(Shape shape, T fill_value) : shape_(shape) {
    allocate();
    fill(fill_value);
  }

  Tensor(const Tensor& o) : shape_(o.shape_) {
    if (o.data_ != nullptr) {
      elems_ = o.elems_;
      allocate_raw();
      std::memcpy(data_, o.data_,
                  static_cast<std::size_t>(elems_) * sizeof(T));
    }
  }
  Tensor(Tensor&& o) noexcept
      : shape_(o.shape_), data_(o.data_), elems_(o.elems_),
        capacity_(o.capacity_) {
    o.shape_ = Shape{};
    o.data_ = nullptr;
    o.elems_ = 0;
    o.capacity_ = 0;
  }
  Tensor& operator=(const Tensor& o) {
    if (this != &o) {
      Tensor tmp(o);
      swap(tmp);
    }
    return *this;
  }
  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      release();
      shape_ = o.shape_;
      data_ = o.data_;
      elems_ = o.elems_;
      capacity_ = o.capacity_;
      o.shape_ = Shape{};
      o.data_ = nullptr;
      o.elems_ = 0;
      o.capacity_ = 0;
    }
    return *this;
  }
  ~Tensor() { release(); }

  void swap(Tensor& o) noexcept {
    std::swap(shape_, o.shape_);
    std::swap(data_, o.data_);
    std::swap(elems_, o.elems_);
    std::swap(capacity_, o.capacity_);
  }

  const Shape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.num_elements(); }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& flat(std::int64_t i) {
    DV_CHECK(i >= 0 && i < size()) << "flat index " << i;
    return data_[i];
  }
  const T& flat(std::int64_t i) const {
    DV_CHECK(i >= 0 && i < size()) << "flat index " << i;
    return data_[i];
  }

  template <typename... Ix>
  std::int64_t offset(Ix... indices) const {
    constexpr int n = sizeof...(Ix);
    DV_CHECK_EQ(n, shape_.rank()) << "index rank mismatch";
    const std::int64_t ix[n] = {static_cast<std::int64_t>(indices)...};
    std::int64_t off = 0;
    for (int i = 0; i < n; ++i) {
      DV_CHECK(ix[i] >= 0 && ix[i] < shape_.dim(i))
          << "index " << ix[i] << " out of bounds for dim " << i << " of "
          << shape_.to_string();
      off = off * shape_.dim(i) + ix[i];
    }
    return off;
  }

  template <typename... Ix>
  T& at(Ix... indices) {
    return data_[offset(indices...)];
  }
  template <typename... Ix>
  const T& at(Ix... indices) const {
    return data_[offset(indices...)];
  }

  void fill(T value) {
    for (std::int64_t i = 0; i < elems_; ++i) data_[i] = value;
  }

  void fill_random(std::uint64_t seed, float lo = -2.0f, float hi = 2.0f) {
    Xoshiro256 rng(seed);
    for (std::int64_t i = 0; i < elems_; ++i) {
      data_[i] = T(rng.next_float(lo, hi));
    }
  }

  // Fills with small integers so fp16 arithmetic is exact; convenient for
  // bit-exact comparisons between kernel and reference outputs.
  void fill_random_ints(std::uint64_t seed, int lo = -8, int hi = 8) {
    DV_CHECK_GE(hi, lo) << "fill_random_ints: empty range";
    Xoshiro256 rng(seed);
    // Widen before the arithmetic: hi - lo + 1 in int overflows for
    // extreme bounds (e.g. lo = INT_MIN, hi = INT_MAX).
    const std::uint64_t span = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
    if (span <= 64) {
      // Small ranges (every in-tree caller): precompute the converted
      // values so the element loop is a table pick per draw instead of an
      // int -> float -> T conversion. Same RNG stream, same values.
      T table[64];
      for (std::uint64_t v = 0; v < span; ++v) {
        table[v] = T(static_cast<float>(static_cast<std::int64_t>(lo) +
                                        static_cast<std::int64_t>(v)));
      }
      for (std::int64_t i = 0; i < elems_; ++i) {
        data_[i] = table[rng.next_below(span)];
      }
      return;
    }
    for (std::int64_t i = 0; i < elems_; ++i) {
      data_[i] = T(static_cast<float>(
          static_cast<std::int64_t>(lo) +
          static_cast<std::int64_t>(rng.next_below(span))));
    }
  }

 private:
  void allocate() {
    elems_ = shape_.num_elements();
    DV_CHECK_GE(elems_, 0) << "negative element count";
    allocate_raw();
  }
  void allocate_raw() {
    data_ = static_cast<T*>(TensorArena::global().acquire(
        static_cast<std::size_t>(elems_) * sizeof(T), &capacity_));
  }
  void release() noexcept {
    if (data_ != nullptr) {
      TensorArena::global().release(data_, capacity_);
      data_ = nullptr;
    }
  }

  Shape shape_;
  T* data_ = nullptr;
  // Element count behind data_ (0 for a default-constructed tensor, whose
  // rank-0 shape reports num_elements() == 1 -- the empty product -- but
  // owns no storage).
  std::int64_t elems_ = 0;
  std::size_t capacity_ = 0;
};

using TensorF32 = Tensor<float>;
using TensorF16 = Tensor<Float16>;

}  // namespace davinci

