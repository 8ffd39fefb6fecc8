// Fixed-capacity tensor shape. The deepest layout used in the paper is the
// Im2col output tensor (N, C1, Kh, Kw, Oh, Ow, C0) with 7 dimensions, so a
// small inline array avoids heap traffic in hot indexing paths.
//
// A shape is representable or it is not built: construction and set_dim
// throw Error when the product of the nonzero dimensions exceeds
// kMaxElements (the rule of ATen's safe_downcast: range-check where the
// value is made). So no element count, stride or byte size derived from a
// shape can overflow int64.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <string>

#include "common/check.h"

namespace davinci {

class Shape {
 public:
  static constexpr int kMaxRank = 8;
  // Elements a shape may hold: its byte size at up to 8 bytes per element
  // still fits int64.
  static constexpr std::int64_t kMaxElements =
      std::numeric_limits<std::int64_t>::max() / 8;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    DV_CHECK_LE(dims.size(), static_cast<std::size_t>(kMaxRank));
    for (std::int64_t d : dims) {
      DV_CHECK_GE(d, 0) << "negative dimension";
      dims_[rank_++] = d;
    }
    check_representable();
  }

  int rank() const { return rank_; }

  std::int64_t dim(int i) const {
    DV_CHECK(i >= 0 && i < rank_) << "dim index " << i << " rank " << rank_;
    return dims_[i];
  }
  std::int64_t operator[](int i) const { return dim(i); }

  void set_dim(int i, std::int64_t v) {
    DV_CHECK(i >= 0 && i < rank_);
    DV_CHECK_GE(v, 0);
    Shape next = *this;
    next.dims_[i] = v;
    next.check_representable();
    *this = next;
  }

  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  // Row-major stride of dimension `i` in elements.
  std::int64_t stride(int i) const {
    DV_CHECK(i >= 0 && i < rank_);
    std::int64_t s = 1;
    for (int j = i + 1; j < rank_; ++j) s *= dims_[j];
    return s;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (int i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

  std::string to_string() const {
    std::string s = "(";
    for (int i = 0; i < rank_; ++i) {
      if (i) s += ", ";
      s += std::to_string(dims_[i]);
    }
    s += ")";
    return s;
  }

 private:
  // Bounding the nonzero dimensions' product bounds every stride too,
  // even when a zero dimension makes the element count 0.
  void check_representable() const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) {
      if (dims_[i] == 0) continue;
      DV_CHECK_LE(dims_[i], kMaxElements / n)
          << "shape " << to_string() << " holds more than " << kMaxElements
          << " elements";
      n *= dims_[i];
    }
  }

  std::array<std::int64_t, kMaxRank> dims_{};
  int rank_ = 0;
};

}  // namespace davinci
