// Unit tests for the Cube Unit fractal matrix multiplier.
#include "sim/cube_unit.h"

#include <gtest/gtest.h>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "common/prng.h"
#include "sim/scratch.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

class CubeTest : public ::testing::Test {
 protected:
  CubeTest()
      : l0a_(BufferKind::kL0A, 256 * 1024),
        l0b_(BufferKind::kL0B, 256 * 1024),
        l0c_(BufferKind::kL0C, 1024 * 1024),
        cube_(arch_, cost_, &ledger_) {}

  ArchConfig arch_;
  CostModel cost_;
  Ledger ledger_;
  ScratchBuffer l0a_, l0b_, l0c_;
  CubeUnit cube_;
};

// Fills a fractal-tiled fp16 matrix (rb x cb fractals) from a dense
// row-major lambda.
template <typename F>
void fill_fractals(Span<Float16> s, std::int64_t rb, std::int64_t cb, F f) {
  for (std::int64_t i = 0; i < rb; ++i) {
    for (std::int64_t j = 0; j < cb; ++j) {
      for (std::int64_t r = 0; r < 16; ++r) {
        for (std::int64_t c = 0; c < 16; ++c) {
          s.at(((i * cb + j) * kFractalElems) + r * 16 + c) =
              Float16(f(i * 16 + r, j * 16 + c));
        }
      }
    }
  }
}

TEST_F(CubeTest, SingleFractalIdentity) {
  auto a = l0a_.alloc<Float16>(kFractalElems);
  auto b = l0b_.alloc<Float16>(kFractalElems);
  auto c = l0c_.alloc<float>(kFractalElems);
  fill_fractals(a, 1, 1, [](auto r, auto k) {
    return static_cast<float>(r * 16 + k % 4);
  });
  fill_fractals(b, 1, 1,
                [](auto k, auto j) { return k == j ? 1.0f : 0.0f; });
  cube_.mmad(c, a, b, 1, 1, 1, /*accumulate=*/false);
  for (std::int64_t r = 0; r < 16; ++r) {
    for (std::int64_t j = 0; j < 16; ++j) {
      EXPECT_EQ(c.at(r * 16 + j), static_cast<float>(r * 16 + j % 4));
    }
  }
}

TEST_F(CubeTest, MultiFractalMatchesDenseReference) {
  const std::int64_t mb = 2, kb = 3, nb = 2;
  auto a = l0a_.alloc<Float16>(mb * kb * kFractalElems);
  auto b = l0b_.alloc<Float16>(kb * nb * kFractalElems);
  auto c = l0c_.alloc<float>(mb * nb * kFractalElems);
  Xoshiro256 rng(5);
  std::vector<float> da(static_cast<size_t>(mb * kb) * 256);
  std::vector<float> db(static_cast<size_t>(kb * nb) * 256);
  for (auto& v : da) v = static_cast<float>(static_cast<int>(rng.next_below(9)) - 4);
  for (auto& v : db) v = static_cast<float>(static_cast<int>(rng.next_below(9)) - 4);
  const std::int64_t M = mb * 16, K = kb * 16, N = nb * 16;
  fill_fractals(a, mb, kb, [&](auto r, auto k) { return da[static_cast<size_t>(r * K + k)]; });
  fill_fractals(b, kb, nb, [&](auto k, auto j) { return db[static_cast<size_t>(k * N + j)]; });

  cube_.mmad(c, a, b, mb, kb, nb, /*accumulate=*/false);

  for (std::int64_t r = 0; r < M; ++r) {
    for (std::int64_t j = 0; j < N; ++j) {
      float want = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) {
        want += da[static_cast<size_t>(r * K + k)] * db[static_cast<size_t>(k * N + j)];
      }
      const float got =
          c.at(((r / 16) * nb + j / 16) * kFractalElems + (r % 16) * 16 +
               j % 16);
      EXPECT_EQ(got, want) << r << "," << j;
    }
  }
}

TEST_F(CubeTest, KMajorLayoutEquivalence) {
  const std::int64_t mb = 2, kb = 2;
  auto a_row = l0a_.alloc<Float16>(mb * kb * kFractalElems);
  auto a_col = l0a_.alloc<Float16>(mb * kb * kFractalElems);
  auto b = l0b_.alloc<Float16>(kb * kFractalElems);
  auto c1 = l0c_.alloc<float>(mb * kFractalElems);
  auto c2 = l0c_.alloc<float>(mb * kFractalElems);
  Xoshiro256 rng(6);
  std::vector<float> da(static_cast<size_t>(mb * kb) * 256);
  for (auto& v : da) v = static_cast<float>(static_cast<int>(rng.next_below(7)) - 3);
  const std::int64_t K = kb * 16;
  fill_fractals(a_row, mb, kb, [&](auto r, auto k) { return da[static_cast<size_t>(r * K + k)]; });
  // k-major: fractal (kbi, mbi) at kbi * mb + mbi.
  for (std::int64_t kbi = 0; kbi < kb; ++kbi) {
    for (std::int64_t mbi = 0; mbi < mb; ++mbi) {
      for (std::int64_t r = 0; r < 16; ++r) {
        for (std::int64_t cc = 0; cc < 16; ++cc) {
          a_col.at((kbi * mb + mbi) * kFractalElems + r * 16 + cc) =
              Float16(da[static_cast<size_t>((mbi * 16 + r) * K + kbi * 16 + cc)]);
        }
      }
    }
  }
  fill_fractals(b, kb, 1, [](auto k, auto j) { return k == j ? 2.0f : 0.0f; });

  cube_.mmad(c1, a_row, b, mb, kb, 1, false, /*a_k_major=*/false);
  cube_.mmad(c2, a_col, b, mb, kb, 1, false, /*a_k_major=*/true);
  for (std::int64_t i = 0; i < mb * kFractalElems; ++i) {
    EXPECT_EQ(c1.at(i), c2.at(i)) << i;
  }
}

TEST_F(CubeTest, AccumulateFlag) {
  auto a = l0a_.alloc<Float16>(kFractalElems);
  auto b = l0b_.alloc<Float16>(kFractalElems);
  auto c = l0c_.alloc<float>(kFractalElems);
  fill_fractals(a, 1, 1, [](auto, auto) { return 1.0f; });
  fill_fractals(b, 1, 1, [](auto, auto) { return 1.0f; });
  cube_.mmad(c, a, b, 1, 1, 1, false);
  EXPECT_EQ(c.at(0), 16.0f);
  cube_.mmad(c, a, b, 1, 1, 1, /*accumulate=*/true);
  EXPECT_EQ(c.at(0), 32.0f);
  cube_.mmad(c, a, b, 1, 1, 1, /*accumulate=*/false);
  EXPECT_EQ(c.at(0), 16.0f);
}

TEST_F(CubeTest, CycleAccounting) {
  auto a = l0a_.alloc<Float16>(2 * 3 * kFractalElems);
  auto b = l0b_.alloc<Float16>(3 * 2 * kFractalElems);
  auto c = l0c_.alloc<float>(2 * 2 * kFractalElems);
  cube_.mmad(c, a, b, 2, 3, 2, false);
  EXPECT_EQ(ledger_.profile.cube.instrs, 1);
  EXPECT_EQ(ledger_.counts.cube_fractal_macs, 12);
  EXPECT_EQ(ledger_.sched.busy(Pipe::kCube), cost_.cube_mmad(12));
}

TEST_F(CubeTest, RejectsWrongBuffers) {
  auto a = l0a_.alloc<Float16>(kFractalElems);
  auto c = l0c_.alloc<float>(kFractalElems);
  auto b_in_a = l0a_.alloc<Float16>(kFractalElems);
  EXPECT_THROW(cube_.mmad(c, a, b_in_a, 1, 1, 1, false), Error);
}

TEST_F(CubeTest, RejectsUndersizedOperands) {
  auto a = l0a_.alloc<Float16>(kFractalElems);
  auto b = l0b_.alloc<Float16>(kFractalElems);
  auto c = l0c_.alloc<float>(kFractalElems);
  EXPECT_THROW(cube_.mmad(c, a, b, 2, 1, 1, false), Error);
}

}  // namespace
}  // namespace davinci
