// Robustness sweeps: the kernels must stay bit-correct when the
// architecture is made hostile (tiny buffers force deep tiling, a small
// repeat cap forces instruction splitting, one core serializes
// everything), and must fail *cleanly* when a workload genuinely cannot
// be scheduled.
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

struct ArchCase {
  const char* name;
  ArchConfig arch;
};

std::vector<ArchCase> hostile_archs() {
  std::vector<ArchCase> cases;
  {
    ArchCase c{"tiny_ub", ArchConfig::ascend910()};
    c.arch.ub_bytes = 48 * 1024;  // forces many H-tiles
    cases.push_back(c);
  }
  {
    ArchCase c{"tiny_l1", ArchConfig::ascend910()};
    c.arch.l1_bytes = 64 * 1024;  // constrains the Im2Col source slice
    cases.push_back(c);
  }
  {
    ArchCase c{"small_repeat", ArchConfig::ascend910()};
    c.arch.max_repeat = 8;  // forces instruction splitting everywhere
    cases.push_back(c);
  }
  {
    ArchCase c{"one_core", ArchConfig::ascend910()};
    c.arch.num_cores = 1;  // fully serialized device
    cases.push_back(c);
  }
  {
    ArchCase c{"everything_small", ArchConfig::ascend910()};
    c.arch.ub_bytes = 48 * 1024;
    c.arch.l1_bytes = 96 * 1024;
    c.arch.max_repeat = 16;
    c.arch.num_cores = 2;
    cases.push_back(c);
  }
  return cases;
}

class HostileArch : public ::testing::TestWithParam<ArchCase> {};

TEST_P(HostileArch, ForwardStaysExact) {
  Device dev(GetParam().arch);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 33, 33, 901);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST_P(HostileArch, ForwardWithMaskStaysExact) {
  Device dev(GetParam().arch);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 29, 29, 902);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST_P(HostileArch, BackwardStaysExact) {
  Device dev(GetParam().arch);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 29, 29, 903);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 1, 14, 14, kC0});
  grad.fill_random_ints(904, 0, 5);
  const TensorF16 want = ref::maxpool_bwd(mask, grad, w, 29, 29);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m},
        PoolInputs{.mask = &mask, .grad = &grad, .ih = 29, .iw = 29});
    testutil::expect_equal_f16(got.grad_in, want, kernels::to_string(m));
  }
}

TEST_P(HostileArch, TightArchCostsMoreCycles) {
  // A hostile architecture must never *charge less* than the real one.
  // The comparison is on serial cycles: a tiny UB forces more, smaller
  // tiles, and with double buffering more tiles can legitimately overlap
  // into a shorter makespan even though every tile costs extra.
  Device hostile(GetParam().arch);
  Device normal;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 33, 33, 905);
  const Window2d w = Window2d::pool(3, 2);
  auto a = kernels::run_pool(
      hostile,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  auto b = kernels::run_pool(
      normal,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_GE(a.run.device_cycles_serial, b.run.device_cycles_serial);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HostileArch,
                         ::testing::ValuesIn(hostile_archs()),
                         [](const ::testing::TestParamInfo<ArchCase>& i) {
                           return i.param.name;
                         });

TEST(FailureInjection, ImpossibleScheduleThrowsCleanly) {
  // A UB too small for even a single output row must produce a scheduling
  // error, not a corrupt result.
  ArchConfig arch = ArchConfig::ascend910();
  arch.ub_bytes = 2 * 1024;
  Device dev(arch);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 65, 65, 906);
  EXPECT_THROW(
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
                 .fwd = PoolImpl::kIm2col},
          PoolInputs{.in = &in}),
      Error);
}

TEST(FailureInjection, ErrorMessageIsActionable) {
  ArchConfig arch = ArchConfig::ascend910();
  arch.ub_bytes = 2 * 1024;
  Device dev(arch);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 65, 65, 907);
  try {
    kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
               .fwd = PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    FAIL() << "expected a scheduling error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not fit"), std::string::npos);
  }
}

TEST(FailureInjection, ScratchOverflowMessageIsActionable) {
  // A raw buffer overflow (bypassing the tiling layer) must name the
  // buffer, the owning core, and the requested vs. available bytes.
  Device dev;
  try {
    dev.run(1, [](AiCore& core, std::int64_t) {
      core.ub().alloc<Float16>(1 << 20);  // 2 MiB into a 256 KiB UB
    });
    FAIL() << "expected an overflow error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("UB overflow"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("requested 2097152 B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("available 262144 B"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace davinci
