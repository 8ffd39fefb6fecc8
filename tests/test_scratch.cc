// Unit tests for the scratch-pad buffer model and bounds-checked spans.
#include "sim/scratch.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace davinci {
namespace {

TEST(ScratchBuffer, AllocateAndUse) {
  ScratchBuffer ub(BufferKind::kUnified, 1024);
  auto a = ub.alloc<Float16>(100);
  EXPECT_EQ(a.size(), 100);
  EXPECT_EQ(a.kind(), BufferKind::kUnified);
  a.at(0) = Float16(1.0f);
  a.at(99) = Float16(2.0f);
  EXPECT_EQ(a.at(0).to_float(), 1.0f);
  EXPECT_EQ(a.at(99).to_float(), 2.0f);
}

TEST(ScratchBuffer, CapacityEnforced) {
  ScratchBuffer ub(BufferKind::kUnified, 256);
  auto a = ub.alloc<Float16>(64);  // 128 bytes
  (void)a;
  EXPECT_THROW(ub.alloc<Float16>(128), Error);  // would need 256 more
  auto b = ub.alloc<Float16>(64);  // exactly fills the rest
  (void)b;
  EXPECT_THROW(ub.alloc<Float16>(1), Error);
}

TEST(ScratchBuffer, AllocationOffsetsAre32ByteAligned) {
  // Alignment is within the buffer's own address space (the hardware's
  // 32-byte block granularity), not a host-pointer property.
  ScratchBuffer ub(BufferKind::kUnified, 1024);
  auto a = ub.alloc<Float16>(3);  // 6 bytes -> offset 0
  auto b = ub.alloc<Float16>(1);  // starts at the next 32-byte block
  const auto addr_a = reinterpret_cast<std::uintptr_t>(a.data());
  const auto addr_b = reinterpret_cast<std::uintptr_t>(b.data());
  EXPECT_EQ(addr_b - addr_a, 32u);
  EXPECT_EQ(ub.bytes_used(), 34);  // 32 + 2
  auto c = ub.alloc<Float16>(1);
  const auto addr_c = reinterpret_cast<std::uintptr_t>(c.data());
  EXPECT_EQ(addr_c - addr_b, 32u);
}

TEST(ScratchBuffer, ResetReclaimsSpace) {
  ScratchBuffer ub(BufferKind::kUnified, 256);
  ub.alloc<Float16>(128);
  EXPECT_EQ(ub.bytes_free(), 0);
  ub.reset();
  EXPECT_EQ(ub.bytes_used(), 0);
  auto a = ub.alloc<Float16>(128);
  EXPECT_EQ(a.size(), 128);
}

TEST(ScratchBuffer, HighWaterTracking) {
  ScratchBuffer ub(BufferKind::kUnified, 1024);
  ub.alloc<Float16>(100);
  ub.reset();
  ub.alloc<Float16>(10);
  EXPECT_EQ(ub.high_water_bytes(), 200);
  ub.reset_high_water();
  EXPECT_EQ(ub.high_water_bytes(), 0);
}

TEST(Span, BoundsChecked) {
  ScratchBuffer ub(BufferKind::kUnified, 1024);
  auto a = ub.alloc<Float16>(10);
  EXPECT_THROW(a.at(10), Error);
  EXPECT_THROW(a.at(-1), Error);
}

TEST(Span, SubspanChecked) {
  ScratchBuffer ub(BufferKind::kUnified, 1024);
  auto a = ub.alloc<Float16>(10);
  auto s = a.sub(4, 4);
  EXPECT_EQ(s.size(), 4);
  s.at(0) = Float16(7.0f);
  EXPECT_EQ(a.at(4).to_float(), 7.0f);
  EXPECT_THROW(a.sub(8, 4), Error);
  EXPECT_THROW(a.sub(-1, 2), Error);
  auto d = a.drop_front(6);
  EXPECT_EQ(d.size(), 4);
}

TEST(Span, KindPropagates) {
  ScratchBuffer l1(BufferKind::kL1, 1024);
  auto a = l1.alloc<Float16>(8);
  EXPECT_EQ(a.sub(0, 4).kind(), BufferKind::kL1);
}

TEST(Span, GmSpanWrapsHostMemory) {
  Float16 data[4];
  auto s = gm_span(data, 4);
  EXPECT_EQ(s.kind(), BufferKind::kGlobal);
  s.at(3) = Float16(9.0f);
  EXPECT_EQ(data[3].to_float(), 9.0f);
}

TEST(ScratchBuffer, StartsZeroAndScrubFillsEveryByte) {
  // The storage is mapped lazily, but reads as zero over the whole
  // capacity (not a page multiple here), and scrub() reaches every byte.
  constexpr std::int64_t kBytes = (1 << 20) + 96;
  ScratchBuffer buf(BufferKind::kL1, kBytes);
  EXPECT_EQ(buf.capacity_bytes(), kBytes);
  auto all = buf.alloc<std::uint8_t>(kBytes);
  for (std::int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(all.at(i), 0u) << "byte " << i;
  }
  all.at(12345) = 7;
  buf.scrub(std::byte{0xA5});
  for (std::int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(all.at(i), 0xA5u) << "byte " << i;
  }
  EXPECT_THROW(buf.alloc<std::uint8_t>(1), Error);  // still full

  ScratchBuffer empty(BufferKind::kUnified, 0);
  EXPECT_EQ(empty.capacity_bytes(), 0);
  EXPECT_EQ(empty.alloc<Float16>(0).size(), 0);
  EXPECT_THROW(empty.alloc<Float16>(1), Error);
  empty.scrub(std::byte{0xA5});
}

TEST(ScratchBufferDeathTest, AccessPastTheCapacityFaults) {
  // A guard page follows a capacity of whole pages, so a write one byte
  // past the end faults in every build instead of landing in whatever the
  // OS mapped next (perhaps another buffer).
  constexpr std::int64_t kBytes = 256 * 1024;
  ScratchBuffer ub(BufferKind::kUnified, kBytes);
  std::uint8_t* const end = ub.alloc<std::uint8_t>(kBytes).data() + kBytes;
  end[-1] = 1;  // the last byte is the buffer's
  EXPECT_DEATH(*static_cast<volatile std::uint8_t*>(end) = 1, "");
}

TEST(ScratchBuffer, BufferKindNames) {
  EXPECT_STREQ(to_string(BufferKind::kUnified), "UB");
  EXPECT_STREQ(to_string(BufferKind::kL1), "L1");
  EXPECT_STREQ(to_string(BufferKind::kL0A), "L0A");
  EXPECT_STREQ(to_string(BufferKind::kGlobal), "GM");
}

}  // namespace
}  // namespace davinci
