#include "sim/scratch.h"

#include <sys/mman.h>
#include <unistd.h>

namespace davinci::detail {

namespace {

// The mapping behind `bytes` of scratch: whole pages, plus one guard page.
struct Layout {
  std::size_t usable;  // `bytes` rounded up to whole pages
  std::size_t page;
};

Layout layout_of(std::size_t bytes) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return {(bytes + page - 1) / page * page, page};
}

}  // namespace

std::byte* map_zero_pages(std::int64_t bytes) {
  DV_CHECK_GE(bytes, 0) << "scratch capacity";
  if (bytes == 0) return nullptr;
  const Layout l = layout_of(static_cast<std::size_t>(bytes));
  // Anonymous private pages read as zero and are materialized on first
  // touch. (calloc is not enough: once glibc's dynamic mmap threshold has
  // risen past the size, it may serve the block from the heap and zero it
  // eagerly.)
  void* p = mmap(nullptr, l.usable + l.page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DV_CHECK(p != MAP_FAILED) << "cannot map " << bytes
                            << " B of scratch memory";
  auto* const base = static_cast<std::byte*>(p);
  // The page after the buffer faults on any access, in every build: a
  // write past the end cannot reach a neighbouring mapping, which may be
  // another buffer (sanitizers treat every byte of a mapping as valid).
  const int guarded = mprotect(base + l.usable, l.page, PROT_NONE);
  if (guarded != 0) munmap(base, l.usable + l.page);
  DV_CHECK(guarded == 0) << "cannot guard " << bytes
                         << " B of scratch memory";
  return base;
}

void unmap_pages(std::byte* p, std::size_t bytes) {
  if (p == nullptr) return;
  const Layout l = layout_of(bytes);
  munmap(p, l.usable + l.page);
}

}  // namespace davinci::detail
