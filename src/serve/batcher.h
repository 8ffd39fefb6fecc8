// Request grouping for the serving session (docs/SERVING.md).
//
// Every pooling kernel launches one block per (N, C1) slice, so a
// single-image request on an InceptionV3 shape (C1 = 4..18) leaves most
// of the device's 32 AI Cores idle. The batcher groups same-geometry
// requests into one launch; the cluster (serve/cluster.h) stacks the
// members along N, runs the launch and hands each member its own rows
// back -- bit-identical to running them one by one, because each block
// computes only its own (N, C1) slice with per-block scratch.
//
// Requests group iff every launch-relevant field matches: operator
// kind, window geometry, lowering/merge choice and the per-image tensor
// geometry (C1, Ih, Iw). A batch is additionally split when it would
// exceed the launch caps: `max_requests` members or `max_blocks` total
// (N, C1) blocks -- the UB-budget cap, since every resident block pins
// its plan's ub_slots tile slots (serve::Session derives max_blocks from
// cores x kUbWaves).
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/pooling.h"

namespace davinci::serve {

// One queued request as the batcher sees it (non-owning).
struct RequestView {
  const kernels::PoolOp* op = nullptr;
  const kernels::PoolInputs* in = nullptr;
};

// Per-image geometry of a request (N images of (C1, .., C0) each).
struct RequestGeometry {
  std::int64_t n = 0, c1 = 0, ih = 0, iw = 0;
};

// The batcher reads requests that passed kernels::check_inputs (the
// session screens every request before it groups them).
RequestGeometry request_geometry(const kernels::PoolOp& op,
                                 const kernels::PoolInputs& in);

// The coalescing key: two requests with equal BatchKey can share one
// device launch. PoolOp::plan is deliberately excluded -- the session
// re-derives the plan for the whole batch from its cache.
struct BatchKey {
  kernels::PoolOpKind kind = kernels::PoolOpKind::kMaxFwd;
  Window2d window;
  akg::PoolImpl fwd = akg::PoolImpl::kIm2col;
  kernels::MergeImpl merge = kernels::MergeImpl::kCol2im;
  std::int64_t c1 = 0, ih = 0, iw = 0;

  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

// A launchable group: member indices into the request span, in
// submission order.
struct Batch {
  BatchKey key;
  std::vector<std::size_t> members;
  std::int64_t blocks = 0;  // sum over members of n * c1
};

// Groups `reqs` into batches. Batches come out in order of first member;
// members keep their submission order. A single request larger than
// `max_blocks` still forms its own singleton batch (the launch cap
// bounds coalescing, not admission).
std::vector<Batch> form_batches(const std::vector<RequestView>& reqs,
                                std::size_t max_requests,
                                std::int64_t max_blocks);

}  // namespace davinci::serve
