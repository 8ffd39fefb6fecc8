// Fused convolution + average pooling on the Cube Unit -- the future-work
// item the paper names in Section VIII ("consider the fusion techniques
// described by Suita et al. to execute Avgpool together with convolution
// as matrix multiplication in the Cube Unit").
//
// AvgPool is a convolution whose weights are all 1/(Ph*Pw), and the
// composition of two convolutions is a convolution: pooling the output of
// conv(W, stride Sc) with a (Ph, Pw) window of stride Sp equals a single
// convolution with the composite kernel
//
//   W'[f, c, u, v] = (1 / (Ph * Pw)) *
//                    sum over (th, tw) in the pool window of
//                    W[f, c, u - th * Sc_h, v - tw * Sc_w]
//
// of size Kh' = (Ph - 1) * Sc_h + Kh (resp. width) and stride Sc * Sp.
// The fused form runs one Cube pass over the composite kernel instead of
// a Cube pass plus a Vector-Unit pooling pass.
//
// MaxPool cannot be fused this way ("CNNs tend to use Maxpool, which
// cannot be fused in the same way") -- which is exactly why the paper's
// Im2col/Col2im pooling matters; this module exists to quantify the
// alternative for the AvgPool case.
//
// Constraints: no padding in either stage, and the conv output must tile
// the pool grid exactly ((Ih - Kh) divisible by Sc_h, and the conv output
// height minus Ph divisible by Sp_h; same for width).
#pragma once

#include "kernels/conv2d.h"
#include "sim/device.h"
#include "tensor/pool_geometry.h"
#include "tensor/tensor.h"

namespace davinci::kernels {

// Host-side composite-kernel construction (exposed for tests).
// weights: (Cout, C, Kh, Kw); returns (Cout, C, Kh', Kw').
TensorF32 compose_conv_avgpool_weights(const TensorF32& weights,
                                       const Window2d& conv,
                                       const Window2d& pool);

// The composite window (size Kh', stride Sc*Sp) the fused kernel runs.
Window2d fused_window(const Window2d& conv, const Window2d& pool);

// Runs conv + avgpool as ONE Cube-Unit convolution over the composite
// kernel. Output shape equals that of an AvgPool (PoolOpKind::kAvgFwd)
// run_pool over conv2d_cube(...).
Conv2dResult conv2d_avgpool_fused(Device& dev, const TensorF16& in,
                                  const TensorF32& weights,
                                  const Window2d& conv, const Window2d& pool);

}  // namespace davinci::kernels
