#include "sim/cube_unit.h"

#include "tensor/fractal.h"

namespace davinci {

void CubeUnit::mmad(Span<float> l0c, Span<Float16> l0a, Span<Float16> l0b,
                    std::int64_t m_frac, std::int64_t k_frac,
                    std::int64_t n_frac, bool accumulate, bool a_k_major) {
  DV_CHECK(l0a.kind() == BufferKind::kL0A) << "A must be in L0A";
  DV_CHECK(l0b.kind() == BufferKind::kL0B) << "B must be in L0B";
  DV_CHECK(l0c.kind() == BufferKind::kL0C) << "C must be in L0C";
  DV_CHECK_GE(m_frac, 1);
  DV_CHECK_GE(k_frac, 1);
  DV_CHECK_GE(n_frac, 1);
  DV_CHECK_LE(m_frac * k_frac * kFractalElems, l0a.size());
  DV_CHECK_LE(k_frac * n_frac * kFractalElems, l0b.size());
  DV_CHECK_LE(m_frac * n_frac * kFractalElems, l0c.size());

  const std::int64_t f = kFractalRows;  // 16

  if (!accumulate) {
    for (std::int64_t i = 0; i < m_frac * n_frac * kFractalElems; ++i) {
      l0c.at(i) = 0.0f;
    }
  }

  for (std::int64_t mb = 0; mb < m_frac; ++mb) {
    for (std::int64_t nb = 0; nb < n_frac; ++nb) {
      float* c = &l0c.at(((mb * n_frac) + nb) * kFractalElems);
      for (std::int64_t kb = 0; kb < k_frac; ++kb) {
        const std::int64_t abase =
            (a_k_major ? kb * m_frac + mb : mb * k_frac + kb) * kFractalElems;
        const std::int64_t bbase = (kb * n_frac + nb) * kFractalElems;
        for (std::int64_t i = 0; i < f; ++i) {
          for (std::int64_t k = 0; k < f; ++k) {
            const float a = l0a.at(abase + i * f + k).to_float();
            if (a == 0.0f) continue;
            for (std::int64_t j = 0; j < f; ++j) {
              c[i * f + j] += a * l0b.at(bbase + k * f + j).to_float();
            }
          }
        }
      }
    }
  }

  const std::int64_t macs = m_frac * k_frac * n_frac;
  ledger_->counts.cube_fractal_macs += macs;
  const std::int64_t cycles = cost_.cube_mmad(macs);
  // Occupancy: fractal-MAC cycles vs charged cycles -- how well the
  // instruction amortizes its issue overhead over the MAC array.
  const std::int64_t mac_cycles = macs * cost_.cube_cycles_per_fractal_mac;
  ledger_->book(TraceKind::kCube, Pipe::kCube, cycles,
                {1, mac_cycles, cycles, 0}, [&] {
                  return "mmad m=" + std::to_string(m_frac) +
                         " k=" + std::to_string(k_frac) +
                         " n=" + std::to_string(n_frac);
                });
}

}  // namespace davinci
