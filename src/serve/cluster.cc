#include "serve/cluster.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace davinci::serve {

namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolResult;

std::int64_t tensor_bytes(const TensorF16& t) {
  return t.shape().rank() > 0
             ? t.size() * static_cast<std::int64_t>(sizeof(Float16))
             : 0;
}

// The shard path's one block copy: `images` x `blocks` (N, C1) blocks --
// image rows [src_n, src_n + images), channel blocks [src_c, src_c +
// blocks) of `src` -- land at (dst_n, dst_c) of `dst`. N and C1 are the
// two outermost axes of every pooling tensor, so a block is contiguous
// and each image row is one memcpy.
void copy_blocks(const TensorF16& src, std::int64_t src_n, std::int64_t src_c,
                 TensorF16* dst, std::int64_t dst_n, std::int64_t dst_c,
                 std::int64_t images, std::int64_t blocks) {
  const std::int64_t block = src.shape().stride(1);
  DV_CHECK_EQ(dst->shape().stride(1), block) << "block size mismatch";
  const std::int64_t src_row = src.shape().stride(0);
  const std::int64_t dst_row = dst->shape().stride(0);
  for (std::int64_t i = 0; i < images; ++i) {
    std::memcpy(dst->data() + (dst_n + i) * dst_row + dst_c * block,
                src.data() + (src_n + i) * src_row + src_c * block,
                static_cast<std::size_t>(blocks * block) * sizeof(Float16));
  }
}

}  // namespace

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kData:
      return "data";
    case Placement::kModel:
      return "model";
  }
  return "?";
}

Cluster::Cluster(ClusterOptions opts) : opts_(opts), link_cost_(opts.cost) {
  DV_CHECK_GE(opts_.devices, 1);
  DV_CHECK_GE(opts_.link_bytes_per_cycle, 1);
  DV_CHECK_GE(opts_.link_latency_cycles, 0);
  for (int d = 0; d < opts_.devices; ++d) {
    devices_.push_back(std::make_unique<Device>(opts_.arch, opts_.cost));
  }
  link_cost_.mte_bytes_per_cycle = opts_.link_bytes_per_cycle;
  link_cost_.mte_startup_cycles = opts_.link_latency_cycles;
  stats_.devices.resize(static_cast<std::size_t>(opts_.devices));
  stats_.links.resize(
      static_cast<std::size_t>(opts_.devices) *
      static_cast<std::size_t>(opts_.devices));
}

Cluster::Cluster(Cluster&& other) noexcept
    : opts_(std::move(other.opts_)),
      devices_(std::move(other.devices_)),
      link_cost_(other.link_cost_),
      stats_(std::move(other.stats_)) {}

Cluster& Cluster::operator=(Cluster&& other) noexcept {
  opts_ = std::move(other.opts_);
  devices_ = std::move(other.devices_);
  link_cost_ = other.link_cost_;
  stats_ = std::move(other.stats_);
  return *this;
}

int Cluster::total_cores() const {
  return num_devices() * devices_.front()->num_cores();
}

void Cluster::set_double_buffer(bool on) {
  for (auto& d : devices_) d->set_double_buffer(on);
}

void Cluster::set_resilience(const ResilienceOptions& opts) {
  for (auto& d : devices_) d->set_resilience(opts);
}

void Cluster::set_vm_stream(int device, vm::VmStream* stream) {
  devices_.at(static_cast<std::size_t>(device))->set_vm_stream(stream);
}

std::int64_t Cluster::link_cycles(std::int64_t bytes) const {
  return link_cost_.mte_copy(bytes);
}

std::vector<Cluster::Shard> Cluster::plan_shards(std::int64_t n,
                                                 std::int64_t c1,
                                                 int pin) const {
  const Shard grid{pin >= 0 ? pin : 0, 0, n, 0, c1};
  if (pin >= 0) return {grid};
  const bool data = opts_.placement == Placement::kData;
  const std::int64_t axis_len = data ? n : c1;
  const std::int64_t devices = num_devices();
  const std::int64_t base = axis_len / devices;
  const std::int64_t rem = axis_len % devices;
  std::vector<Shard> shards;
  std::int64_t begin = 0;
  for (std::int64_t d = 0; d < devices; ++d) {
    const std::int64_t len = base + (d < rem ? 1 : 0);
    if (len == 0) continue;
    Shard s = grid;
    s.device = static_cast<int>(d);
    (data ? s.n0 : s.c0) = begin;
    (data ? s.n_len : s.c_len) = len;
    shards.push_back(s);
    begin += len;
  }
  return shards;
}

std::vector<PoolResult> Cluster::run_batch(const PoolOp& op,
                                           std::span<const PoolInputs> members,
                                           int pin) {
  if (pin >= num_devices()) {
    throw Error("cluster: shard " + std::to_string(pin) +
                " out of range [0, " + std::to_string(num_devices()) + ")");
  }
  DV_CHECK_GE(members.size(), 1u);
  // The stacked grid: member m owns image rows [n_begin[m], n_begin[m+1]).
  // Every member meets the input contract before a byte is copied, so
  // all of them carry the same tensors, each with the member's N and C1.
  std::vector<std::int64_t> n_begin{0};
  std::int64_t c1 = 0;
  for (const PoolInputs& in : members) {
    kernels::check_inputs(op, in);
    const Shape& primary =
        (kernels::is_backward(op.kind) ? in.grad : in.in)->shape();
    if (n_begin.size() == 1) c1 = primary[1];
    DV_CHECK_EQ(primary[1], c1) << "batch mixes C1 extents";
    n_begin.push_back(n_begin.back() + primary[0]);
  }
  const std::vector<Shard> shards = plan_shards(n_begin.back(), c1, pin);
  DV_CHECK_GE(shards.size(), 1u);

  // Calls f(m, member row, shard row, images) for every member whose rows
  // shard `s` overlaps, and for every empty member positioned within it
  // (which still gets its empty outputs, as a lone run_pool gives it).
  auto for_each_overlap = [&](const Shard& s, auto&& f) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::int64_t lo = std::max(n_begin[m], s.n0);
      const std::int64_t hi = std::min(n_begin[m + 1], s.n0 + s.n_len);
      if (lo < hi || (lo == hi && n_begin[m] == n_begin[m + 1])) {
        f(m, lo - n_begin[m], lo - s.n0, hi - lo);
      }
    }
  };

  std::vector<PoolResult> results(members.size());
  struct ShardRun {
    Shard shard;
    Device::RunResult run;
    std::int64_t in_bytes = 0;
    std::int64_t out_bytes = 0;
  };
  std::vector<ShardRun> runs;
  runs.reserve(shards.size());

  for (const Shard& shard : shards) {
    // The last member starting at or before the shard's first row (so
    // the one holding it, past any empty members); the shard borrows its
    // tensors when it is exactly that member.
    const std::size_t first = static_cast<std::size_t>(
        std::upper_bound(n_begin.begin(), n_begin.end() - 1, shard.n0) -
        n_begin.begin() - 1);
    const bool whole = shard.n_len > 0 && shard.c_len == c1 &&
                       n_begin[first] == shard.n0 &&
                       n_begin[first + 1] == shard.n0 + shard.n_len;
    PoolInputs view = members[whole ? first : 0];  // carries ih/iw
    TensorF16 gathered[3];
    std::int64_t in_bytes = 0;
    int k = 0;
    for (const TensorF16* PoolInputs::*field :
         {&PoolInputs::in, &PoolInputs::mask, &PoolInputs::grad}) {
      TensorF16& part = gathered[k++];
      if (view.*field == nullptr) continue;
      if (!whole) {
        Shape dims = (view.*field)->shape();
        dims.set_dim(0, shard.n_len);
        dims.set_dim(1, shard.c_len);
        part = TensorF16(dims, kUninitialized);  // the members tile it
        for_each_overlap(shard, [&](std::size_t m, std::int64_t mn,
                                    std::int64_t sn, std::int64_t images) {
          copy_blocks(*(members[m].*field), mn, shard.c0, &part, sn, 0,
                      images, shard.c_len);
        });
        view.*field = &part;
      }
      in_bytes += tensor_bytes(*(view.*field));
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.devices[static_cast<std::size_t>(shard.device)]
          .inflight_shards += 1;
    }
    struct InflightScope {
      Cluster* c;
      int device;
      ~InflightScope() {
        std::lock_guard<std::mutex> lock(c->mu_);
        c->stats_.devices[static_cast<std::size_t>(device)].inflight_shards -=
            1;
      }
    } scope{this, shard.device};
    PoolResult res = kernels::run_pool(device(shard.device), op, view);

    ShardRun r{shard, std::move(res.run), in_bytes};
    for (TensorF16 PoolResult::*field :
         {&PoolResult::out, &PoolResult::mask, &PoolResult::grad_in}) {
      TensorF16& part = res.*field;
      if (part.shape().rank() == 0) continue;
      r.out_bytes += tensor_bytes(part);
      if (whole) {
        results[first].*field = std::move(part);
        continue;
      }
      for_each_overlap(shard, [&](std::size_t m, std::int64_t mn,
                                  std::int64_t sn, std::int64_t images) {
        TensorF16& dst = results[m].*field;
        if (dst.shape().rank() == 0) {
          Shape dims = part.shape();
          dims.set_dim(0, n_begin[m + 1] - n_begin[m]);
          dims.set_dim(1, c1);
          dst = TensorF16(dims, kUninitialized);  // the shards tile it
        }
        copy_blocks(part, sn, 0, &dst, mn, shard.c0, images, shard.c_len);
      });
    }
    runs.push_back(std::move(r));
  }

  // Redistribution accounting: scatter transfers (0 -> d) ride distinct
  // links concurrently, as do the gathers (d -> 0), so each leg costs
  // the slowest single transfer while every link's busy time accrues its
  // own transfers serially. The slowest shard bounds the compute leg; its
  // run carries the launch's attribution/profile while summable counters
  // aggregate over all shards.
  std::int64_t scatter_leg = 0, gather_leg = 0;
  std::int64_t redist_transfers = 0, redist_bytes = 0;
  std::size_t critical = 0;
  std::int64_t compute_max = 0, serial_max = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ShardRun& r = runs[i];
    if (r.run.device_cycles > compute_max) {
      compute_max = r.run.device_cycles;
      critical = i;
    }
    serial_max = std::max(serial_max, r.run.device_cycles_serial);
    if (r.shard.device == 0) continue;
    if (r.in_bytes > 0) {
      scatter_leg = std::max(scatter_leg, link_cycles(r.in_bytes));
      redist_transfers += 1;
    }
    if (r.out_bytes > 0) {
      gather_leg = std::max(gather_leg, link_cycles(r.out_bytes));
      redist_transfers += 1;
    }
    redist_bytes += r.in_bytes + r.out_bytes;
  }
  const std::int64_t redist_cycles = scatter_leg + gather_leg;

  Device::RunResult agg = runs[critical].run;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i == critical) continue;
    const Device::RunResult& rr = runs[i].run;
    agg.aggregate += rr.aggregate;
    agg.profile += rr.profile;
    agg.faults += rr.faults;
    agg.host_ns += rr.host_ns;
    agg.host_alloc_ns += rr.host_alloc_ns;
    agg.host_plan_ns += rr.host_plan_ns;
    agg.host_validate_ns += rr.host_validate_ns;
    agg.host_execute_ns += rr.host_execute_ns;
    agg.cores_used += rr.cores_used;
    agg.busiest_unit_cycles =
        std::max(agg.busiest_unit_cycles, rr.busiest_unit_cycles);
    if (rr.vm_end > 0) {
      agg.vm_start = agg.vm_end > 0 ? std::min(agg.vm_start, rr.vm_start)
                                    : rr.vm_start;
      agg.vm_end = std::max(agg.vm_end, rr.vm_end);
    }
  }
  agg.device_cycles = redist_cycles + compute_max;
  agg.device_cycles_serial = redist_cycles + serial_max;
  for (PoolResult& r : results) r.run = agg;

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.launches += 1;
    if (runs.size() >= 2) stats_.sharded_launches += 1;
    stats_.redistribution_transfers += redist_transfers;
    stats_.redistribution_bytes += redist_bytes;
    stats_.redistribution_cycles += redist_cycles;
    const std::size_t d_count = static_cast<std::size_t>(num_devices());
    for (const ShardRun& r : runs) {
      const std::size_t d = static_cast<std::size_t>(r.shard.device);
      DeviceStats& ds = stats_.devices[d];
      ds.launches += 1;
      ds.blocks += r.shard.n_len * r.shard.c_len;
      ds.cycles += r.run.device_cycles;
      if (d == 0) continue;
      if (r.in_bytes > 0) {
        LinkStats& fwd = stats_.links[0 * d_count + d];
        fwd.transfers += 1;
        fwd.bytes += r.in_bytes;
        fwd.cycles += link_cycles(r.in_bytes);
      }
      if (r.out_bytes > 0) {
        LinkStats& back = stats_.links[d * d_count + 0];
        back.transfers += 1;
        back.bytes += r.out_bytes;
        back.cycles += link_cycles(r.out_bytes);
      }
    }
  }
  return results;
}

Cluster::Stats Cluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const LinkStats& l : s.links) {
    s.link_busy_cycles = std::max(s.link_busy_cycles, l.cycles);
  }
  return s;
}

void Cluster::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t devices = stats_.devices.size();
  const std::size_t links = stats_.links.size();
  stats_ = {};
  stats_.devices.resize(devices);
  stats_.links.resize(links);
}

}  // namespace davinci::serve
