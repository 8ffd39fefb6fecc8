#include "serve/cluster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace davinci::serve {

namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolResult;

// The tensors a request reads, as PoolInputs fields.
constexpr const TensorF16* PoolInputs::*kReads[] = {
    &PoolInputs::in, &PoolInputs::mask, &PoolInputs::grad};

// The bytes a map addresses: blocks x slice bytes (0 when absent).
std::int64_t map_bytes(const kernels::SliceMap& m) {
  return m.shape.rank() > 0
             ? m.shape.num_elements() *
                   static_cast<std::int64_t>(sizeof(Float16))
             : 0;
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

Cluster::Cluster(ClusterOptions opts)
    : opts_(opts), link_cost_(CostModel::calibrated()) {
  DV_CHECK_GE(opts_.devices, 1);
  for (int d = 0; d < opts_.devices; ++d) {
    devices_.push_back(std::make_unique<Device>());
  }
  link_cost_.mte_bytes_per_cycle = kLinkBytesPerCycle;
  link_cost_.mte_startup_cycles = kLinkLatencyCycles;
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
  // Every member meets the input contract and has member 0's geometry in
  // every dim but N before anything runs: a shard's maps address every
  // member's slices with member 0's shapes.
  const bool bwd = kernels::is_backward(op.kind);
  const PoolInputs& first = members.front();
  std::vector<std::int64_t> n_begin{0};
  for (const PoolInputs& in : members) {
    kernels::check_inputs(op, in);
    for (auto field : kReads) {
      if (in.*field == nullptr) continue;
      Shape dims = (in.*field)->shape();
      dims.set_dim(0, (first.*field)->shape()[0]);
      DV_CHECK(dims == (first.*field)->shape())
          << op.to_string() << ": batch member "
          << (in.*field)->shape().to_string() << " differs from member 0's "
          << (first.*field)->shape().to_string() << " beyond N";
    }
    DV_CHECK(!bwd || (in.ih == first.ih && in.iw == first.iw))
        << op.to_string() << ": batch member maps back to " << in.ih << "x"
        << in.iw << ", member 0 to " << first.ih << "x" << first.iw;
    n_begin.push_back(
        n_begin.back() + (bwd ? in.grad : in.in)->shape()[0]);
  }
  const std::int64_t c1 = (bwd ? first.grad : first.in)->shape()[1];
  const std::vector<Shard> shards = plan_shards(n_begin.back(), c1, pin);
  DV_CHECK_GE(shards.size(), 1u);

  // Each member's outputs are constructed once, here; every shard writes
  // its slices of them in place.
  bool resilient = false;
  for (const Shard& shard : shards) {
    resilient = resilient || device(shard.device).resilience().has_value();
  }
  std::vector<PoolResult> results;
  results.reserve(members.size());
  for (const PoolInputs& in : members) {
    results.push_back(kernels::make_outputs(op, in, resilient));
  }

  struct ShardRun {
    Shard shard;
    Device::RunResult run;
    std::int64_t in_bytes = 0;
    std::int64_t out_bytes = 0;
  };
  std::vector<ShardRun> runs;
  runs.reserve(shards.size());

  for (const Shard& shard : shards) {
    // The members holding the shard's rows: [lo, hi).
    std::size_t lo = 0;
    while (lo + 1 < members.size() && n_begin[lo + 1] <= shard.n0) ++lo;
    std::size_t hi = lo;
    while (hi < members.size() && n_begin[hi] < shard.n0 + shard.n_len) ++hi;

    // The shard's map of one tensor: slice (n, c) is slice
    // (row, shard.c0 + c) of the member holding stacked row shard.n0 + n.
    auto map = [&](auto tensor_of) {
      kernels::SliceMap m;
      const TensorF16* t0 = tensor_of(std::size_t{0});
      if (t0 == nullptr) return m;
      m.shape = t0->shape();
      m.shape.set_dim(0, shard.n_len);
      m.shape.set_dim(1, shard.c_len);
      const std::int64_t slice = m.shape.stride(1);
      m.base.reserve(static_cast<std::size_t>(shard.n_len * shard.c_len));
      for (std::size_t k = lo; k < hi; ++k) {
        const std::int64_t r0 = std::max(n_begin[k], shard.n0);
        const std::int64_t r1 =
            std::min(n_begin[k + 1], shard.n0 + shard.n_len);
        Float16* data = const_cast<Float16*>(tensor_of(k)->data());
        for (std::int64_t r = r0; r < r1; ++r) {
          Float16* row = data + ((r - n_begin[k]) * c1 + shard.c0) * slice;
          for (std::int64_t c = 0; c < shard.c_len; ++c) {
            m.base.push_back(row + c * slice);
          }
        }
      }
      return m;
    };
    auto input = [&](const TensorF16* PoolInputs::*field) {
      return map([&](std::size_t k) { return members[k].*field; });
    };
    auto output = [&](TensorF16 PoolResult::*field) {
      return map([&](std::size_t k) -> const TensorF16* {
        const TensorF16& t = results[k].*field;
        return t.shape().rank() > 0 ? &t : nullptr;
      });
    };
    const kernels::PoolMaps maps{
        .in = input(&PoolInputs::in),
        .mask = input(&PoolInputs::mask),
        .grad = input(&PoolInputs::grad),
        .out = output(&PoolResult::out),
        .out_mask = output(&PoolResult::mask),
        .grad_in = output(&PoolResult::grad_in)};

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
    ShardRun r{shard, kernels::run_pool_maps(device(shard.device), op, maps)};
    // Each tensor crosses the link as the shard's blocks of it.
    for (const kernels::SliceMap* m : {&maps.in, &maps.mask, &maps.grad}) {
      r.in_bytes += map_bytes(*m);
    }
    for (const kernels::SliceMap* m :
         {&maps.out, &maps.out_mask, &maps.grad_in}) {
      r.out_bytes += map_bytes(*m);
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
