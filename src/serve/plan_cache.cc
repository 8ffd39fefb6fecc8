#include "serve/plan_cache.h"

#include "common/check.h"

namespace davinci::serve {

namespace {

void hash_mix(std::size_t& h, std::uint64_t v) {
  // splitmix64-style mixing keeps the window fields from cancelling.
  v += 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  h ^= static_cast<std::size_t>(v ^ (v >> 31));
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t h = 0;
  hash_mix(h, static_cast<std::uint64_t>(k.backward));
  hash_mix(h, static_cast<std::uint64_t>(k.impl));
  const Window2d& w = k.window;
  for (std::int64_t f : {w.kh, w.kw, w.sh, w.sw, w.pt, w.pb, w.pl, w.pr,
                         k.ih, k.iw}) {
    hash_mix(h, static_cast<std::uint64_t>(f));
  }
  hash_mix(h, (k.with_mask ? 2u : 0u) | (k.double_buffer ? 1u : 0u));
  return h;
}

std::optional<PlanKey> plan_key_for(const kernels::PoolOp& op,
                                    std::int64_t ih, std::int64_t iw,
                                    bool double_buffer) {
  using kernels::PoolOpKind;
  if (op.kind == PoolOpKind::kGlobalAvg) return std::nullopt;
  PlanKey key;
  key.window = op.window;
  key.ih = ih;
  key.iw = iw;
  key.double_buffer = double_buffer;
  if (kernels::is_backward(op.kind)) {
    key.backward = true;
  } else {
    key.impl = op.fwd;
    key.with_mask = op.kind == PoolOpKind::kMaxMaskFwd;
    // The plan the forward driver would make for this launch.
    key.double_buffer = kernels::stages_tiles(key.with_mask, double_buffer);
  }
  return key;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  DV_CHECK_GE(capacity_, 1u) << "plan cache needs at least one slot";
}

akg::PoolPlan PlanCache::get(const ArchConfig& arch, const PlanKey& key) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    stats_.hits += 1;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;
  }
  stats_.misses += 1;
  const akg::PoolPlan plan =
      key.backward
          ? akg::plan_bwd(arch, key.window, key.ih, key.iw,
                          key.double_buffer)
          : akg::plan_fwd(key.impl, arch, key.window, key.ih, key.iw,
                          key.with_mask, key.double_buffer);
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.evictions += 1;
  }
  lru_.push_front(Node{key, plan});
  map_.emplace(key, lru_.begin());
  return plan;
}

const akg::PoolPlan* PlanCache::peek(const PlanKey& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second->plan;
}

void PlanCache::clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace davinci::serve
