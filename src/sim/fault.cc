#include "sim/fault.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"

namespace davinci {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kBitflipUb: return "bitflip:ub";
    case FaultSite::kBitflipL1: return "bitflip:l1";
    case FaultSite::kBitflipL0: return "bitflip:l0";
    case FaultSite::kMteDrop: return "mte_drop";
    case FaultSite::kScuFractal: return "scu_err";
    case FaultSite::kVecTransient: return "vec_fault";
    case FaultSite::kCoreFail: return "core_fail";
  }
  return "?";
}

bool FaultPlan::empty() const {
  if (!core_failures.empty()) return false;
  for (double r : rate) {
    if (r > 0.0) return false;
  }
  return true;
}

bool FaultPlan::has_silent_sites() const {
  return rate[static_cast<int>(FaultSite::kBitflipUb)] > 0.0 ||
         rate[static_cast<int>(FaultSite::kBitflipL1)] > 0.0 ||
         rate[static_cast<int>(FaultSite::kBitflipL0)] > 0.0 ||
         rate[static_cast<int>(FaultSite::kMteDrop)] > 0.0 ||
         rate[static_cast<int>(FaultSite::kScuFractal)] > 0.0;
}

namespace {

double parse_rate(const std::string& item, const std::string& text) {
  // std::from_chars, not strtod: the spec grammar uses '.' decimals, and
  // strtod would reject them under a comma-decimal locale -- breaking the
  // to_string() round trip exactly where the formatter fix made it safe.
  double r = 0.0;
  const std::from_chars_result res =
      std::from_chars(text.data(), text.data() + text.size(), r);
  DV_CHECK(res.ec == std::errc() && res.ptr == text.data() + text.size())
      << "bad fault rate '" << text << "' in spec item '" << item << "'";
  DV_CHECK(r >= 0.0) << "negative fault rate in spec item '" << item << "'";
  return r;
}

std::int64_t parse_i64(const std::string& item, const std::string& text) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  DV_CHECK(end != nullptr && *end == '\0' && end != text.c_str())
      << "bad integer '" << text << "' in spec item '" << item << "'";
  return static_cast<std::int64_t>(v);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    if (item.rfind("core_fail@", 0) == 0) {
      const std::string args = item.substr(10);
      const std::size_t at = args.find('@');
      CoreFailTrigger t;
      if (at == std::string::npos) {
        t.core = static_cast<int>(parse_i64(item, args));
      } else {
        t.core = static_cast<int>(parse_i64(item, args.substr(0, at)));
        t.from_block = parse_i64(item, args.substr(at + 1));
      }
      DV_CHECK_GE(t.core, 0) << "in spec item '" << item << "'";
      DV_CHECK_GE(t.from_block, 0) << "in spec item '" << item << "'";
      plan.core_failures.push_back(t);
      continue;
    }

    static const struct {
      const char* prefix;
      FaultSite site;
    } kRateSites[] = {
        {"bitflip:ub:", FaultSite::kBitflipUb},
        {"bitflip:l1:", FaultSite::kBitflipL1},
        {"bitflip:l0:", FaultSite::kBitflipL0},
        {"mte_drop:", FaultSite::kMteDrop},
        {"scu_err:", FaultSite::kScuFractal},
        {"vec_fault:", FaultSite::kVecTransient},
    };
    bool matched = false;
    for (const auto& rs : kRateSites) {
      const std::string prefix(rs.prefix);
      if (item.rfind(prefix, 0) == 0) {
        plan.rate[static_cast<int>(rs.site)] =
            parse_rate(item, item.substr(prefix.size()));
        matched = true;
        break;
      }
    }
    DV_CHECK(matched) << "unknown fault spec item '" << item
                      << "' (grammar: core_fail@C[@B], bitflip:ub|l1|l0:R, "
                         "mte_drop:R, scu_err:R, vec_fault:R)";
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string s;
  auto append = [&](const std::string& item) {
    if (!s.empty()) s += ",";
    s += item;
  };
  for (const CoreFailTrigger& t : core_failures) {
    std::string item = "core_fail@" + std::to_string(t.core);
    if (t.from_block != 0) {
      item += '@';
      item += std::to_string(t.from_block);
    }
    append(item);
  }
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (rate[i] > 0.0) {
      // json::number, not std::to_string: fixed-point would print rates
      // below 5e-7 as "0.000000" and break the parse round trip. Unlike
      // the snprintf("%g") it replaces, the shortest-round-trip form is
      // also exact and locale-independent (no ',' decimal separator).
      append(std::string(davinci::to_string(static_cast<FaultSite>(i))) +
             ":" + json::number(rate[i]));
    }
  }
  return s.empty() ? "<empty>" : s;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  faults_injected += o.faults_injected;
  silent_injected += o.silent_injected;
  faults_detected += o.faults_detected;
  faults_absorbed += o.faults_absorbed;
  retries += o.retries;
  verification_runs += o.verification_runs;
  blocks_redispatched += o.blocks_redispatched;
  cores_quarantined += o.cores_quarantined;
  return *this;
}

std::string FaultStats::summary() const {
  std::string s;
  s += "injected=" + std::to_string(faults_injected);
  s += " (silent=" + std::to_string(silent_injected) + ")";
  s += " detected=" + std::to_string(faults_detected);
  s += " absorbed=" + std::to_string(faults_absorbed);
  s += " retries=" + std::to_string(retries);
  s += " verification_runs=" + std::to_string(verification_runs);
  s += " blocks_redispatched=" + std::to_string(blocks_redispatched);
  s += " cores_quarantined=" + std::to_string(cores_quarantined);
  return s;
}

CoreFaultState::CoreFaultState(const FaultPlan& plan, int core)
    : plan_(&plan),
      core_(core),
      rng_(plan.seed ^ (0x9E3779B97F4A7C15ull *
                        (static_cast<std::uint64_t>(core) + 1))) {
  for (const CoreFailTrigger& t : plan.core_failures) {
    if (t.core != core_) continue;
    if (fail_from_block_ < 0 || t.from_block < fail_from_block_) {
      fail_from_block_ = t.from_block;
    }
  }
}

void CoreFaultState::begin_execution(std::int64_t block, bool record_crc) {
  block_ = block;
  attempt_silent_ = 0;
  record_crc_ = record_crc;
  crc_ = 0xCBF29CE484222325ull;  // FNV-1a offset basis
}

void CoreFaultState::check_core_alive(std::int64_t block) {
  if (fail_from_block_ < 0 || block < fail_from_block_) return;
  stats_.faults_injected += 1;
  throw CoreFailed(core_, "injected hard failure: core " +
                              std::to_string(core_) + " is down (block " +
                              std::to_string(block) + ", trigger core_fail@" +
                              std::to_string(core_) + "@" +
                              std::to_string(fail_from_block_) + ")");
}

void CoreFaultState::accept_execution() {
  stats_.faults_absorbed += attempt_silent_;
  attempt_silent_ = 0;
}

bool CoreFaultState::fire(FaultSite site, double events) {
  const double r = plan_->rate[static_cast<int>(site)];
  if (r <= 0.0 || events <= 0.0) return false;
  const double p = std::min(r * events, 1.0);
  return rng_.next_double() < p;
}

std::int64_t CoreFaultState::admit_transfer(std::int64_t count) {
  if (count <= 0 || !fire(FaultSite::kMteDrop, 1.0)) return count;
  stats_.faults_injected += 1;
  stats_.silent_injected += 1;
  attempt_silent_ += 1;
  // The transfer dies partway: [0, moved) arrives, the tail never does.
  return static_cast<std::int64_t>(
      rng_.next_below(static_cast<std::uint64_t>(count)));
}

void CoreFaultState::on_landing(BufferKind dst, std::byte* data,
                                std::int64_t bytes) {
  if (bytes <= 0) return;
  FaultSite site;
  switch (dst) {
    case BufferKind::kUnified: site = FaultSite::kBitflipUb; break;
    case BufferKind::kL1: site = FaultSite::kBitflipL1; break;
    case BufferKind::kL0A:
    case BufferKind::kL0B:
    case BufferKind::kL0C: site = FaultSite::kBitflipL0; break;
    case BufferKind::kGlobal:
    default: return;  // global memory is ECC-protected host DRAM here
  }
  if (!fire(site, static_cast<double>(bytes))) return;
  const std::int64_t byte = static_cast<std::int64_t>(
      rng_.next_below(static_cast<std::uint64_t>(bytes)));
  const int bit = static_cast<int>(rng_.next_below(8));
  data[byte] ^= static_cast<std::byte>(1u << bit);
  stats_.faults_injected += 1;
  stats_.silent_injected += 1;
  attempt_silent_ += 1;
}

void CoreFaultState::on_scu_result(std::byte* data, std::int64_t bytes) {
  if (bytes < 2 || !fire(FaultSite::kScuFractal, 1.0)) return;
  // Garble one fp16 element of the produced fractal grid.
  const std::int64_t elem = static_cast<std::int64_t>(
      rng_.next_below(static_cast<std::uint64_t>(bytes / 2)));
  data[2 * elem] = static_cast<std::byte>(rng_.next_below(256));
  data[2 * elem + 1] = static_cast<std::byte>(rng_.next_below(256));
  stats_.faults_injected += 1;
  stats_.silent_injected += 1;
  attempt_silent_ += 1;
}

std::int64_t CoreFaultState::vector_fault_at(std::int64_t issues) {
  for (std::int64_t i = 0; i < issues; ++i) {
    if (fire(FaultSite::kVecTransient, 1.0)) {
      stats_.faults_injected += 1;
      return i;
    }
  }
  return issues;
}

void CoreFaultState::throw_vector_fault(const char* op) const {
  throw TransientFault("transient vector-unit fault on core " +
                       std::to_string(core_) + " during '" + op +
                       "' (block " + std::to_string(block_) +
                       "); parity detected, block must be retried");
}

void CoreFaultState::crc_note(std::uint64_t value) {
  crc_update(&value, static_cast<std::int64_t>(sizeof(value)));
}

void CoreFaultState::crc_update(const void* data, std::int64_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = crc_;
  for (std::int64_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;  // FNV-1a prime
  }
  crc_ = h;
}

}  // namespace davinci
