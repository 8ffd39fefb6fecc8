// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench --workload=paper_kernels|cluster_heavy --seed=N --seconds=S
//             [--setup-only] [--trace] [--spans-out=path]
//
// It drives the system from outside, through its public entry points
// only: kernels::run_pool on a bare Device, serve::Session::submit over a
// serve::Cluster, and serve::generate_trace / serve::materialize for the
// request stream. Every output it receives is checked bit for bit. The
// last line of stdout is one JSON report (metrics, failure counts, the
// determinism signature, the calibration figures and the steady-clock
// time at which set-up ended); run.py turns it into the benchmark result.
//
// Each process sets up once. --setup-only stops there, so run.py can time
// several set-ups from process start, each in a fresh process. Without
// --trace the run measures the end-to-end metrics. With --trace it runs
// the same loop twice, first untraced and then with spans around each
// public call, and reports the per-layer metrics, each layer's self time
// and the tracing overhead. See perfbench/README.md for the workloads and
// the metric -> layer -> workload map.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "akg/tiling.h"
#include "common/json.h"
#include "common/prng.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"
#include "serve/cluster.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "serve/tracegen.h"
#include "spans.h"
#include "tensor/arena.h"

using namespace davinci;
using kernels::MergeImpl;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;
using perfbench::now_ns;
using perfbench::SpanLog;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool setup_only = false;
  bool trace = false;
  std::string spans_out;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
                b * 0x94D049BB133111EBull + 1);
  return sm.next();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// A "Vm...:" field of /proc/self/status, in MiB.
double vm_status_mb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(std::strlen(key))) / 1024.0;
    }
  }
  return 0.0;
}

double peak_rss_mb() { return vm_status_mb("VmHWM:"); }

// Progress line on stderr with the current and peak resident set.
void note(const char* phase) {
  std::fprintf(stderr, "perfbench: %s (rss %.0f MB, peak %.0f MB)\n", phase,
               vm_status_mb("VmRSS:"), peak_rss_mb());
}

bool same_bits(const TensorF16& a, const TensorF16& b) {
  if (!(a.shape() == b.shape())) return false;
  if (a.shape().rank() == 0) return true;  // both absent (no storage)
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Float16)) ==
         0;
}

bool same_outputs(const PoolResult& got, const PoolResult& want) {
  return same_bits(got.out, want.out) && same_bits(got.mask, want.mask) &&
         same_bits(got.grad_in, want.grad_in);
}

// --- Report -----------------------------------------------------------

struct Report {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::map<std::string, std::int64_t> signature;
  std::vector<std::string> errors;
  std::string calibration = "{}";
  std::int64_t setup_end_ns = 0;  // steady clock, at the first timed request
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // every failure category + mismatches
  std::int64_t mismatches = 0;
  std::map<std::string, std::int64_t> failures;  // by category

  void count_failures(const std::map<std::string, std::int64_t>& by_kind) {
    for (const auto& [kind, n] : by_kind) {
      failures[kind] += n;
      failed += n;
    }
  }

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void error(const std::string& e) {
    errors.push_back(e);
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());
  }

  std::string to_json(const Args& a) const {
    std::string j = "{\"workload\":" + json::escape(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + (a.trace ? "true" : "false") +
                    ",\"setup_end_ns\":" + std::to_string(setup_end_ns) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"mismatches\":" + std::to_string(mismatches) +
                    ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      j += (i ? "," : "") + json::escape(errors[i]);
    }
    j += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      j += (i ? "," : "") + json::escape(name) +
           ":{\"value\":" + json::number(value) +
           ",\"unit\":" + json::escape(unit) + "}";
    }
    j += "},\"signature\":{";
    std::size_t i = 0;
    for (const auto& [k, v] : signature) {
      j += (i++ ? "," : "") + json::escape(k) + ":" + json::number(v);
    }
    j += "},\"failures\":{";
    i = 0;
    for (const auto& [k, v] : failures) {
      j += (i++ ? "," : "") + json::escape(k) + ":" + json::number(v);
    }
    j += "},\"calibration\":" + calibration + "}";
    return j;
  }
};

// --- Per-launch accounting ----------------------------------------------

// Sums over de-duplicated launches: every member of a coalesced batch
// receives the launch's RunResult, so each launch is counted once.
struct LaunchTotals {
  static constexpr Pipe kPipes[4] = {Pipe::kMteIn, Pipe::kScu, Pipe::kVector,
                                     Pipe::kMteOut};
  static constexpr const char* kPipeNames[4] = {"mte_in", "scu", "vector",
                                                "mte_out"};

  std::int64_t launches = 0;
  std::int64_t device_cycles = 0, serial_cycles = 0, cores_used = 0;
  std::int64_t alloc_ns = 0, plan_ns = 0, validate_ns = 0, execute_ns = 0;
  std::int64_t vec_instrs = 0, vec_used = 0, vec_capacity = 0;
  std::int64_t im2col_instrs = 0, col2im_instrs = 0, mte_instrs = 0,
               cube_instrs = 0, gm_bytes = 0;
  std::int64_t pipe[4][3] = {};  // critical core: busy, wait, flag

  void add(const Device::RunResult& r) {
    launches += 1;
    device_cycles += r.device_cycles;
    serial_cycles += r.device_cycles_serial;
    cores_used += r.cores_used;
    alloc_ns += r.host_alloc_ns;
    plan_ns += r.host_plan_ns;
    validate_ns += r.host_validate_ns;
    execute_ns += r.host_execute_ns;
    vec_instrs += r.profile.vec.instrs;
    vec_used += r.profile.vec.slots_used;
    vec_capacity += r.profile.vec.slots_capacity;
    im2col_instrs += r.profile.im2col.instrs;
    col2im_instrs += r.profile.col2im.instrs;
    mte_instrs += r.profile.mte.instrs;
    cube_instrs += r.profile.cube.instrs;
    gm_bytes += r.aggregate.traffic.gm_total();
    for (const CoreAttribution& c : r.attribution.cores) {
      if (c.core != r.attribution.critical_core) continue;
      for (int p = 0; p < 4; ++p) {
        const PipeBuckets& b = c.pipes[static_cast<int>(kPipes[p])];
        pipe[p][0] += b.busy;
        pipe[p][1] += b.wait;
        pipe[p][2] += b.flag;
      }
    }
  }

  std::int64_t sim_instrs() const {
    return vec_instrs + im2col_instrs + col2im_instrs + mte_instrs +
           cube_instrs;
  }

  // The simulated counts, keyed for the determinism check.
  void sign(std::map<std::string, std::int64_t>* s) const {
    (*s)["sim.launches"] = launches;
    (*s)["sim.device_cycles"] = device_cycles;
    (*s)["sim.serial_cycles"] = serial_cycles;
    (*s)["sim.cores_used"] = cores_used;
    (*s)["sim.vec_instrs"] = vec_instrs;
    (*s)["sim.vec_slots_used"] = vec_used;
    (*s)["sim.vec_slots_capacity"] = vec_capacity;
    (*s)["sim.im2col_instrs"] = im2col_instrs;
    (*s)["sim.col2im_instrs"] = col2im_instrs;
    (*s)["sim.mte_instrs"] = mte_instrs;
    (*s)["sim.cube_instrs"] = cube_instrs;
    (*s)["sim.gm_bytes"] = gm_bytes;
    for (int p = 0; p < 4; ++p) {
      const std::string k = std::string("sim.") + kPipeNames[p];
      (*s)[k + ".busy"] = pipe[p][0];
      (*s)[k + ".wait"] = pipe[p][1];
      (*s)[k + ".flag"] = pipe[p][2];
    }
  }

  // Per-launch means of the kernel host buckets and the simulated counts.
  void report(Report* rep) const {
    const double n = launches > 0 ? static_cast<double>(launches) : 1.0;
    rep->add("kernels.execute_us", static_cast<double>(execute_ns) / n / 1e3,
             "us");
    rep->add("kernels.alloc_us", static_cast<double>(alloc_ns) / n / 1e3,
             "us");
    rep->add("kernels.validate_us",
             static_cast<double>(validate_ns) / n / 1e3, "us");
    rep->add("akg.plan_us", static_cast<double>(plan_ns) / n / 1e3, "us");
    rep->add("sim.serial_cycles", static_cast<double>(serial_cycles) / n,
             "cycles");
    rep->add("sim.overlap_ratio",
             serial_cycles > 0 ? static_cast<double>(device_cycles) /
                                     static_cast<double>(serial_cycles)
                               : 0.0,
             "ratio");
    for (int p = 0; p < 4; ++p) {
      const std::string k = std::string("sim.") + kPipeNames[p];
      rep->add(k + ".busy", static_cast<double>(pipe[p][0]) / n, "cycles");
      rep->add(k + ".wait", static_cast<double>(pipe[p][1]) / n, "cycles");
      rep->add(k + ".flag", static_cast<double>(pipe[p][2]) / n, "cycles");
    }
    rep->add("sim.vec_lane_occupancy",
             vec_capacity > 0 ? static_cast<double>(vec_used) /
                                    static_cast<double>(vec_capacity)
                              : 0.0,
             "ratio");
    rep->add("sim.vec_instrs", static_cast<double>(vec_instrs) / n, "count");
    rep->add("sim.im2col_instrs", static_cast<double>(im2col_instrs) / n,
             "count");
    rep->add("sim.col2im_instrs", static_cast<double>(col2im_instrs) / n,
             "count");
    rep->add("sim.gm_bytes", static_cast<double>(gm_bytes) / n, "B");
    rep->add("sim.cores_used_mean", static_cast<double>(cores_used) / n,
             "count");
  }
};

// Key that identifies one launch among the results its members receive.
using LaunchKey = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t>;
LaunchKey launch_key(const Device::RunResult& r) {
  return {r.host_ns, r.host_execute_ns, r.vm_start, r.vm_end};
}

// Child spans built from a RunResult's host buckets, laid back to back
// from `start` inside the parent, plus the launch's VM placement on the
// device-cycle clock.
void add_run_children(SpanLog* log, std::int64_t parent, std::int64_t start,
                      const Device::RunResult& r, std::int64_t request) {
  if (!log->on()) return;
  std::int64_t t = start;
  const std::pair<const char*, const char*> names[4] = {
      {"validate", "kernels"},
      {"plan", "akg"},
      {"alloc", "tensor"},
      {"execute", "sim"}};
  const std::int64_t ns[4] = {r.host_validate_ns, r.host_plan_ns,
                              r.host_alloc_ns, r.host_execute_ns};
  for (int i = 0; i < 4; ++i) {
    log->add(names[i].first, names[i].second, t, t + ns[i], parent, request);
    t += ns[i];
  }
  if (r.vm_end > 0) {
    log->add("vm_placement", "vm", r.vm_start, r.vm_end, parent, request,
             /*cycles=*/true);
  }
}

// The phases a traced run's spans are split by, with the request counts
// each phase's self time is divided by.
struct TracedPhases {
  std::int64_t setup_since = 0, setup_until = 0;
  std::int64_t generated = 0;  // requests the set-up generated
  std::int64_t since = 0, until = 0;
  std::int64_t completed = 0;  // requests completed in [since, until)
  std::int64_t probes = 0;     // check-phase Cluster::run_pool calls
};

// Layer self times and the tracing overhead, per request. Set-up spans
// (input generation and materialization) are charged per request
// generated, spans whose root started in the traced measured phase per
// request completed there; a layer's figure is the sum of the two. The
// cluster layer's comes from the check-phase Cluster::run_pool probes
// (root at or after `until`), per probe call.
void report_self_times(const SpanLog& log, const TracedPhases& ph,
                       double overhead_pct, Report* rep) {
  using perfbench::self_time_by_layer;
  const auto setup =
      self_time_by_layer(log.spans(), ph.setup_since, ph.setup_until);
  const auto traced = self_time_by_layer(log.spans(), ph.since, ph.until);
  const auto probe = self_time_by_layer(log.spans(), ph.until, INT64_MAX);
  auto per = [](const std::map<std::string, std::int64_t>& m,
                const char* layer, std::int64_t n) {
    auto it = m.find(layer);
    if (it == m.end() || n <= 0) return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(n) / 1e3;
  };
  for (const char* layer :
       {"loadgen", "trace", "serve", "kernels", "akg", "tensor", "sim"}) {
    rep->add(std::string(layer) + ".self_us",
             per(setup, layer, ph.generated) +
                 per(traced, layer, ph.completed),
             "us");
  }
  rep->add("cluster.self_us", per(probe, "cluster", ph.probes), "us");
  std::int64_t vm_cycles = 0, vm_spans = 0;
  for (const perfbench::Span& s : log.spans()) {
    if (!s.cycles) continue;
    vm_cycles += s.end - s.start;
    vm_spans += 1;
  }
  rep->add("vm.span_cycles",
           vm_spans > 0 ? static_cast<double>(vm_cycles) /
                              static_cast<double>(vm_spans)
                        : 0.0,
           "cycles");
  rep->add("bench.trace_overhead_pct", overhead_pct, "%");
  rep->add("bench.spans", static_cast<double>(log.spans().size()), "count");
}

void report_arena(const TensorArena::Stats& a, Report* rep) {
  const std::int64_t acquires = a.allocs + a.reuses;
  rep->add("tensor.arena_reuse_rate",
           acquires > 0 ? static_cast<double>(a.reuses) /
                              static_cast<double>(acquires)
                        : 0.0,
           "ratio");
  rep->add("tensor.arena_peak_pooled_mb",
           static_cast<double>(a.peak_pooled_bytes) / (1024.0 * 1024.0),
           "MB");
}

// Serving-layer and cluster-layer metrics from a session's stats.
void report_session(const serve::SessionStats& s, double submit_blocked_us,
                    Report* rep) {
  rep->add("serve.plan_cache_hit_rate", s.plan_cache.hit_rate(), "ratio");
  rep->add("serve.queue_wait_p50_us", s.queue_wait.p50, "us");
  rep->add("serve.queue_wait_p99_us", s.queue_wait.p99, "us");
  rep->add("serve.avg_batch", s.avg_batch, "count");
  rep->add("serve.launches", static_cast<double>(s.launches), "count");
  rep->add("serve.submit_blocked_us", submit_blocked_us, "us");
  rep->add("serve.peak_queue_depth", static_cast<double>(s.peak_queue_depth),
           "count");
  rep->add("vm.makespan_cycles", static_cast<double>(s.vm.makespan),
           "cycles");
  rep->add("vm.overlap_cycles", static_cast<double>(s.vm.overlap_cycles),
           "cycles");
  rep->add("vm.window_stalls", static_cast<double>(s.vm.window_stalls),
           "count");
  rep->add("cluster.redistribution_bytes",
           static_cast<double>(s.cluster.redistribution_bytes), "B");
  rep->add("cluster.redistribution_cycles",
           static_cast<double>(s.cluster.redistribution_cycles), "cycles");
  rep->add("cluster.link_busy_cycles",
           static_cast<double>(s.cluster.link_busy_cycles), "cycles");
  rep->add("cluster.sharded_launches",
           static_cast<double>(s.cluster.sharded_launches), "count");
  std::int64_t lo = 0, hi = 0;
  for (std::size_t d = 0; d < s.cluster.devices.size(); ++d) {
    const std::int64_t c = s.cluster.devices[d].cycles;
    lo = d == 0 ? c : std::min(lo, c);
    hi = d == 0 ? c : std::max(hi, c);
  }
  rep->add("cluster.device_imbalance",
           lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 1.0,
           "ratio");
}

void write_spans(const Args& a, const SpanLog& log, Report* rep) {
  if (!a.spans_out.empty() && !perfbench::write_spans(log.spans(),
                                                      a.spans_out)) {
    rep->error("cannot write " + a.spans_out);
  }
}

// --- paper_kernels --------------------------------------------------------

struct KernelProblem {
  TensorF16 in, mask, grad;
  std::int64_t ih = 0, iw = 0;
};

struct KernelCase {
  std::string shape;  // "H,W,C" as in the committed bench baselines
  std::string impl;
  std::string group;  // table1 | fig7_mask | fig7_bwd | fig8
  PoolOp op;
  std::size_t problem = 0;
  PoolResult want;  // outputs from src/ref/
};

struct KernelSweep {
  std::vector<KernelProblem> problems;
  std::vector<KernelCase> cases;
};

std::string hwc(std::int64_t h, std::int64_t w, std::int64_t c) {
  return std::to_string(h) + "," + std::to_string(w) + "," +
         std::to_string(c);
}

// The fixed sweep: every Table I layer forward (direct, im2col); the
// three Fig. 7 InceptionV3 shapes with mask (direct, im2col) and backward
// (vadd, col2im); the Fig. 8 stride points (direct, im2col, expansion and,
// at stride 2, X-Y split). Inputs come from the seed.
KernelSweep make_sweep(std::uint64_t seed, const ArchConfig& arch,
                       SpanLog* log) {
  const std::int64_t t0 = now_ns();
  KernelSweep sw;
  auto input = [&](std::int64_t c1, std::int64_t h, std::int64_t w) {
    KernelProblem p;
    p.in = TensorF16(Shape{1, c1, h, w, kC0}, kUninitialized);
    p.in.fill_random_ints(mix(seed, sw.problems.size()));
    p.ih = h;
    p.iw = w;
    sw.problems.push_back(std::move(p));
    return sw.problems.size() - 1;
  };
  auto fwd_case = [&](const std::string& group, const std::string& shape,
                      std::size_t prob, PoolOpKind kind, const Window2d& w,
                      akg::PoolImpl impl) {
    KernelCase c;
    c.shape = shape;
    c.impl = akg::to_string(impl);
    c.group = group;
    c.op = PoolOp{.kind = kind, .window = w, .fwd = impl};
    c.problem = prob;
    sw.cases.push_back(std::move(c));
  };
  for (const nets::PoolLayer& l : nets::table1_layers()) {
    const std::size_t p = input(c1_of(l.c), l.h, l.w);
    for (akg::PoolImpl impl : {akg::PoolImpl::kDirect, akg::PoolImpl::kIm2col}) {
      fwd_case("table1", hwc(l.h, l.w, l.c), p, PoolOpKind::kMaxFwd, l.window,
               impl);
    }
  }
  for (const nets::PoolLayer& l : nets::inception_v3_fig7_layers()) {
    const std::size_t p = input(c1_of(l.c), l.h, l.w);
    for (akg::PoolImpl impl : {akg::PoolImpl::kDirect, akg::PoolImpl::kIm2col}) {
      fwd_case("fig7_mask", hwc(l.h, l.w, l.c), p, PoolOpKind::kMaxMaskFwd,
               l.window, impl);
    }
    KernelProblem& prob = sw.problems[p];
    prob.mask = ref::maxpool_argmax_mask(prob.in, l.window);
    prob.grad = TensorF16(Shape{1, c1_of(l.c), l.window.out_h(l.h),
                                l.window.out_w(l.w), kC0},
                          kUninitialized);
    prob.grad.fill_random_ints(mix(seed, p, 1), 0, 5);
    for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      KernelCase c;
      c.shape = hwc(l.h, l.w, l.c);
      c.impl = kernels::to_string(m);
      c.group = "fig7_bwd";
      c.op = PoolOp{.kind = PoolOpKind::kMaxBwd, .window = l.window,
                    .merge = m};
      c.problem = p;
      sw.cases.push_back(std::move(c));
    }
  }
  for (std::int64_t s : {1, 2, 3}) {
    const Window2d w = Window2d::pool(3, s);
    const std::int64_t threshold = akg::tiling_threshold(arch, w);
    for (std::int64_t h = 9; h <= threshold; h += 2) {
      const std::size_t p = input(1, h, h);
      std::vector<akg::PoolImpl> impls = {akg::PoolImpl::kDirect,
                                          akg::PoolImpl::kIm2col,
                                          akg::PoolImpl::kExpansion};
      if (s == 2) impls.push_back(akg::PoolImpl::kXYSplit);
      for (akg::PoolImpl impl : impls) {
        fwd_case("fig8_s" + std::to_string(s), hwc(h, h, kC0), p,
                 PoolOpKind::kMaxFwd, w, impl);
      }
    }
  }
  log->add("generate_inputs", "loadgen", t0, now_ns());
  return sw;
}

kernels::PoolInputs kernel_inputs(const KernelProblem& p, const PoolOp& op) {
  if (kernels::is_backward(op.kind)) {
    return {.mask = &p.mask, .grad = &p.grad, .ih = p.ih, .iw = p.iw};
  }
  return {.in = &p.in};
}

void compute_references(KernelSweep* sw) {
  for (KernelCase& c : sw->cases) {
    const KernelProblem& p = sw->problems[c.problem];
    const Window2d& w = c.op.window;
    switch (c.op.kind) {
      case PoolOpKind::kMaxFwd:
        c.want.out = ref::maxpool_fwd(p.in, w);
        break;
      case PoolOpKind::kMaxMaskFwd:
        c.want.out = ref::maxpool_fwd(p.in, w);
        c.want.mask = ref::maxpool_argmax_mask(p.in, w);
        break;
      case PoolOpKind::kMaxBwd:
        c.want.grad_in = ref::maxpool_bwd(p.mask, p.grad, w, p.ih, p.iw);
        break;
      default:
        DV_CHECK(false) << "paper_kernels: no reference for "
                        << c.op.to_string();
    }
  }
}

struct SweepResult {
  double wall_s = 0.0;
  LaunchTotals totals;
  std::vector<double> latency_ms;
  std::vector<std::int64_t> cycles;  // per case
  std::int64_t mismatches = 0;
  std::int64_t failed = 0;
};

SweepResult run_sweep(Device& dev, const KernelSweep& sw, bool verify,
                      SpanLog* log, std::int64_t* call_id) {
  SweepResult out;
  const std::int64_t t_sweep = now_ns();
  for (const KernelCase& c : sw.cases) {
    const kernels::PoolInputs in = kernel_inputs(sw.problems[c.problem], c.op);
    const std::int64_t t0 = now_ns();
    PoolResult r;
    try {
      r = kernels::run_pool(dev, c.op, in);
    } catch (const Error& e) {
      std::fprintf(stderr, "perfbench: %s %s failed: %s\n", c.shape.c_str(),
                   c.impl.c_str(), e.what());
      out.failed += 1;
      out.cycles.push_back(-1);
      continue;
    }
    const std::int64_t t1 = now_ns();
    const std::int64_t id = (*call_id)++;
    if (log->on()) {
      const std::int64_t span = log->add("run_pool", "kernels", t0, t1, -1, id);
      add_run_children(log, span, t0, r.run, id);
    }
    out.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out.totals.add(r.run);
    out.cycles.push_back(r.run.device_cycles);
    if (verify && !same_outputs(r, c.want)) {
      std::fprintf(stderr, "perfbench: MISMATCH %s %s %s\n", c.group.c_str(),
                   c.shape.c_str(), c.impl.c_str());
      out.mismatches += 1;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - t_sweep) / 1e9;
  return out;
}

void run_paper_kernels(const Args& a, Report* rep) {
  SpanLog log(a.trace);
  SpanLog quiet(false);
  TracedPhases ph;
  ph.setup_since = now_ns();
  KernelSweep sw = make_sweep(a.seed, ArchConfig::ascend910(), &log);
  Device dev;
  std::int64_t call_id = 0;
  run_sweep(dev, sw, /*verify=*/false, &quiet, &call_id);  // warm-up
  ph.setup_until = rep->setup_end_ns = now_ns();
  ph.generated = static_cast<std::int64_t>(sw.cases.size());
  if (a.setup_only) return;
  compute_references(&sw);
  TensorArena::global().reset_stats();

  // Measured phase. Traced runs split it: untraced half, then traced half.
  std::vector<SweepResult> sweeps;
  auto measure = [&](double seconds, SpanLog* l) {
    std::vector<SweepResult> got;
    const std::int64_t t0 = now_ns();
    do {
      got.push_back(run_sweep(dev, sw, /*verify=*/true, l, &call_id));
    } while (static_cast<double>(now_ns() - t0) / 1e9 < seconds ||
             got.size() < 2);
    return got;
  };
  double overhead_pct = 0.0;
  if (a.trace) {
    std::vector<SweepResult> plain = measure(a.seconds / 2, &quiet);
    ph.since = now_ns();
    std::vector<SweepResult> traced = measure(a.seconds / 2, &log);
    ph.until = now_ns();
    ph.completed = static_cast<std::int64_t>(traced.size() * sw.cases.size());
    auto med_wall = [](const std::vector<SweepResult>& v) {
      std::vector<double> w;
      for (const SweepResult& s : v) w.push_back(s.wall_s);
      return median(w);
    };
    overhead_pct = (med_wall(traced) / med_wall(plain) - 1.0) * 100.0;
    sweeps = plain;
    sweeps.insert(sweeps.end(), traced.begin(), traced.end());
  } else {
    sweeps = measure(a.seconds, &quiet);
  }
  const double rss = peak_rss_mb();

  // Correctness, failures and the in-invocation determinism check.
  std::vector<double> lat, rps, ips;
  for (const SweepResult& s : sweeps) {
    rep->attempted += static_cast<std::int64_t>(sw.cases.size());
    rep->failed += s.failed + s.mismatches;
    rep->mismatches += s.mismatches;
    lat.insert(lat.end(), s.latency_ms.begin(), s.latency_ms.end());
    rps.push_back(static_cast<double>(sw.cases.size()) / s.wall_s);
    ips.push_back(static_cast<double>(s.totals.sim_instrs()) / s.wall_s);
    if (s.cycles != sweeps.front().cycles) {
      rep->error("paper_kernels: per-call device cycles differ between "
                 "sweeps of one invocation");
    }
    std::map<std::string, std::int64_t> sig, first;
    s.totals.sign(&sig);
    sweeps.front().totals.sign(&first);
    if (sig != first) {
      rep->error("paper_kernels: simulated counts differ between sweeps");
    }
  }
  const SweepResult& s0 = sweeps.front();
  s0.totals.sign(&rep->signature);
  rep->signature["sim_cycles"] = s0.totals.device_cycles;

  // Fig. 7a calibration figures: the InceptionV3 Table I rows.
  std::string cal = "{\"fig7a\":[";
  bool first = true;
  for (std::size_t i = 0; i < sw.cases.size(); ++i) {
    const KernelCase& c = sw.cases[i];
    if (c.group != "table1") continue;
    bool fig7 = false;
    for (const nets::PoolLayer& l : nets::inception_v3_fig7_layers()) {
      fig7 |= c.shape == hwc(l.h, l.w, l.c);
    }
    if (!fig7) continue;
    cal += std::string(first ? "" : ",") + "{\"shape\":" +
           json::escape(c.shape) + ",\"impl\":" + json::escape(c.impl) +
           ",\"cycles\":" + json::number(s0.cycles[i]) + "}";
    first = false;
  }
  rep->calibration = cal + "]}";

  if (!a.trace) {
    rep->add("throughput_rps", median(rps), "1/s");
    rep->add("latency_p50_ms", percentile(lat, 0.50), "ms");
    rep->add("latency_p99_ms", percentile(lat, 0.99), "ms");
    rep->add("sim_cycles", static_cast<double>(s0.totals.device_cycles),
             "cycles");
    rep->add("sim_instrs_per_s", median(ips), "1/s");
    rep->add("peak_rss_mb", rss, "MB");
    return;
  }
  s0.totals.report(rep);
  report_session(serve::SessionStats{}, 0.0, rep);  // bypassed: zeros
  report_arena(TensorArena::global().stats(), rep);
  rep->add("trace.materialize_ms", 0.0, "ms");  // bypassed
  report_self_times(log, ph, overhead_pct, rep);
  write_spans(a, log, rep);
}

// Counts a failed future by category.
void count_failure(const std::exception_ptr& ep, std::map<std::string,
                   std::int64_t>* by_kind) {
  try {
    std::rethrow_exception(ep);
  } catch (const serve::DeadlineExceeded&) {
    (*by_kind)["expired"] += 1;
  } catch (const serve::Overloaded&) {
    (*by_kind)["shed_or_rejected"] += 1;  // one exception type for both
  } catch (const serve::Cancelled&) {
    (*by_kind)["cancelled"] += 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
    (*by_kind)["failed"] += 1;
  }
}

// Runs `e` through a standalone Cluster::run_pool (the cluster layer's
// public entry) under a span, and checks it against `want`.
bool probe_cluster(serve::Cluster* cluster, const serve::TraceEntry& e,
                   const serve::MaterializedRequest& m, const PoolResult& want,
                   SpanLog* log, std::int64_t id) {
  const std::int64_t t0 = now_ns();
  serve::Cluster::Launch l = cluster->run_pool(e.op, m.inputs());
  const std::int64_t t1 = now_ns();
  if (log->on()) {
    const std::int64_t span =
        log->add("cluster_run_pool", "cluster", t0, t1, -1, id);
    add_run_children(log, span, t0, l.result.run, id);
  }
  return same_outputs(l.result, want);
}

// --- cluster_heavy ----------------------------------------------------------

constexpr int kHeavyDevices = 4;
constexpr std::size_t kHeavyMaxBatch = 32;

// The trace is the CI cluster gate's configuration (davinci_tracegen
// --requests=256 --seed=11 --burst=6 --max-n=8, replayed by davinci_serve
// with --max-batch=32): a heavy tail with tracegen's default hot-shape
// skew (80% of bursts on 3 hot shapes) and 20% backward bursts. It is
// fixed, so the measured passes reproduce the committed cycle totals;
// the workload seed fills the tensors.
serve::TracegenOptions heavy_trace_options() {
  serve::TracegenOptions to;
  to.requests = 256;
  to.seed = 11;
  to.burst_mean = 6.0;
  to.max_n = 8;
  return to;
}

std::unique_ptr<serve::Session> make_heavy_session(int devices) {
  serve::ClusterOptions co;
  co.devices = devices;
  co.placement = serve::Placement::kData;
  serve::SessionOptions so;
  so.max_batch = kHeavyMaxBatch;
  return std::make_unique<serve::Session>(serve::Cluster(co), so);
}

struct PassResult {
  double wall_s = 0.0;
  std::int64_t requests = 0;
  std::map<std::string, std::int64_t> failures;
  LaunchTotals totals;
  serve::SessionStats stats;
  double submit_blocked_us = 0.0;
};

// One pass of the trace in paused admission windows of queue_depth
// requests, so coalescing -- and every simulated count -- is the same on
// every pass. `keep` receives the results of the sampled requests.
PassResult run_pass(serve::Session* s,
                    const std::vector<serve::TraceEntry>& trace,
                    const std::vector<serve::MaterializedRequest>& inputs,
                    const std::vector<std::size_t>& sample,
                    std::map<std::size_t, PoolResult>* keep, SpanLog* log) {
  PassResult res;
  s->reset_stats();
  struct Sent {
    std::future<PoolResult> f;
    std::size_t request;
    std::int64_t t_call, trace_id;
  };
  std::vector<Sent> sent;
  std::vector<std::size_t> burst_of;
  for (std::size_t b = 0; b < trace.size(); ++b) {
    for (int r = 0; r < trace[b].repeat; ++r) burst_of.push_back(b);
  }
  const std::size_t window = s->options().queue_depth;
  double blocked_ns = 0.0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < burst_of.size(); i += window) {
    s->pause();
    for (std::size_t r = i; r < std::min(i + window, burst_of.size()); ++r) {
      const std::size_t b = burst_of[r];
      std::int64_t trace_id = -1;
      serve::SubmitOptions sub;
      sub.trace_id = &trace_id;
      const std::int64_t t_call = now_ns();
      std::future<PoolResult> f =
          s->submit(trace[b].op, inputs[b].inputs(), sub);
      const std::int64_t t_ret = now_ns();
      blocked_ns += static_cast<double>(t_ret - t_call);
      log->add("submit", "serve", t_call, t_ret, -1, trace_id);
      sent.push_back(Sent{std::move(f), r, t_call, trace_id});
      // The generator's own work between two submits.
      log->add("dispatch", "loadgen", t_ret, now_ns(), -1, trace_id);
    }
    s->resume();
    s->drain();
  }
  res.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  res.requests = static_cast<std::int64_t>(sent.size());
  res.submit_blocked_us =
      blocked_ns / static_cast<double>(std::max<std::size_t>(1, sent.size())) /
      1e3;
  res.stats = s->stats();

  // Traced passes rebuild each request's submit -> completed span from
  // the session's lifecycle ring (it holds a whole pass).
  std::map<std::int64_t, double> completed_us;
  if (log->on()) {
    for (const serve::ReqEvent& ev : s->request_events()) {
      if (ev.kind == serve::ReqEventKind::kCompleted) {
        completed_us[ev.request] = static_cast<double>(ev.a);
      }
    }
  }
  std::set<LaunchKey> seen;
  std::set<std::size_t> sampled(sample.begin(), sample.end());
  for (Sent& x : sent) {
    try {
      PoolResult r = x.f.get();
      auto it = completed_us.find(x.trace_id);
      const double lat_us = it == completed_us.end() ? 0.0 : it->second;
      const std::int64_t t_done =
          x.t_call + static_cast<std::int64_t>(lat_us * 1e3);
      const std::int64_t span =
          log->add("resolve", "serve", x.t_call, t_done, -1, x.trace_id);
      if (seen.insert(launch_key(r.run)).second) {
        res.totals.add(r.run);
        add_run_children(log, span,
                         std::max(x.t_call, t_done - r.run.host_ns), r.run,
                         x.trace_id);
      }
      if (sampled.count(x.request)) (*keep)[x.request] = std::move(r);
    } catch (...) {
      count_failure(std::current_exception(), &res.failures);
    }
  }
  return res;
}

void sign_cluster(const serve::SessionStats& s,
                  std::map<std::string, std::int64_t>* sig) {
  (*sig)["sim_cycles"] = s.cluster_makespan;
  (*sig)["cluster.redistribution_bytes"] = s.cluster.redistribution_bytes;
  (*sig)["cluster.redistribution_cycles"] = s.cluster.redistribution_cycles;
  (*sig)["cluster.link_busy_cycles"] = s.cluster.link_busy_cycles;
  (*sig)["cluster.sharded_launches"] = s.cluster.sharded_launches;
  (*sig)["cluster.launches"] = s.cluster.launches;
  for (std::size_t d = 0; d < s.cluster.devices.size(); ++d) {
    (*sig)["cluster.device" + std::to_string(d) + ".cycles"] =
        s.cluster.devices[d].cycles;
  }
  (*sig)["vm.makespan_cycles"] = s.vm.makespan;
  (*sig)["vm.overlap_cycles"] = s.vm.overlap_cycles;
  (*sig)["vm.window_stalls"] = s.vm.window_stalls;
  (*sig)["vm.hazard_stalls"] = s.vm.hazard_stalls;
}

void run_cluster_heavy(const Args& a, Report* rep) {
  SpanLog log(a.trace);
  SpanLog quiet(false);
  TracedPhases ph;
  ph.setup_since = now_ns();
  const std::vector<serve::TraceEntry> trace =
      serve::generate_trace(heavy_trace_options());
  const std::int64_t t1 = now_ns();
  log.add("generate_trace", "trace", ph.setup_since, t1);
  std::vector<serve::MaterializedRequest> inputs;
  for (std::size_t b = 0; b < trace.size(); ++b) {
    inputs.push_back(serve::materialize(trace[b], mix(a.seed, b)));
  }
  const std::int64_t t2 = now_ns();
  log.add("materialize", "trace", t1, t2);
  std::unique_ptr<serve::Session> session = make_heavy_session(kHeavyDevices);
  std::map<std::size_t, PoolResult> kept;
  run_pass(session.get(), trace, inputs, {}, &kept, &quiet);  // warm-up
  ph.setup_until = rep->setup_end_ns = now_ns();
  note("cluster_heavy: set up");
  std::int64_t total_requests = 0;
  for (const serve::TraceEntry& e : trace) total_requests += e.repeat;
  ph.generated = total_requests;
  if (a.setup_only) return;

  // Seeded sample of requests to check against the bare-device oracle.
  std::vector<std::size_t> sample;
  {
    Xoshiro256 rng(mix(a.seed, 0x5A));
    for (int i = 0; i < 12; ++i) {
      sample.push_back(static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(total_requests))));
    }
  }

  TensorArena::global().reset_stats();
  std::vector<PassResult> passes;
  auto measure = [&](double seconds, SpanLog* l) {
    std::vector<PassResult> got;
    const std::int64_t t0 = now_ns();
    do {
      got.push_back(run_pass(session.get(), trace, inputs, sample, &kept, l));
    } while (static_cast<double>(now_ns() - t0) / 1e9 < seconds ||
             got.size() < 2);
    return got;
  };
  double overhead_pct = 0.0;
  if (a.trace) {
    std::vector<PassResult> plain = measure(a.seconds / 2, &quiet);
    ph.since = now_ns();
    std::vector<PassResult> traced = measure(a.seconds / 2, &log);
    ph.until = now_ns();
    for (const PassResult& p : traced) ph.completed += p.requests;
    auto med_wall = [](const std::vector<PassResult>& v) {
      std::vector<double> w;
      for (const PassResult& p : v) w.push_back(p.wall_s);
      return median(w);
    };
    overhead_pct = (med_wall(traced) / med_wall(plain) - 1.0) * 100.0;
    passes = std::move(plain);
    for (PassResult& p : traced) passes.push_back(std::move(p));
  } else {
    passes = measure(a.seconds, &quiet);
  }
  const double rss = peak_rss_mb();
  note("cluster_heavy: measured");

  // Per pass: throughput, simulator speed and the per-request latency
  // (submit -> future completed) quantiles; the reported figures are
  // medians over passes.
  std::vector<double> rps, ips, p50, p99;
  std::map<std::string, std::int64_t> first_sig;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    rep->attempted += p.requests;
    rep->count_failures(p.failures);
    rps.push_back(static_cast<double>(p.requests) / p.wall_s);
    ips.push_back(static_cast<double>(p.totals.sim_instrs()) / p.wall_s);
    p50.push_back(p.stats.latency_exact.p50 / 1e3);
    p99.push_back(p.stats.latency_exact.p99 / 1e3);
    std::map<std::string, std::int64_t> sig;
    p.totals.sign(&sig);
    sign_cluster(p.stats, &sig);
    if (i == 0) {
      first_sig = sig;
    } else if (sig != first_sig) {
      rep->error("cluster_heavy: simulated counts differ between passes");
    }
  }
  rep->signature = first_sig;

  // Oracle check of the sampled requests: alone on a bare Device, and
  // through a standalone 4-device Cluster::run_pool (the cluster span).
  {
    std::vector<std::size_t> burst_of;
    for (std::size_t b = 0; b < trace.size(); ++b) {
      for (int r = 0; r < trace[b].repeat; ++r) burst_of.push_back(b);
    }
    serve::ClusterOptions co;
    co.devices = kHeavyDevices;
    serve::Cluster probe(co);
    Device bare;
    for (std::size_t req : sample) {
      const std::size_t b = burst_of[req];
      const PoolResult want =
          kernels::run_pool(bare, trace[b].op, inputs[b].inputs());
      auto it = kept.find(req);
      const bool served_ok = it != kept.end() && same_outputs(it->second, want);
      const bool probe_ok = probe_cluster(&probe, trace[b], inputs[b], want,
                                          &log,
                                          static_cast<std::int64_t>(req));
      if (!served_ok || !probe_ok) {
        std::fprintf(stderr, "perfbench: MISMATCH request %zu (%s)\n", req,
                     trace[b].op.to_string().c_str());
        rep->mismatches += 1;
        rep->failed += 1;
      }
    }
    ph.probes = static_cast<std::int64_t>(sample.size());
  }

  // Calibration against the committed CI cluster gate: the measured
  // passes give its 4-device figure; one pass on one device gives the
  // committed total.
  const PassResult& p0 = passes.front();
  const PassResult d1 =
      run_pass(make_heavy_session(1).get(), trace, inputs, {}, &kept, &quiet);
  if (!d1.failures.empty()) {
    rep->error("cluster_heavy: one-device calibration requests failed");
  }
  rep->calibration =
      "{\"cluster_d1_cycles\":" + json::number(d1.stats.cluster_makespan) +
      ",\"cluster_d4_cycles\":" + json::number(p0.stats.cluster_makespan) +
      "}";

  if (!a.trace) {
    rep->add("throughput_rps", median(rps), "1/s");
    rep->add("latency_p50_ms", median(p50), "ms");
    rep->add("latency_p99_ms", median(p99), "ms");
    rep->add("sim_cycles", static_cast<double>(p0.stats.cluster_makespan),
             "cycles");
    rep->add("sim_instrs_per_s", median(ips), "1/s");
    rep->add("peak_rss_mb", rss, "MB");
    return;
  }
  p0.totals.report(rep);
  report_session(p0.stats, p0.submit_blocked_us, rep);
  report_arena(TensorArena::global().stats(), rep);
  rep->add("trace.materialize_ms", static_cast<double>(t2 - t1) / 1e6, "ms");
  report_self_times(log, ph, overhead_pct, rep);
  write_spans(a, log, rep);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=paper_kernels|cluster_heavy "
               "--seed=N --seconds=S [--setup-only] [--trace] "
               "[--spans-out=path]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::stoull(v);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::stod(v);
    } else if (const char* v = value("--spans-out=")) {
      a.spans_out = v;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else {
      return usage();
    }
  }
  if (a.seconds <= 0) return usage();

  Report rep;
  try {
    if (a.workload == "paper_kernels") {
      run_paper_kernels(a, &rep);
    } else if (a.workload == "cluster_heavy") {
      run_cluster_heavy(a, &rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    rep.error(std::string("aborted: ") + e.what());
  }
  std::printf("%s\n", rep.to_json(a).c_str());
  return rep.errors.empty() && rep.mismatches == 0 ? 0 : 1;
}
