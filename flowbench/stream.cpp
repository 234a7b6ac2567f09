// `stream`: the serving pipeline. simulate_cluster_streaming with EFT-Min
// on m = 256 servers, an overlapping ring with k = 3 and 2^20 keys whose
// Zipf(0.5) popularity the benchmark builds, shuffles and hands to the
// explicit-popularity KeyValueStore constructor. Poisson arrivals at
// 0.75 m, exponential service with mean 1, sketch quantiles.
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "kvstore/cluster_sim.hpp"
#include "kvstore/store.hpp"
#include "obs/sketch.hpp"
#include "oracles.hpp"
#include "sched/dispatchers.hpp"
#include "sched/streaming.hpp"
#include "workload/alias.hpp"

namespace flowbench {
namespace {

using namespace flowsched;

constexpr int kM = 256;
constexpr int kK = 3;
constexpr int kKeys = 1 << 20;
constexpr double kZipfS = 0.5;
constexpr double kLambda = 0.75 * kM;
constexpr long long kPassRequests = 1 << 17;  // one pass, one op per request
constexpr long long kChiDraws = 1 << 22;
constexpr int kMinPasses = 5;
constexpr int kBlock = 512;  // requests per clock read in the traced loop

struct Setup {
  std::optional<KeyValueStore> store;
  std::vector<double> machine_prob;  // the benchmark's own P(owner = j)
  std::uint64_t stream_seed = 0;
  std::uint64_t chi_seed = 0;
  double alias_build_ms = 0;  // traced only: a standalone AliasSampler
  double store_build_ms = 0;  // the KeyValueStore constructor, alias included
};

Setup build(std::uint64_t seed, bool trace) {
  Setup s;
  Rng rng(sub_seed(seed, 1));
  std::vector<double> weights = zipf(kKeys, kZipfS);
  rng.shuffle(weights);
  s.machine_prob.assign(kM, 0.0);
  for (int key = 0; key < kKeys; ++key) {
    s.machine_prob[static_cast<std::size_t>(key % kM)] += weights[static_cast<std::size_t>(key)];
  }
  if (trace) {
    const auto t0 = Clock::now();
    const AliasSampler alias(weights);
    s.alias_build_ms = 1e3 * seconds_since(t0);
  }
  StoreConfig cfg;
  cfg.m = kM;
  cfg.keys = kKeys;
  cfg.strategy = ReplicationStrategy::kOverlapping;
  cfg.k = kK;
  const auto t0 = Clock::now();
  s.store.emplace(cfg, std::move(weights));
  s.store_build_ms = 1e3 * seconds_since(t0);
  s.stream_seed = sub_seed(seed, 2);
  s.chi_seed = sub_seed(seed, 3);
  return s;
}

StreamConfig stream_config() {
  StreamConfig c;
  c.lambda = kLambda;
  c.requests = kPassRequests;
  c.dist = ServiceDist::kExponential;
  return c;
}

std::string fingerprint(const StreamReport& r) {
  std::ostringstream f;
  f << r.sim.requests << " " << exact(r.sim.mean_latency) << " " << exact(r.sim.p50) << " "
    << exact(r.sim.p90) << " " << exact(r.sim.p99) << " " << exact(r.p999) << " "
    << exact(r.sim.max_latency) << " " << exact(r.sim.makespan) << " " << r.peak_backlog
    << " " << r.memory_bytes;
  for (double u : r.sim.utilization) f << " " << exact(u);
  return f.str();
}

// One untraced pass: the program's own pipeline, timed as a whole.
StreamReport pass(const Setup& s, double* seconds) {
  EftDispatcher dispatcher(TieBreakKind::kMin);
  Rng rng(s.stream_seed);
  const auto t0 = Clock::now();
  StreamReport r = simulate_cluster_streaming(*s.store, stream_config(), dispatcher, rng);
  *seconds = seconds_since(t0);
  return r;
}

// The same pipeline driven layer by layer from here, each layer timed over
// blocks of kBlock requests: draws (workload), routing (kvstore), release
// (sched), latency aggregation (obs).
struct TracedPass {
  double draw = 0, route = 0, release = 0, aggregate = 0, total = 0;  // seconds
  double fmax = 0, mean = 0, makespan = 0;
};

TracedPass traced_pass(const Setup& s) {
  TracedPass tp;
  const KeyValueStore& store = *s.store;
  EftDispatcher dispatcher(TieBreakKind::kMin);
  Rng rng(s.stream_seed);
  StreamingEngine engine(kM, dispatcher);
  StreamingQuantiles sketch;
  double t = 0;
  double rel[kBlock], svc[kBlock], flow[kBlock];
  int key[kBlock];
  const ProcSet* sets[kBlock];
  const auto start = Clock::now();
  for (long long i = 0; i < kPassRequests; i += kBlock) {
    const auto c0 = Clock::now();
    for (int b = 0; b < kBlock; ++b) {
      t += rng.exponential(kLambda);
      rel[b] = t;
      key[b] = store.sample_key(rng);
      const double p = rng.exponential(1.0);
      svc[b] = p > 1e-9 ? p : 1e-9;
    }
    const auto c1 = Clock::now();
    for (int b = 0; b < kBlock; ++b) sets[b] = &store.replicas_of_key(key[b]);
    const auto c2 = Clock::now();
    for (int b = 0; b < kBlock; ++b) {
      const Assignment a = engine.release(rel[b], svc[b], *sets[b], i + b);
      flow[b] = a.start + svc[b] - rel[b];
    }
    const auto c3 = Clock::now();
    for (int b = 0; b < kBlock; ++b) sketch.add(flow[b]);
    const auto c4 = Clock::now();
    tp.draw += std::chrono::duration<double>(c1 - c0).count();
    tp.route += std::chrono::duration<double>(c2 - c1).count();
    tp.release += std::chrono::duration<double>(c3 - c2).count();
    tp.aggregate += std::chrono::duration<double>(c4 - c3).count();
  }
  engine.drain();
  tp.total = seconds_since(start);
  tp.fmax = sketch.max();
  tp.mean = sketch.mean();
  for (double c : engine.completions()) tp.makespan = std::max(tp.makespan, c);
  return tp;
}

void check_against_reference(const Setup& s, const StreamReport& r) {
  EftMinReference ref(kM, kK);
  Rng rng(s.stream_seed);
  double t = 0;
  for (long long i = 0; i < kPassRequests; ++i) {
    t += rng.exponential(kLambda);
    const int key = s.store->sample_key(rng);
    const double p = rng.exponential(1.0);
    ref.serve(t, p > 1e-9 ? p : 1e-9, key);
  }
  check(r.sim.requests == ref.requests(), "stream: request count equals the EFT-Min reference");
  check(r.sim.max_latency == ref.fmax(), "stream: Fmax equals the EFT-Min reference bitwise (" +
                                             exact(r.sim.max_latency) + " vs " + exact(ref.fmax()) + ")");
  check(r.sim.makespan == ref.makespan(), "stream: makespan equals the EFT-Min reference bitwise");
  check(rel_diff(r.sim.mean_latency, ref.mean_flow()) <= 1e-12,
        "stream: mean flow within 1e-12 of the EFT-Min reference");
  check(!r.exact_quantiles, "stream: the pass runs in the sketch-quantile regime");
}

void check_sampler(const Setup& s) {
  std::vector<long long> counts(kM, 0);
  Rng rng(s.chi_seed);
  for (long long i = 0; i < kChiDraws; ++i) {
    ++counts[static_cast<std::size_t>(s.store->sample_key(rng) % kM)];
  }
  const ChiSquare fit = chi_square(counts, s.machine_prob);
  check(fit.pass, "stream: machine-level chi-square of sample_key against the Zipf weights (" +
                      exact(fit.statistic) + " >= " + exact(fit.critical) + ")");
}

void emit_layers(const Setup& s, const std::vector<TracedPass>& tps,
                 const StreamReport& r, Result* out) {
  const auto per_request_ns = [&](double TracedPass::*field) {
    std::vector<double> v;
    for (const TracedPass& tp : tps) v.push_back(1e9 * (tp.*field) / kPassRequests);
    return fast_time(v);
  };
  out->add("workload.draw_ns", "ns", per_request_ns(&TracedPass::draw));
  out->add("kvstore.route_ns", "ns", per_request_ns(&TracedPass::route));
  out->add("sched.release_ns", "ns", per_request_ns(&TracedPass::release));
  out->add("obs.aggregate_ns", "ns", per_request_ns(&TracedPass::aggregate));
  out->add("sched.peak_backlog", "count", static_cast<double>(r.peak_backlog));
  out->add("sched.engine_bytes", "B", static_cast<double>(r.memory_bytes));
  out->add("workload.alias_build_ms", "ms", s.alias_build_ms);
  out->add("kvstore.build_ms", "ms", s.store_build_ms);
}

void check_traced(const TracedPass& tp, const StreamReport& r) {
  check(tp.fmax == r.sim.max_latency && tp.makespan == r.sim.makespan &&
            tp.mean == r.sim.mean_latency,
        "stream: the layer-by-layer pass reproduces the pipeline's report");
}

}  // namespace

Result run_stream(const Options& opts) {
  Result res;
  const Setup s = build(opts.seed, opts.trace);
  const double setup_s = setup_done();

  std::vector<double> times;
  std::vector<TracedPass> traced;
  std::string first;
  StreamReport report;
  const auto t0 = Clock::now();
  while (static_cast<int>(times.size()) < kMinPasses || seconds_since(t0) < opts.seconds) {
    next_cpu();
    double secs = 0;
    const StreamReport r = pass(s, &secs);
    times.push_back(secs);
    res.attempted += kPassRequests;
    const std::string f = fingerprint(r);
    if (first.empty()) {
      first = f;
      report = r;
    } else {
      check(f == first, "stream: identical passes give bitwise-identical reports");
    }
    if (opts.trace) {
      traced.push_back(traced_pass(s));
      check_traced(traced.back(), report);
    }
  }
  check_against_reference(s, report);
  check_sampler(s);

  log_passes(opts.workload, times);
  const double pass_s = fast_time(times);
  if (opts.trace) {
    emit_layers(s, traced, report, &res);
    std::vector<double> totals;
    for (const TracedPass& tp : traced) totals.push_back(tp.total);
    res.add("trace.overhead_ns", "ns", 1e9 * (fast_time(totals) - pass_s) / kPassRequests);
  } else {
    res.add("ops_per_s", "op/s", kPassRequests / pass_s);
    res.add("setup_s", "s", setup_s);
    res.add("peak_rss_mb", "MB", peak_rss_mb());
  }
  return res;
}

void probe_stream_layers(std::uint64_t seed, Result* out) {
  const Setup s = build(seed, true);
  double secs = 0;
  const StreamReport r = pass(s, &secs);
  const TracedPass tp = traced_pass(s);
  check_traced(tp, r);
  emit_layers(s, {tp}, r, out);
}

}  // namespace flowbench
