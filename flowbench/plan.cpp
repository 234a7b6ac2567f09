// `plan`: the paper's LP (15) analysis and the planner's what-if query as
// a fixed mix of ops, no engine involved:
//   * bounds::min_feasible_k on interval and disjoint layouts at
//     m in {64, 128}, with a target Fmax and an offered load;
//   * Figure-10 cells at m = 256: k in {2, ..., 64} in powers of two,
//     s in {0.5, 1, 1.5, 2}, two shuffled permutations, both layouts. Each
//     cell is solved cold (max_load_lp), on one warm MaxLoadSolver chain per
//     (layout, k), and by max_load_flow: three ops per cell.
// Set-up builds each chain's LP skeleton and solves its s = 0 cell (uniform
// popularity, where a Figure-10 sweep starts), which is the same for every
// permutation and seed; each pass's warm chain resumes from that basis.
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "bounds/planner.hpp"
#include "lp/maxload.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"
#include "workload/replication.hpp"

namespace flowbench {
namespace {

using namespace flowsched;

constexpr int kCellM = 256;
constexpr int kPlannerM[] = {64, 128};
constexpr int kPerms = 2;
constexpr double kZipfS[] = {0.5, 1.0, 1.5, 2.0};
constexpr int kMinPasses = 3;

struct Chain {
  ReplicationStrategy strategy;
  int k;
  std::vector<ProcSet> sets;
  MaxLoadSolver pristine;  // after the s = 0 solve; each pass solves on a copy
  double primed_lambda = 0;  // lambda of the s = 0 cell
};

struct Setup {
  std::vector<bounds::PlannerQuery> queries;
  std::vector<Chain> chains;
  std::vector<std::vector<double>> pops;  // per (perm, s), perm-major
  double skeleton_build_ms = 0;
  double prime_solve_ms = 0;
};

Setup build(std::uint64_t seed) {
  Setup s;
  Rng rng(sub_seed(seed, 21));
  for (const int m : kPlannerM) {
    for (const auto structure : {bounds::StructureClass::kInterval, bounds::StructureClass::kDisjoint}) {
      bounds::PlannerQuery q;
      q.m = m;
      q.structure = structure;
      q.target_fmax = static_cast<double>(rng.uniform_int(8, 32));
      q.load = rng.uniform(0.5, 0.9);
      q.zipf_s = 1.0;
      s.queries.push_back(q);
    }
  }
  for (int p = 0; p < kPerms; ++p) {
    const std::uint64_t perm_seed = sub_seed(seed, 30 + static_cast<std::uint64_t>(p));
    for (const double z : kZipfS) {
      // Re-seeding per s gives every exponent the same machine permutation.
      Rng shuffle(perm_seed);
      std::vector<double> pop = zipf(kCellM, z);
      shuffle.shuffle(pop);
      s.pops.push_back(std::move(pop));
    }
  }
  const std::vector<double> uniform(kCellM, 1.0 / kCellM);
  for (const auto strategy : {ReplicationStrategy::kOverlapping, ReplicationStrategy::kDisjoint}) {
    for (int k = 2; k <= 64; k *= 2) {
      const auto t0 = Clock::now();
      std::vector<ProcSet> sets = replica_sets(strategy, k, kCellM);
      MaxLoadSolver solver(sets);
      const auto t1 = Clock::now();
      const double primed = solver.solve_lambda(uniform);
      s.skeleton_build_ms += 1e3 * std::chrono::duration<double>(t1 - t0).count();
      s.prime_solve_ms += 1e3 * seconds_since(t1);
      s.chains.push_back(Chain{strategy, k, std::move(sets), std::move(solver), primed});
    }
  }
  return s;
}

/// Everything one pass answers, and how long each op took.
struct Pass {
  std::vector<bounds::PlannerResult> planned;
  std::vector<double> cold, warm, flow;  // lambda per cell, chain-major
  std::vector<double> op_seconds;        // per op, in a fixed order
  double cold_pivots = 0, warm_pivots = 0;  // traced passes only
};

template <typename F>
auto timed(std::vector<double>* log, F&& f) {
  const auto t0 = Clock::now();
  auto out = f();
  log->push_back(seconds_since(t0));
  return out;
}

Pass run_pass(const Setup& s, bool trace) {
  Pass p;
  for (const bounds::PlannerQuery& q : s.queries) {
    p.planned.push_back(timed(&p.op_seconds, [&] { return bounds::min_feasible_k(q); }));
  }
  for (const Chain& c : s.chains) {
    MaxLoadSolver warm = c.pristine;
    for (const std::vector<double>& pop : s.pops) {
      p.cold.push_back(timed(&p.op_seconds, [&] { return max_load_lp(pop, c.sets).lambda; }));
      p.warm.push_back(timed(&p.op_seconds, [&] { return warm.solve_lambda(pop); }));
      p.flow.push_back(timed(&p.op_seconds, [&] { return max_load_flow(pop, c.sets); }));
      if (trace) {
        p.warm_pivots += static_cast<double>(warm.last_iterations());
        MaxLoadSolver cold = c.pristine;  // max_load_lp's pivots, counted aside
        cold.solve_lambda(pop);
        p.cold_pivots += static_cast<double>(cold.last_iterations());
      }
    }
  }
  return p;
}

std::string fingerprint(const Pass& p) {
  std::ostringstream f;
  for (const bounds::PlannerResult& r : p.planned) {
    f << r.feasible << "/" << r.min_k << "/" << r.saturation_k << "/" << r.adversarial_k
      << "/" << r.min_replicated_k << " " << r.binding << "\n";
  }
  for (const auto* v : {&p.cold, &p.warm, &p.flow}) {
    for (double x : *v) f << exact(x) << " ";
    f << "\n";
  }
  return f.str();
}

void check_pass(const Setup& s, const Pass& p) {
  std::size_t cell = 0;
  bool ok = true;
  for (const Chain& c : s.chains) {
    const ArcLayout layout =
        c.strategy == ReplicationStrategy::kDisjoint ? ArcLayout::kBlocks : ArcLayout::kRing;
    const double hall_uniform = hall_lambda(std::vector<double>(kCellM, 1.0 / kCellM), layout, c.k);
    check(rel_diff(c.primed_lambda, hall_uniform) <= 1e-9,
          "plan: " + to_string(c.strategy) + " k=" + std::to_string(c.k) + " s = 0 lambda " +
              exact(c.primed_lambda) + " agrees with the Hall form " + exact(hall_uniform));
    for (const std::vector<double>& pop : s.pops) {
      const double hall = hall_lambda(pop, layout, c.k);
      for (const double lambda : {p.cold[cell], p.warm[cell], p.flow[cell]}) {
        if (rel_diff(lambda, hall) > 1e-9) {
          ok = false;
          std::fprintf(stderr, "  %s k=%d cell %zu: lambda %s vs Hall %s\n",
                       to_string(c.strategy).c_str(), c.k, cell, exact(lambda).c_str(),
                       exact(hall).c_str());
        }
      }
      ++cell;
    }
  }
  check(ok, "plan: every cold, warm and flow lambda agrees with the Hall form within 1e-9");

  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    const bounds::PlannerQuery& q = s.queries[i];
    const ArcLayout layout =
        q.structure == bounds::StructureClass::kDisjoint ? ArcLayout::kBlocks : ArcLayout::kRing;
    const std::vector<double> pop = zipf(q.m, q.zipf_s);  // worst case: unshuffled
    int expect = 0;
    for (int k = 1; k <= q.m && expect == 0; ++k) {
      if (hall_lambda(pop, layout, k) >= q.load * q.m - 1e-9) expect = k;
    }
    check(p.planned[i].saturation_k == expect,
          "plan: planner saturation_k " + std::to_string(p.planned[i].saturation_k) +
              " is the smallest k whose Hall lambda covers load*m (" + std::to_string(expect) +
              ") at m=" + std::to_string(q.m));
  }
}

// Per-op fast times across passes, summed over the ops in [lo, hi).
double fast_sum(const std::vector<Pass>& passes, std::size_t lo, std::size_t hi,
                std::size_t stride = 1) {
  double total = 0;
  for (std::size_t op = lo; op < hi; op += stride) {
    std::vector<double> t;
    for (const Pass& p : passes) t.push_back(p.op_seconds[op]);
    total += fast_time(t);
  }
  return total;
}

void emit_layers(const Setup& s, const std::vector<Pass>& passes, Result* out) {
  const std::size_t nq = s.queries.size();
  const std::size_t ops = passes.front().op_seconds.size();
  const double cells = static_cast<double>(passes.front().cold.size());
  out->add("bounds.query_ms", "ms", 1e3 * fast_sum(passes, 0, nq) / static_cast<double>(nq));
  out->add("lp.cold_solve_ms", "ms", 1e3 * fast_sum(passes, nq, ops, 3) / cells);
  out->add("lp.warm_solve_ms", "ms", 1e3 * fast_sum(passes, nq + 1, ops, 3) / cells);
  out->add("lp.flow_solve_ms", "ms", 1e3 * fast_sum(passes, nq + 2, ops, 3) / cells);
  out->add("lp.cold_pivots", "count", passes.front().cold_pivots);
  out->add("lp.warm_pivots", "count", passes.front().warm_pivots);
  out->add("lp.skeleton_build_ms", "ms", s.skeleton_build_ms);
  out->add("lp.prime_solve_ms", "ms", s.prime_solve_ms);
}

}  // namespace

Result run_plan(const Options& opts) {
  Result res;
  const Setup s = build(opts.seed);
  const double setup_s = setup_done();

  std::vector<Pass> passes, traced;
  std::string first;
  const auto t0 = Clock::now();
  while (static_cast<int>(passes.size()) < kMinPasses || seconds_since(t0) < opts.seconds) {
    next_cpu();
    passes.push_back(run_pass(s, false));
    res.attempted += static_cast<long long>(passes.back().op_seconds.size());
    const std::string f = fingerprint(passes.back());
    if (first.empty()) {
      first = f;
    } else {
      check(f == first, "plan: identical passes give bitwise-identical answers");
    }
    if (opts.trace) traced.push_back(run_pass(s, true));
  }
  check_pass(s, passes.front());

  const std::size_t ops = passes.front().op_seconds.size();
  std::vector<double> totals;
  for (const Pass& p : passes) {
    totals.push_back(std::accumulate(p.op_seconds.begin(), p.op_seconds.end(), 0.0));
  }
  log_passes(opts.workload, totals);
  const double pass_s = fast_sum(passes, 0, ops);
  if (opts.trace) {
    emit_layers(s, traced, &res);
    res.add("trace.overhead_ns", "ns", 1e9 * (fast_sum(traced, 0, ops) - pass_s) / ops);
  } else {
    res.add("ops_per_s", "op/s", ops / pass_s);
    res.add("setup_s", "s", setup_s);
    res.add("peak_rss_mb", "MB", peak_rss_mb());
  }
  return res;
}

void probe_plan_layers(std::uint64_t seed, Result* out) {
  const Setup s = build(seed);
  const Pass p = run_pass(s, true);
  check_pass(s, p);
  emit_layers(s, {p}, out);
}

}  // namespace flowbench
