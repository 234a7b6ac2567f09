// `adaptive`: run_adaptive with EFT-Min on m = 256 under a seeded
// crash/repair plan (MTBF 48, mean down time 3, backoff recovery). Keys are
// uniform over 4m and owned by key mod m; arrivals are Poisson at 0.7 m with
// exponential service of mean 1. The controller starts from overlapping
// k = 3, searches k in [2, 5] and decides every 32 time units.
//
// A pass serves four independent cases of 2^16 requests (about 44 decisions
// in all) rather than one long case: the controller's LP work depends on
// the seed, and four cases average it; each case is a ~0.1 s unit whose
// fastest repeat is steady on a busy host; and OnlineEngine's per-request
// history, which grows with the case, stays near 35 MB.
#include <cfloat>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "control/adaptive_sim.hpp"
#include "control/control.hpp"
#include "fault/plan.hpp"
#include "lp/maxload.hpp"
#include "oracles.hpp"
#include "sched/dispatchers.hpp"
#include "workload/replication.hpp"

namespace flowbench {
namespace {

using namespace flowsched;

constexpr int kM = 256;
constexpr int kCases = 4;                // independent cases per pass
constexpr int kCaseRequests = 1 << 16;  // one op per request
constexpr double kLambda = 0.7 * kM;
constexpr int kMinPasses = 5;

ControlCase make_case(std::uint64_t plan_seed, std::uint64_t request_seed,
                      double* plan_build_ms) {
  ControlCase c;
  c.m = kM;
  c.initial = LayoutSpec{ReplicationStrategy::kOverlapping, 3};
  c.control.k_min = 2;
  c.control.k_max = 5;
  c.control.period = 32.0;
  c.recovery.kind = RecoveryKind::kBackoff;

  Rng rng(plan_seed);
  FaultModelConfig fm;
  fm.mean_up = 48.0;
  fm.mean_down = 3.0;
  fm.horizon = 1.5 * kCaseRequests / kLambda;
  const auto t0 = Clock::now();
  c.plan = FaultPlan::random(kM, fm, rng);
  *plan_build_ms += 1e3 * seconds_since(t0);

  Rng req(request_seed);
  c.release.reserve(kCaseRequests);
  c.proc.reserve(kCaseRequests);
  c.key.reserve(kCaseRequests);
  double t = 0;
  for (int i = 0; i < kCaseRequests; ++i) {
    t += req.exponential(kLambda);
    c.release.push_back(t);
    c.proc.push_back(req.exponential(1.0));
    c.key.push_back(static_cast<int>(req.uniform_int(0, 4 * kM - 1)));
  }
  return c;
}

struct Setup {
  std::vector<ControlCase> cases;
  double plan_build_ms = 0;  // all cases' fault plans
};

Setup build(std::uint64_t seed) {
  Setup s;
  for (int i = 0; i < kCases; ++i) {
    const auto base = 11 + 2 * static_cast<std::uint64_t>(i);
    s.cases.push_back(make_case(sub_seed(seed, base), sub_seed(seed, base + 1), &s.plan_build_ms));
  }
  return s;
}

// FNV-1a over the bit patterns of a double sequence.
std::uint64_t bits_hash(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

std::string fingerprint(const AdaptiveRunReport& r) {
  std::ostringstream out;
  out << r.completed << " " << r.dropped << " " << r.parked << " " << r.retried << " "
      << exact(r.wasted_work) << " " << exact(r.fmax) << " " << exact(r.mean_flow) << " "
      << exact(r.makespan) << " " << bits_hash(r.flows) << " " << r.final_layout.str()
      << "\n"
      << r.log.str();
  return out.str();
}

AdaptiveRunReport serve(const ControlCase& c, double* seconds) {
  EftDispatcher dispatcher(TieBreakKind::kMin);
  const auto t0 = Clock::now();
  AdaptiveRunReport r = flowsched::run_adaptive(c, dispatcher);
  *seconds = seconds_since(t0);
  return r;
}

ArcLayout arcs(ReplicationStrategy s) {
  return s == ReplicationStrategy::kDisjoint ? ArcLayout::kBlocks : ArcLayout::kRing;
}

// Decisions whose current_score is a fresh headroom of `from`: every
// decision except in-flight migrations and oracle fallbacks.
bool scored(const ControlDecision& d) {
  return d.reason != "migrate" && !d.fallback;
}

// Replays the log through a fresh controller; returns the ms all decide()
// calls took and checks that every decision comes back bitwise.
double replay(const ControlCase& c, const ControlLog& log) {
  ReplicationController ctl(kM, c.initial, c.control);
  bool same = true;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < log.decisions().size(); ++i) {
    same = same && ctl.decide(log.observations()[i]).str() == log.decisions()[i].str();
  }
  const double ms = 1e3 * seconds_since(t0);
  check(same, "adaptive: replaying the log through a fresh controller reproduces it bitwise");
  return ms;
}

void check_run(const ControlCase& c, const AdaptiveRunReport& r) {
  check(r.completed + r.dropped == kCaseRequests, "adaptive: completed + dropped equals requests");
  check(static_cast<long long>(r.flows.size()) == r.completed,
        "adaptive: one flow per completed request");
  if (r.dropped == 0 && static_cast<int>(r.flows.size()) == kCaseRequests) {
    // Flow is completion - release with completion = start + proc, so it
    // may fall below proc by the rounding of that sum (a few ulps).
    bool ok = true;
    for (std::size_t i = 0; i < c.proc.size(); ++i) {
      const double slack = 4 * DBL_EPSILON * (c.release[i] + c.proc[i]);
      ok = ok && r.flows[i] >= c.proc[i] - slack;
    }
    check(ok, "adaptive: every flow is at least its processing time");
  }

  const std::vector<ControlDecision>& ds = r.log.decisions();
  const int max_move = std::max(1, kM / 4);
  const std::vector<double> uniform(kM, 1.0 / kM);
  bool moves_ok = true;
  bool scores_ok = true;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const ControlDecision& d = ds[i];
    moves_ok = moves_ok && d.moved_owners() >= 0 && d.moved_owners() <= max_move;
    if (!scored(d)) continue;
    const double hall = hall_lambda(uniform, arcs(d.from.strategy), d.from.k,
                                    r.log.observations()[i].up);
    if (rel_diff(d.current_score, hall) > 1e-9) {
      scores_ok = false;
      std::fprintf(stderr, "  epoch %d: score %s vs Hall %s\n", d.epoch,
                   exact(d.current_score).c_str(), exact(hall).c_str());
    }
  }
  check(moves_ok, "adaptive: each decision moves at most max(1, m/4) owners");
  check(scores_ok, "adaptive: each scored decision equals the Hall form of its degraded layout");

  bool charges_ok = true;
  std::set<std::pair<int, int>> seen;
  for (const ControlLog::SetupCharge& ch : r.log.charges()) {
    const bool in_range = ch.epoch >= 0 && ch.epoch < static_cast<int>(ds.size()) &&
                          ch.owner >= ds[static_cast<std::size_t>(ch.epoch)].moved_lo &&
                          ch.owner < ds[static_cast<std::size_t>(ch.epoch)].moved_hi;
    charges_ok = charges_ok && ch.amount == c.control.setup_cost && in_range &&
                 seen.insert({ch.epoch, ch.owner}).second;
  }
  check(charges_ok, "adaptive: every setup charge equals setup_cost, once per moved owner");
}

// The controller-off path must be the static path bitwise; returns the
// seconds run_static took.
double check_off_equals_static(const ControlCase& c) {
  EftDispatcher d_off(TieBreakKind::kMin);
  const AdaptiveRunReport off = flowsched::run_adaptive(c, d_off, /*enabled=*/false);
  EftDispatcher d_static(TieBreakKind::kMin);
  const auto t0 = Clock::now();
  const AdaptiveRunReport st = run_static(c, d_static);
  const double secs = seconds_since(t0);
  check(off.flows.size() == st.flows.size() &&
            std::equal(off.flows.begin(), off.flows.end(), st.flows.begin(),
                       [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }),
        "adaptive: run_adaptive(enabled=false) flows equal run_static bitwise");
  return secs;
}

// MaxLoadSolver on each scored decision's degraded replica sets, as the
// controller's oracle sees them; adds to the ms, pivot and solve tallies.
void degraded_solves(const AdaptiveRunReport& r, double* ms, double* pivots, int* solves) {
  const std::vector<double> uniform(kM, 1.0 / kM);
  bool same = true;
  for (std::size_t i = 0; i < r.log.decisions().size(); ++i) {
    const ControlDecision& d = r.log.decisions()[i];
    if (!scored(d)) continue;
    const std::vector<std::uint8_t>& up = r.log.observations()[i].up;
    std::vector<ProcSet> sets;
    for (int owner = 0; owner < kM; ++owner) {
      const ProcSet full = replica_set(d.from.strategy, owner, d.from.k, kM);
      std::vector<int> members;
      for (int j : full.machines()) {
        if (up[static_cast<std::size_t>(j)]) members.push_back(j);
      }
      if (members.empty()) break;
      sets.emplace_back(std::move(members));
    }
    if (static_cast<int>(sets.size()) < kM) continue;  // infeasible: no LP runs
    const auto t0 = Clock::now();
    MaxLoadSolver solver(std::move(sets));
    const double lambda = solver.solve_lambda(uniform);
    *ms += 1e3 * seconds_since(t0);
    *pivots += static_cast<double>(solver.last_iterations());
    ++*solves;
    same = same && lambda == d.current_score;
  }
  check(same, "adaptive: the degraded-set LP reproduces each logged score");
}

// Checks every case of one pass; fills the layer tallies as it goes.
struct Tally {
  double decide_ms = 0, static_s = 0, solve_ms = 0, pivots = 0, flow_sum = 0, fmax = 0;
  int decisions = 0, switches = 0, fallbacks = 0, solves = 0;
  long long moved = 0, completed = 0;
};

Tally check_cases(const Setup& s, const std::vector<AdaptiveRunReport>& reports, bool trace) {
  Tally t;
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    const ControlCase& c = s.cases[i];
    const AdaptiveRunReport& r = reports[i];
    check_run(c, r);
    t.decide_ms += replay(c, r.log);
    t.static_s += check_off_equals_static(c);
    if (trace) degraded_solves(r, &t.solve_ms, &t.pivots, &t.solves);
    t.decisions += r.decisions;
    t.switches += r.switches;
    t.fallbacks += r.fallbacks;
    t.moved += r.log.moved_total();
    t.fmax = std::max(t.fmax, r.fmax);
    t.flow_sum += r.mean_flow * static_cast<double>(r.completed);
    t.completed += r.completed;
  }
  return t;
}

void emit_layers(const Setup& s, const Tally& t, Result* out) {
  out->add("control.decide_ms", "ms", t.decisions == 0 ? 0.0 : t.decide_ms / t.decisions);
  out->add("lp.degraded_solve_ms", "ms", t.solves == 0 ? 0.0 : t.solve_ms / t.solves);
  out->add("lp.degraded_pivots", "count", t.solves == 0 ? 0.0 : t.pivots / t.solves);
  out->add("sched.fault_release_ns", "ns", 1e9 * t.static_s / (kCases * kCaseRequests));
  out->add("fault.plan_build_ms", "ms", s.plan_build_ms);
  out->add("control.decisions", "count", t.decisions);
  out->add("control.switches", "count", t.switches);
  out->add("control.fallbacks", "count", t.fallbacks);
  out->add("control.moved_owners", "count", static_cast<double>(t.moved));
  out->add("control.fmax", "model-time", t.fmax);
  out->add("control.mean_flow", "model-time", t.flow_sum / static_cast<double>(t.completed));
}

// Serves every case once; per-case seconds go to `seconds[i]`.
std::vector<AdaptiveRunReport> pass(const Setup& s, std::vector<std::vector<double>>* seconds) {
  std::vector<AdaptiveRunReport> out;
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    double secs = 0;
    out.push_back(serve(s.cases[i], &secs));
    (*seconds)[i].push_back(secs);
  }
  return out;
}

// Sum over cases of each case's fastest pass.
double fast_sum(const std::vector<std::vector<double>>& seconds) {
  double total = 0;
  for (const std::vector<double>& v : seconds) total += fast_time(v);
  return total;
}

}  // namespace

Result run_adaptive(const Options& opts) {
  Result res;
  const Setup s = build(opts.seed);
  const double setup_s = setup_done();

  std::vector<std::vector<double>> times(kCases), traced(kCases);
  std::string first;
  std::vector<AdaptiveRunReport> reports;
  int passes = 0;
  const auto t0 = Clock::now();
  while (passes < kMinPasses || seconds_since(t0) < opts.seconds) {
    next_cpu();
    std::vector<AdaptiveRunReport> r = pass(s, &times);
    ++passes;
    res.attempted += static_cast<long long>(kCases) * kCaseRequests;
    std::string f;
    for (const AdaptiveRunReport& x : r) f += fingerprint(x);
    if (first.empty()) {
      first = f;
      reports = std::move(r);
    } else {
      check(f == first, "adaptive: identical passes give bitwise-identical reports");
    }
    if (opts.trace) pass(s, &traced);  // the traced pass: each call inside a span
  }
  const Tally tally = check_cases(s, reports, opts.trace);

  std::vector<double> totals;
  for (int p = 0; p < passes; ++p) {
    double sum = 0;
    for (const std::vector<double>& v : times) sum += v[static_cast<std::size_t>(p)];
    totals.push_back(sum);
  }
  log_passes(opts.workload, totals);
  const double ops = static_cast<double>(kCases) * kCaseRequests;
  const double pass_s = fast_sum(times);
  if (opts.trace) {
    emit_layers(s, tally, &res);
    res.add("trace.overhead_ns", "ns", 1e9 * (fast_sum(traced) - pass_s) / ops);
  } else {
    res.add("ops_per_s", "op/s", ops / pass_s);
    res.add("setup_s", "s", setup_s);
    res.add("peak_rss_mb", "MB", peak_rss_mb());
  }
  return res;
}

void probe_adaptive_layers(std::uint64_t seed, Result* out) {
  const Setup s = build(seed);
  std::vector<std::vector<double>> times(kCases);
  emit_layers(s, check_cases(s, pass(s, &times), true), out);
}

}  // namespace flowbench
