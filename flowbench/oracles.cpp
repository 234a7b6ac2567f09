#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.hpp"

namespace flowbench {

EftMinReference::EftMinReference(int m, int k)
    : m_(m), k_(k), frontier_(static_cast<std::size_t>(m), 0.0) {}

void EftMinReference::serve(double release, double proc, int key) {
  const int owner = key % m_;
  double earliest = std::numeric_limits<double>::infinity();
  for (int d = 0; d < k_; ++d) {
    earliest = std::min(earliest, frontier_[static_cast<std::size_t>((owner + d) % m_)]);
  }
  const double t_min = std::max(release, earliest);
  int pick = m_;
  for (int d = 0; d < k_; ++d) {
    const int j = (owner + d) % m_;
    if (frontier_[static_cast<std::size_t>(j)] <= t_min + 1e-12) pick = std::min(pick, j);
  }
  double& c = frontier_[static_cast<std::size_t>(pick)];
  const double start = std::max(release, c);
  c = start + proc;
  const double flow = start + proc - release;
  fmax_ = std::max(fmax_, flow);
  sum_flow_ += flow;
  ++n_;
}

double EftMinReference::makespan() const {
  return *std::max_element(frontier_.begin(), frontier_.end());
}

double hall_lambda(const std::vector<double>& popularity, ArcLayout layout,
                   int k, const std::vector<std::uint8_t>& up) {
  const int m = static_cast<int>(popularity.size());
  // Up machines, renumbered 0..u-1 around the ring: a replica arc degraded
  // to its up members stays an arc of this shorter ring.
  std::vector<int> pos(static_cast<std::size_t>(m), -1);
  int u = 0;
  for (int j = 0; j < m; ++j) {
    if (up.empty() || up[static_cast<std::size_t>(j)]) pos[static_cast<std::size_t>(j)] = u++;
  }
  std::vector<int> first(static_cast<std::size_t>(m), 0);
  std::vector<int> len(static_cast<std::size_t>(m), 0);
  double total = 0;
  for (int owner = 0; owner < m; ++owner) {
    const int lo = layout == ArcLayout::kRing ? owner : owner / k * k;
    const int n = layout == ArcLayout::kRing ? k : std::min(k, m - lo);
    const auto o = static_cast<std::size_t>(owner);
    for (int d = 0; d < n; ++d) {
      const int p = pos[static_cast<std::size_t>((lo + d) % m)];
      if (p < 0) continue;
      if (len[o]++ == 0) first[o] = p;
    }
    if (popularity[o] <= 0) continue;
    if (len[o] == 0) return 0.0;  // a served owner with every replica down
    total += popularity[o];
  }
  if (!(total > 0)) return std::numeric_limits<double>::infinity();

  double best = u / total;  // the full ring
  std::vector<double> ends(static_cast<std::size_t>(u) + 1);
  for (int a = 0; a < u; ++a) {
    // Owners whose arc starts d steps after a and spans len machines lie in
    // the arc [a, a + L) exactly when d + len <= L.
    std::fill(ends.begin(), ends.end(), 0.0);
    for (int owner = 0; owner < m; ++owner) {
      const auto o = static_cast<std::size_t>(owner);
      if (len[o] == 0 || popularity[o] <= 0) continue;
      const int end = (first[o] - a + u) % u + len[o];
      if (end < u) ends[static_cast<std::size_t>(end)] += popularity[o];
    }
    double demand = 0;
    for (int L = 1; L < u; ++L) {
      demand += ends[static_cast<std::size_t>(L)];
      if (demand > 0) best = std::min(best, L / demand);
    }
  }
  return best;
}

ChiSquare chi_square(const std::vector<long long>& observed,
                     const std::vector<double>& probability, double z) {
  long long n = 0;
  for (long long o : observed) n += o;
  ChiSquare r;
  int bins = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double e = probability[i] * static_cast<double>(n);
    if (e > 0) {
      const double d = static_cast<double>(observed[i]) - e;
      r.statistic += d * d / e;
      ++bins;
    } else if (observed[i] > 0) {
      r.statistic = std::numeric_limits<double>::infinity();
    }
  }
  r.dof = bins - 1;
  const double v = 2.0 / (9.0 * r.dof);
  r.critical = r.dof * std::pow(1.0 - v + z * std::sqrt(v), 3);
  r.pass = r.dof > 0 && r.statistic < r.critical;
  return r;
}

std::vector<double> zipf(int n, double s) {
  std::vector<double> w(static_cast<std::size_t>(n));
  double total = 0;
  for (int r = 1; r <= n; ++r) {
    w[static_cast<std::size_t>(r - 1)] = std::pow(static_cast<double>(r), -s);
    total += w[static_cast<std::size_t>(r - 1)];
  }
  for (double& x : w) x /= total;
  return w;
}

void oracle_self_tests() {
  // EFT-Min, m = 3, k = 2: sets {0,1}, {1,2}, {2,0}.
  EftMinReference eft(3, 2);
  eft.serve(0.0, 1.0, 0);  // {0,1} both idle -> 0, C = (1, 0, 0)
  eft.serve(0.0, 1.0, 3);  // owner 0 again: 1 frees first -> 1, C = (1, 1, 0)
  eft.serve(0.0, 2.0, 2);  // {2,0}: only 2 is free at 0 -> 2, C = (1, 1, 2)
  eft.serve(0.5, 1.0, 1);  // {1,2}: 1 frees at 1 -> start 1, flow 1.5
  eft.serve(3.0, 1.0, 2);  // {2,0} both free by 3: lowest index 0, C0 = 4
  check(eft.requests() == 5 && eft.fmax() == 2.0 && eft.makespan() == 4.0 &&
            eft.mean_flow() == 6.5 / 5,
        "oracle self-test: EFT-Min reference on the 5-request m=3 case");

  const std::vector<double> uniform4(4, 0.25);
  check(hall_lambda(uniform4, ArcLayout::kRing, 2) == 4.0,
        "oracle self-test: Hall, uniform ring m=4 k=2 -> 4");
  check(hall_lambda({1, 0, 0, 0}, ArcLayout::kRing, 2) == 2.0,
        "oracle self-test: Hall, one hot owner on a k=2 arc -> 2");
  check(hall_lambda({0.5, 0.5, 0, 0}, ArcLayout::kBlocks, 2) == 2.0,
        "oracle self-test: Hall, one hot block of 2 -> 2");
  check(hall_lambda({0.1, 0.1, 0.1, 0.1, 0.6}, ArcLayout::kBlocks, 2) == 1.0 / 0.6,
        "oracle self-test: Hall, short last block {4} with 0.6 -> 1/0.6");
  // Ring k=2 with machine 1 down: owners 0 -> {0}, 1 -> {2}, 2 -> {2,3},
  // 3 -> {3,0}; every proper arc gives 4, the 3 up machines give 3.
  check(hall_lambda(uniform4, ArcLayout::kRing, 2, {1, 0, 1, 1}) == 3.0,
        "oracle self-test: Hall, degraded ring -> 3");
  // Blocks k=2 with machine 3 down: block {2,3} -> {2} carries 1/2 -> 2.
  check(hall_lambda(uniform4, ArcLayout::kBlocks, 2, {1, 1, 1, 0}) == 2.0,
        "oracle self-test: Hall, degraded block -> 2");
  check(hall_lambda(uniform4, ArcLayout::kRing, 1, {0, 1, 1, 1}) == 0.0,
        "oracle self-test: Hall, owner with every replica down -> 0");

  const ChiSquare fit = chi_square({500, 500}, {0.5, 0.5});
  const ChiSquare off = chi_square({60, 40}, {0.5, 0.5});
  const ChiSquare bad = chi_square({900, 100}, {0.5, 0.5});
  check(fit.pass && fit.statistic == 0.0 && off.statistic == 4.0 && off.pass &&
            !bad.pass,
        "oracle self-test: chi-square on two-bin counts");
  const std::vector<double> z = zipf(3, 1.0);
  check(std::fabs(z[0] - 6.0 / 11) < 1e-15 && std::fabs(z[2] - 2.0 / 11) < 1e-15,
        "oracle self-test: Zipf s=1 over 3 ranks -> 6/11, 3/11, 2/11");
}

}  // namespace flowbench
