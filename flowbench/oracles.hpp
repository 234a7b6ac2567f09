// Independent oracles the benchmark checks the program against. None of
// them calls into the library: each restates the model from the paper.
#pragma once

#include <cstdint>
#include <vector>

namespace flowbench {

/// EFT-Min on the overlapping ring I_k(u) = {u, ..., u+k-1} mod m, with
/// owner(key) = key mod m. A request goes to the eligible machine that
/// frees up first; among machines free by max(release, earliest frontier)
/// (to the dispatcher's 1e-12 tie tolerance) the lowest index wins.
class EftMinReference {
 public:
  EftMinReference(int m, int k);

  void serve(double release, double proc, int key);

  long long requests() const { return n_; }
  double fmax() const { return fmax_; }
  double makespan() const;
  double mean_flow() const { return n_ == 0 ? 0.0 : sum_flow_ / n_; }

 private:
  int m_;
  int k_;
  std::vector<double> frontier_;  // C_j per machine
  long long n_ = 0;
  double fmax_ = 0;
  double sum_flow_ = 0;
};

/// Replica-set families whose sets are arcs of the machine ring.
enum class ArcLayout {
  kRing,    ///< overlapping: owner u serves on {u, ..., u+k-1} mod m
  kBlocks,  ///< disjoint: owner u serves on its block [k*(u/k), k*(u/k)+k) cut at m
};

/// Max sustainable arrival rate of LP (15) by Hall's condition:
///   lambda* = min over arcs S of the ring of up machines, and the full
///             ring, of |S| / D(S),
/// where D(S) is the popularity of the owners whose (degraded) replica set
/// lies inside S. `up` may be empty (every machine up). Returns 0 when an
/// owner with positive popularity has no machine up.
double hall_lambda(const std::vector<double>& popularity, ArcLayout layout,
                   int k, const std::vector<std::uint8_t>& up = {});

/// Pearson chi-square goodness of fit of `observed` counts against
/// `probability` (sums to 1). Passes when the statistic is below the
/// Wilson-Hilferty upper quantile at `z` standard deviations (z = 6 is a
/// false-alarm rate near 1e-9 per test).
struct ChiSquare {
  double statistic = 0;
  int dof = 0;
  double critical = 0;
  bool pass = false;
};
ChiSquare chi_square(const std::vector<long long>& observed,
                     const std::vector<double>& probability, double z = 6.0);

/// Normalized Zipf weights r^-s / H over ranks r = 1..n.
std::vector<double> zipf(int n, double s);

}  // namespace flowbench
