// Shared pieces of the flowsched benchmark: options, the result record,
// timing statistics, the correctness ledger and the per-layer span table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace flowbench {

using Clock = std::chrono::steady_clock;

/// Set when the process starts (a static initializer in main.cpp), so
/// `setup_s` counts everything from process start to the first timed op.
extern const Clock::time_point kProcessStart;

/// Ends the cold set-up and returns its seconds since kProcessStart. From
/// the start of main() until this call a 2 ms interval timer moves the
/// thread to the next allowed CPU (next_cpu), so one run's set-up reads an
/// average over the vCPUs rather than the speed of whichever vCPU the
/// process started on, which on a shared host differs by up to ~40 %.
double setup_done();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One command line: `--workload W --seed N --seconds S --trace 0|1`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run reports. `attempted` counts ops (requests served
/// or queries answered); no op of the chosen workloads is expected to fail.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back(Metric{std::move(name), std::move(unit), value});
  }
};

/// Correctness ledger: every failed check prints one line to stderr and
/// turns the run's `correct` to false.
void check(bool ok, const std::string& what);

/// The per-run timing statistic, the fastest of identical passes: a busy
/// host only ever inflates a pass, never deflates it, so over many short
/// passes the fastest one is the steady reading.
double fast_time(const std::vector<double>& pass_seconds);

/// Moves this thread to the next CPU it may run on, round robin, so that
/// repeats of a unit land on every vCPU and its fastest repeat comes from
/// the quietest one: on a shared host one vCPU can run slower than the
/// others for minutes. Called once per pass, and every 2 ms of the cold
/// set-up (see setup_done).
void next_cpu();

/// One stderr line on a run's pass times: count, fastest, 10 % quantile,
/// median, slowest. Shows how busy the host was during the run.
void log_passes(const std::string& what, const std::vector<double>& pass_seconds);

/// 17-digit rendering, so equal strings mean bit-identical doubles.
std::string exact(double x);

/// Relative difference |a - b| / max(|a|, |b|, tiny).
double rel_diff(double a, double b);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Workload entry points. Each measures its end-to-end metrics, or, with
/// opts.trace, the per-layer metrics of its own layers.
Result run_stream(const Options& opts);
Result run_adaptive(const Options& opts);
Result run_plan(const Options& opts);

/// Per-layer probes of the other workloads, run once each in traced mode so
/// every traced run prints every per-layer metric.
void probe_stream_layers(std::uint64_t seed, Result* out);
void probe_adaptive_layers(std::uint64_t seed, Result* out);
void probe_plan_layers(std::uint64_t seed, Result* out);

/// Independent oracles' self-tests on hand-computed cases (oracles.cpp).
void oracle_self_tests();

/// Distinct sub-seeds for the pieces of one workload.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace flowbench
