// flowbench: one workload of the flowsched benchmark per invocation.
//
//   flowbench --workload stream|adaptive|plan --seed N --seconds S --trace 0|1
//
// Prints its provenance, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. flowbench/run.py
// builds this binary and forwards the arguments.
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace flowbench {

const Clock::time_point kProcessStart = Clock::now();

namespace {

int g_failed_checks = 0;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12];
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload stream|adaptive|plan "
               "--seed N --seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
        seen[0] = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        seen[1] = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        seen[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        seen[3] = true;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  for (bool s : seen) {
    if (!s) usage("every option is required");
  }
  if (o.workload != "stream" && o.workload != "adaptive" && o.workload != "plan") {
    usage("unknown workload " + o.workload);
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return o;
}

}  // namespace

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failed_checks;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

namespace {

// Type-7 quantile of `v`, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

double fast_time(const std::vector<double>& pass_seconds) {
  return *std::min_element(pass_seconds.begin(), pass_seconds.end());
}

void log_passes(const std::string& what, const std::vector<double>& pass_seconds) {
  std::fprintf(stderr, "%s: %zu passes, s min %.4f q10 %.4f median %.4f max %.4f\n",
               what.c_str(), pass_seconds.size(), quantile(pass_seconds, 0.0),
               quantile(pass_seconds, 0.1), quantile(pass_seconds, 0.5),
               quantile(pass_seconds, 1.0));
}

namespace {

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  return cpus;
}

void hop(int) {
  const int saved = errno;
  next_cpu();
  errno = saved;
}

void set_hop_timer(long usec) {
  itimerval t{};
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_REAL, &t, nullptr);
}

// Arms the set-up CPU hopping (see setup_done in bench.hpp). The CPU list
// is built here, so the handler only reads it.
void start_setup_hops() {
  if (allowed_cpus().size() < 2) return;
  struct sigaction sa {};
  sa.sa_handler = hop;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  set_hop_timer(2000);
}

}  // namespace

void next_cpu() {
  static std::size_t next = 0;
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort: a refusal only
                                            // leaves the thread where it is
}

double setup_done() {
  set_hop_timer(0);
  return seconds_since(kProcessStart);
}

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct, well-mixed seeds per piece.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  start_setup_hops();
  const Options opts = parse(argc, argv);

  const std::string build = FLOWBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("provenance: nproc=%ld cpu=\"%s\" build=%s workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), build.c_str(),
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);
  if (build != "Release" || !ndebug) {
    std::fprintf(stderr, "flowbench: refusing to measure a %s build; configure "
                         "with -DCMAKE_BUILD_TYPE=Release\n", build.c_str());
    return 3;
  }

  Result res;
  try {
    if (opts.workload == "stream") {
      res = run_stream(opts);
    } else if (opts.workload == "adaptive") {
      res = run_adaptive(opts);
    } else {
      res = run_plan(opts);
    }
    // Traced runs print every per-layer metric: the other workloads' layers
    // come from one probe pass each.
    if (opts.trace) {
      if (opts.workload != "stream") probe_stream_layers(opts.seed, &res);
      if (opts.workload != "adaptive") probe_adaptive_layers(opts.seed, &res);
      if (opts.workload != "plan") probe_plan_layers(opts.seed, &res);
    }
    // The oracles' own hand-computed cases; run last so that set-up time
    // stays the program's.
    oracle_self_tests();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  for (const Metric& m : res.metrics) {
    check(std::isfinite(m.value), "metric " + m.name + " is finite");
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               exact(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              g_failed_checks == 0 ? "true" : "false", res.attempted, res.failed,
              metrics.c_str());
  return 0;
}
