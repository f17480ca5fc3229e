//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload compile|factor|serve --seed N --seconds S
///           --trace 0|1
///
/// Prints notes, a `stamp {...}` line (with a digest of the generated
/// inputs) and, last, one JSON object with the keys correct, attempted,
/// failed and metrics: the end-to-end metrics when --trace is 0, the
/// per-layer metrics when it is 1. run.py builds this binary and is the
/// usual way in.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <linux/perf_event.h>
#include <set>
#include <sys/syscall.h>
#include <unistd.h>

using namespace perfbench;

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "?"
#define PERFBENCH_BUILD_TYPE "?"
#endif

namespace {

/// Whether a perf event can be opened for this thread: "yes", or the
/// errno name. Hardware counters are often missing in VMs; the
/// benchmark then times with the wall clock and thread CPU time only.
const char *probePmu(std::uint32_t Type, std::uint64_t Config) {
  perf_event_attr Attr;
  std::memset(&Attr, 0, sizeof(Attr));
  Attr.size = sizeof(Attr);
  Attr.type = Type;
  Attr.config = Config;
  Attr.disabled = 1;
  Attr.exclude_kernel = 1;
  Attr.exclude_hv = 1;
  long Fd = syscall(SYS_perf_event_open, &Attr, 0, -1, -1, 0);
  if (Fd < 0)
    return strerrorname_np(errno);
  close(static_cast<int>(Fd));
  return "yes";
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V, &End, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::strtod(V, &End);
    else if (A == "--trace")
      Opt.Trace = std::strtoul(V, &End, 10) != 0;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !Opt.Workload.empty() && Opt.Seconds > 0 &&
         std::isfinite(Opt.Seconds);
}

/// The printed metrics must be exactly the declared list, each with its
/// declared unit; anything else is a benchmark bug, not a result.
bool metricsMatchSpec(const Result &R, const std::vector<MetricSpec> &Spec) {
  std::set<std::string> Want, Got;
  for (const MetricSpec &M : Spec)
    Want.insert(M.Name);
  for (const Metric &M : R.Metrics) {
    if (!Got.insert(M.Name).second || M.Unit != metricUnit(M.Name) ||
        !std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: bad metric %s\n", M.Name.c_str());
      return false;
    }
  }
  if (Got != Want) {
    for (const std::string &N : Want)
      if (!Got.count(N))
        std::fprintf(stderr, "perfbench: missing metric %s\n", N.c_str());
    for (const std::string &N : Got)
      if (!Want.count(N))
        std::fprintf(stderr, "perfbench: undeclared metric %s\n", N.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload compile|factor|serve --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: built with assertions on (flags: %s); "
                       "configure with -DCMAKE_CXX_FLAGS=-DNDEBUG\n",
               PERFBENCH_FLAGS);
  return 3;
#endif

  Result R;
  if (Opt.Workload == "compile")
    runCompile(Opt, R);
  else if (Opt.Workload == "factor")
    runFactor(Opt, R);
  else if (Opt.Workload == "serve")
    runServe(Opt, R);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  if (!metricsMatchSpec(R, Opt.Trace ? kPerLayerMetrics : kEndToEndMetrics))
    return 4;

  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  // run.py adds the machine half of the stamp.
  std::printf("stamp {\"workload\": \"%s\", \"seed\": %llu, \"inputs\": "
              "\"%016llx\", \"seconds\": %g, \"trace\": %d, "
              "\"build_type\": \"%s\", \"cxx_flags\": "
              "\"%s\", \"pmu_cycles\": \"%s\", \"pmu_task_clock\": \"%s\", "
              "\"clocks\": \"steady_clock wall, TSC spans, thread CPU\"}\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              static_cast<unsigned long long>(R.InputDigest), Opt.Seconds,
              Opt.Trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
              probePmu(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES),
              probePmu(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (std::size_t I = 0; I != R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return 0;
}
