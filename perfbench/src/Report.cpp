//===- perfbench/src/Report.cpp - Statistics and the time table -----------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},          {"time_vs_base", "ratio"},
    {"p50_vs_base", "ratio"},  {"p99_vs_base", "ratio"},
    {"peak_os_kb", "KiB"},     {"ok_ratio", "ratio"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"alloc.raw_calls", "count"},
    {"alloc.raw_ns", "ns"},
    {"alloc.array_calls", "count"},
    {"alloc.array_ns", "ns"},
    {"alloc.scanned_calls", "count"},
    {"alloc.scanned_ns", "ns"},
    {"alloc.bytes", "bytes"},
    {"lifecycle.new_calls", "count"},
    {"lifecycle.new_ns", "ns"},
    {"lifecycle.delete_calls", "count"},
    {"lifecycle.delete_ns", "ns"},
    {"lifecycle.delete_refused", "count"},
    {"cleanup.thunks", "count"},
    {"barrier.stores", "count"},
    {"barrier.sameregion_ratio", "ratio"},
    {"barrier.adjustments", "count"},
    {"stack.scans", "count"},
    {"stack.frames_scanned", "count"},
    {"stack.frames_unscanned", "count"},
    {"pool.acquire_calls", "count"},
    {"pool.acquire_ns", "ns"},
    {"pool.release_calls", "count"},
    {"pool.release_ns", "ns"},
    {"pool.hit_ratio", "ratio"},
    {"pool.trims", "count"},
    {"pool.release_refused", "count"},
    {"parallel.share_calls", "count"},
    {"parallel.exchange_calls", "count"},
    {"parallel.exchange_ns", "ns"},
    {"parallel.trydelete_calls", "count"},
    {"parallel.trydelete_ns", "ns"},
    {"parallel.trydelete_accept_ratio", "ratio"},
    {"pagesource.frontier_pages", "pages"},
    {"pagesource.coalesce_sweeps", "count"},
    {"pagesource.free_listed_pages", "pages"},
    {"workload.self_ns", "ns"},
    {"workload.unaccounted_ns", "ns"},
    {"workload.wall_ns", "ns"},
    {"trace.span_cost_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"gen.late_p99_us", "us"},
    {"gen.backlog", "count"},
};

const char *metricUnit(const std::string &Name) {
  for (const auto *List : {&kEndToEndMetrics, &kPerLayerMetrics})
    for (const MetricSpec &M : *List)
      if (Name == M.Name)
        return M.Unit;
  return "?";
}

const char *layerName(Layer L) {
  switch (L) {
  case AllocRaw:
    return "alloc.raw";
  case AllocArray:
    return "alloc.array";
  case AllocScanned:
    return "alloc.scanned";
  case LifeNew:
    return "lifecycle.new";
  case LifeDelete:
    return "lifecycle.delete";
  case PoolAcquire:
    return "pool.acquire";
  case PoolRelease:
    return "pool.release";
  case ParShare:
    return "parallel.share";
  case ParExchange:
    return "parallel.exchange";
  case ParTryDelete:
    return "parallel.trydelete";
  case NumLayers:
    break;
  }
  return "?";
}

Counts Counts::read(const regions::RegionManager &Mgr) {
  return {Mgr.stats(), Mgr.poolStats(),
          regions::rt::RuntimeStack::current().counters()};
}

void Counts::addDelta(const Counts &Before, const Counts &After) {
#define PB_DELTA(F) F += After.F - Before.F
  PB_DELTA(Stats.TotalAllocs);
  PB_DELTA(Stats.TotalRequestedBytes);
  PB_DELTA(Stats.TotalRegions);
  PB_DELTA(Stats.DeleteFailures);
  PB_DELTA(Stats.CleanupThunksRun);
  PB_DELTA(Stats.BarrierStores);
  PB_DELTA(Stats.BarrierSameRegion);
  PB_DELTA(Stats.BarrierAdjustments);
  PB_DELTA(Pool.Hits);
  PB_DELTA(Pool.Misses);
  PB_DELTA(Pool.Trims);
  PB_DELTA(Stack.Scans);
  PB_DELTA(Stack.FramesScanned);
  PB_DELTA(Stack.FramesUnscanned);
#undef PB_DELTA
}

double ticksPerNs() {
  static const double Rate = [] {
    std::vector<double> Rates;
    for (unsigned I = 0; I != 5; ++I) {
      std::uint64_t T0 = spanTicks(), N0 = nowNs();
      while (nowNs() - N0 < 4000000)
        ;
      Rates.push_back((spanTicks() - T0) / double(nowNs() - N0));
    }
    return median(Rates);
  }();
  return Rate;
}

SpanCost calibrateSpanCost() {
  // Median over several batches, so one preempted batch cannot skew
  // the figure subtracted from every call.
  constexpr unsigned kBatches = 9, kPerBatch = 200000;
  std::vector<double> Inside, Total;
  for (unsigned B = 0; B != kBatches; ++B) {
    LayerTimes T;
    std::uint64_t Start = nowNs();
    for (unsigned I = 0; I != kPerBatch; ++I) {
      Span S(&T, AllocRaw);
      asm volatile("" ::: "memory");
    }
    std::uint64_t End = nowNs();
    Inside.push_back(T.Ticks[AllocRaw] / ticksPerNs() / kPerBatch);
    Total.push_back(static_cast<double>(End - Start) / kPerBatch);
  }
  return {median(Inside), median(Total), ticksPerNs()};
}

double percentile(const std::vector<std::uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  auto Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  if (Rank == 0)
    Rank = 1;
  return static_cast<double>(Sorted[std::min(Rank, Sorted.size()) - 1]);
}

double median(std::vector<double> V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  std::size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

void Breakdown::report(Result &Out, const char *Title,
                       const char *Unit) const {
  char Line[256];
  auto Note = [&](const char *Fmt, auto... Args) {
    std::snprintf(Line, sizeof(Line), Fmt, Args...);
    Out.Notes.push_back(Line);
  };
  Note("where the time went: %s, per %s (%.0f %ss traced)", Title, Unit,
       Units, Unit);
  Note("  %-22s %12s %12s %8s", "layer", "calls", "busy ns", "% wall");
  for (unsigned I = 0; I != NumLayers; ++I) {
    auto L = static_cast<Layer>(I);
    if (Times.Calls[L] == 0)
      continue;
    Note("  %-22s %12.2f %12.1f %7.1f%%", layerName(L), callsPerUnit(L),
         busyNs(L), 100 * busyNs(L) / WallNs);
  }
  Note("  %-22s %12s %12.1f %7.1f%%", "workload.self", "", selfNs(),
       100 * selfNs() / WallNs);
  Note("  %-22s %12s %12.1f %7.1f%%", "unaccounted", "", unaccountedNs(),
       100 * unaccountedNs() / WallNs);
  Note("  %-22s %12s %12.1f %7.1f%%", "wall", "", WallNs, 100.0);
  Note("  unaccounted = span clock cost %.1f ns x %.2f calls + harness "
       "%.1f ns outside the %s spans",
       Cost.Total, static_cast<double>(Times.totalCalls()) / Units,
       WallNs - UnitSpanNs, Unit);
  Note("  tracing overhead: traced wall / untraced wall - 1 = %.1f%%",
       100 * OverheadRatio);

  auto Emit = [&](Layer L, const char *Calls, const char *Ns) {
    Out.add(Calls, callsPerUnit(L), "count");
    Out.add(Ns, busyNs(L), "ns");
  };
  Emit(AllocRaw, "alloc.raw_calls", "alloc.raw_ns");
  Emit(AllocArray, "alloc.array_calls", "alloc.array_ns");
  Emit(AllocScanned, "alloc.scanned_calls", "alloc.scanned_ns");
  Emit(LifeNew, "lifecycle.new_calls", "lifecycle.new_ns");
  Emit(LifeDelete, "lifecycle.delete_calls", "lifecycle.delete_ns");
  Emit(PoolAcquire, "pool.acquire_calls", "pool.acquire_ns");
  Emit(PoolRelease, "pool.release_calls", "pool.release_ns");
  Emit(ParExchange, "parallel.exchange_calls", "parallel.exchange_ns");
  Out.add("workload.self_ns", selfNs(), "ns");
  Out.add("workload.unaccounted_ns", unaccountedNs(), "ns");
  Out.add("workload.wall_ns", WallNs, "ns");
  Out.add("trace.span_cost_ns", Cost.Total, "ns");
  Out.add("trace.overhead_ratio", OverheadRatio, "ratio");
}

} // namespace perfbench
