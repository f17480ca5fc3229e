//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: run options, the result record that
/// main() prints, the base arena the untraced runs time every unit
/// against, the per-layer span accumulators of the traced run, the
/// library counters every workload reads as deltas, and small statistics
/// helpers. Spans are taken here, in the benchmark,
/// around calls into the region library's public functions; nothing
/// inside the library is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "alloc/MallocInterface.h"
#include "region/Region.h"
#include "region/RuntimeStack.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// One invocation's outcome. Failed counts wrong outputs, refused
/// delete/reset/release calls and regions left unretired.
struct Result {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Digest of the generated inputs, printed in the stamp: the same seed
  /// must give the same digest.
  std::uint64_t InputDigest = 0;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// FNV-1a over \p N bytes, continuing from \p H.
inline std::uint64_t fnv1a(const void *P, std::size_t N,
                           std::uint64_t H = 1469598103934665603ULL) {
  for (std::size_t I = 0; I != N; ++I)
    H = (H ^ static_cast<const unsigned char *>(P)[I]) * 1099511628211ULL;
  return H;
}

/// The zero-cost base the untraced runs measure the region library
/// against (the paper's Bump base time): bump allocation, no frees, over
/// chunks that reset() hands out again from the first, so after the
/// first unit every allocation lands on warm, already mapped memory. It
/// draws its pages from its own PageSource, so nothing the region library
/// does to its pages reaches it.
class BaseArena : public regions::MallocInterface {
public:
  explicit BaseArena(std::size_t ReserveBytes = std::size_t{1} << 30)
      : MallocInterface(ReserveBytes) {}
  const char *name() const override { return "base"; }
  /// Starts over at the first chunk; what the last unit allocated is gone.
  void reset() {
    Chunk = 0;
    Used = 0;
  }
  /// Maps and touches chunks for at least \p Bytes up front.
  void reserve(std::size_t Bytes) {
    std::size_t Have = 0;
    for (const Run &R : Chunks)
      Have += R.Bytes;
    for (; Have < Bytes; Have += kChunkBytes)
      addChunk(Chunks.size(), kChunkBytes);
  }

protected:
  void *doMalloc(std::size_t Size) override {
    std::size_t Need = sizeof(regions::AllocHeader) +
                       regions::alignTo(Size, regions::kDefaultAlignment);
    while (Chunk == Chunks.size() || Used + Need > Chunks[Chunk].Bytes) {
      if (Chunk != Chunks.size() && Used != 0) {
        ++Chunk; // the next chunk, or a new one
        Used = 0;
      } else {
        // No chunk left, or an empty one too small for this object.
        addChunk(Chunk, std::max(kChunkBytes,
                                 regions::alignTo(Need, regions::kPageSize)));
      }
    }
    char *Base = Chunks[Chunk].Base + Used;
    Used += Need;
    reinterpret_cast<regions::AllocHeader *>(Base)->Aux = 0;
    return Base + sizeof(regions::AllocHeader);
  }
  void doFree(void *) override {}

private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  struct Run {
    char *Base;
    std::size_t Bytes;
  };

  /// A new chunk at position \p At, touched now so that it is mapped
  /// before anything on it is timed.
  void addChunk(std::size_t At, std::size_t Bytes) {
    auto *P =
        static_cast<char *>(Source.allocPages(Bytes / regions::kPageSize));
    std::memset(P, 0, Bytes);
    Chunks.insert(Chunks.begin() + At, {P, Bytes});
  }

  std::vector<Run> Chunks;
  std::size_t Chunk = 0, Used = 0;
};

/// Counters read from the library's own statistics. Workloads take them
/// as deltas over a phase and sum those, field by field, here only.
struct Counts {
  regions::RegionStats Stats;
  regions::PoolStats Pool;
  regions::rt::RuntimeStack::Counters Stack;

  /// \p Mgr's counters and the calling thread's shadow-stack counters.
  static Counts read(const regions::RegionManager &Mgr);
  /// Adds After - Before.
  void addDelta(const Counts &Before, const Counts &After);
  void merge(const Counts &O) { addDelta(Counts(), O); }
};

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span timestamps: the TSC where there is one (on a VM it costs half a
/// steady_clock read), scaled by ticksPerNs(); the steady clock elsewhere.
inline std::uint64_t spanTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return nowNs();
#endif
}

/// spanTicks() per nanosecond, measured against the steady clock once.
double ticksPerNs();

/// The library layers whose public calls the traced run times.
enum Layer : unsigned {
  AllocRaw,     ///< allocRaw / rstralloc-style pointer-free objects
  AllocArray,   ///< rnewArray
  AllocScanned, ///< allocScanned / rnew of objects with cleanups
  LifeNew,      ///< newRegion
  LifeDelete,   ///< deleteRegion
  PoolAcquire,  ///< RegionPool::acquire
  PoolRelease,  ///< RegionPool::release
  ParShare,     ///< ParallelSpace::share
  ParExchange,  ///< ParallelSpace::sharedExchange (resolving)
  ParTryDelete, ///< ParallelSpace::tryDelete
  NumLayers
};

const char *layerName(Layer L);

struct LayerTimes {
  std::uint64_t Calls[NumLayers] = {};
  std::uint64_t Ticks[NumLayers] = {}; ///< gross: includes the span's cost

  void merge(const LayerTimes &O) {
    for (unsigned I = 0; I != NumLayers; ++I) {
      Calls[I] += O.Calls[I];
      Ticks[I] += O.Ticks[I];
    }
  }
  std::uint64_t totalCalls() const {
    std::uint64_t N = 0;
    for (std::uint64_t C : Calls)
      N += C;
    return N;
  }
  std::uint64_t totalTicks() const {
    std::uint64_t N = 0;
    for (std::uint64_t C : Ticks)
      N += C;
    return N;
  }
};

/// Times one call into a layer when \p Times is non-null.
class Span {
public:
  Span(LayerTimes *Times, Layer L)
      : Times(Times), L(L), Start(Times ? spanTicks() : 0) {}
  ~Span() {
    if (Times) {
      Times->Ticks[L] += spanTicks() - Start;
      ++Times->Calls[L];
    }
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  LayerTimes *Times;
  Layer L;
  std::uint64_t Start;
};

/// Calibrated cost of an empty span in nanoseconds: \c Inside is the
/// mean duration an empty span records (the share of clock cost every
/// span over-reports), \c Total the wall time it adds to its caller.
struct SpanCost {
  double Inside = 0;
  double Total = 0;
  double TicksPerNs = 1;
};
SpanCost calibrateSpanCost();

/// Nearest-rank percentile of \p Sorted (ascending), \p P in [0, 100].
double percentile(const std::vector<std::uint64_t> &Sorted, double P);

/// Median of \p V (the mean of the middle two when its size is even);
/// NaN when \p V is empty, which main() refuses to print.
double median(std::vector<double> V);

/// Per-unit wall-time accounting of a traced phase, printed as the
/// "where the time went" table and exported as per-layer metrics.
/// Every figure is nanoseconds per unit; layer busy time is net of the
/// calibrated span cost, and busy + self + unaccounted = wall exactly.
struct Breakdown {
  double Units = 0;     ///< units (or requests) the traced phase ran
  double WallNs = 0;    ///< phase wall time per unit
  double UnitSpanNs = 0;///< time inside the per-unit spans, per unit
  LayerTimes Times;     ///< summed over the phase
  SpanCost Cost;
  /// Traced over untraced wall time of the same work, minus 1.
  double OverheadRatio = 0;

  double callsPerUnit(Layer L) const { return Times.Calls[L] / Units; }
  double busyNs(Layer L) const {
    return (Times.Ticks[L] / Cost.TicksPerNs - Times.Calls[L] * Cost.Inside) /
           Units;
  }
  double selfNs() const {
    double Calls = static_cast<double>(Times.totalCalls());
    return UnitSpanNs - (Times.totalTicks() / Cost.TicksPerNs +
                         Calls * (Cost.Total - Cost.Inside)) /
                            Units;
  }
  double unaccountedNs() const {
    double Busy = 0;
    for (unsigned I = 0; I != NumLayers; ++I)
      Busy += busyNs(static_cast<Layer>(I));
    return WallNs - Busy - selfNs();
  }
  /// Appends the table to \p Out's notes and the span metrics to its
  /// metrics; \p Unit names what one unit is ("unit", "request").
  void report(Result &Out, const char *Title, const char *Unit) const;
};

/// Every metric the benchmark prints, by name and unit, in print order
/// (BENCHMARK.json lists the same names).
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics, kPerLayerMetrics;
const char *metricUnit(const std::string &Name);

void runCompile(const Options &Opt, Result &Out);
void runFactor(const Options &Opt, Result &Out);
void runServe(const Options &Opt, Result &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
