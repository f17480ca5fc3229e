//===- perfbench/src/ClosedLoop.cpp - compile and factor workloads --------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two single-threaded closed-loop workloads. Each generates a fixed
/// set of seeded inputs, computes every input's expected result on an
/// independent backend (the bump allocator through DirectModel), then
/// runs whole passes over the inputs until the time is up, each unit on
/// safe regions and on the base arena back to back, checking every
/// unit's result against the reference.
///
///  - compile: parse, compile and run one generated mudlle program per
///    unit (compileOnce). The heaviest user of the safety machinery:
///    scanned allocation, cleanup thunks, sameregion barrier stores and
///    a shadow-stack scan at every deleteRegion.
///  - factor: cfrac on one seeded 50-56 bit semiprime per unit. Pointer-
///    free bump allocation, zeroing and cheap short-lived regions, with
///    no barrier stores, no cleanups and no scanned frames.
///
/// Passes are identical, so per-unit counters taken over whole passes
/// repeat exactly for a given seed; the stamp carries a digest of the
/// inputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "alloc/BumpAllocator.h"
#include "backend/Models.h"
#include "region/Metrics.h"
#include "support/Prng.h"
#include "workloads/Cfrac.h"
#include "workloads/MudlleWork.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <type_traits>

using namespace regions;
using namespace regions::workloads;

namespace perfbench {
namespace {

/// RegionModel with a span around every call into the region library
/// (the alloc and lifecycle layers). Barrier stores, stack scans and
/// cleanups run inside these calls or inline in the workload, so they
/// are counted from the library's statistics instead.
class TracedModel {
public:
  static constexpr bool kStructuredFree = RegionModel::kStructuredFree;
  static constexpr bool kIndividualFree = RegionModel::kIndividualFree;
  template <class T> using Ptr = RegionModel::Ptr<T>;
  template <class T> using SamePtr = RegionModel::SamePtr<T>;
  template <class T> using Local = RegionModel::Local<T>;
  using Frame = RegionModel::Frame;
  using Token = RegionModel::Token;

  TracedModel(RegionModel &Inner, LayerTimes &Times)
      : Inner(Inner), Times(Times) {}

  Region *makeRegion() {
    Span S(&Times, LifeNew);
    return Inner.makeRegion();
  }
  bool dropRegion(Token &Handle) {
    Span S(&Times, LifeDelete);
    return Inner.dropRegion(Handle);
  }
  template <class T, class... Args> T *create(Region *R, Args &&...A) {
    Span S(&Times,
           std::is_trivially_destructible_v<T> ? AllocRaw : AllocScanned);
    return Inner.template create<T>(R, std::forward<Args>(A)...);
  }
  template <class T> T *createArray(Region *R, std::size_t N) {
    Span S(&Times, AllocArray);
    return Inner.template createArray<T>(R, N);
  }
  char *strdup(Region *R, const char *Str) {
    Span S(&Times, AllocRaw);
    return Inner.strdup(R, Str);
  }
  void *allocBytes(Region *R, std::size_t N) {
    Span S(&Times, AllocRaw);
    return Inner.allocBytes(R, N);
  }
  void *allocBlob(Region *R, std::size_t N) {
    Span S(&Times, AllocScanned);
    return Inner.allocBlob(R, N);
  }
  template <class T> void dispose(T *) {}
  template <class T> void disposeArray(T *, std::size_t) {}
  template <class T> void assignSame(Ptr<T> &Slot, T *New, Token &Scope) {
    Inner.assignSame(Slot, New, Scope);
  }
  void touch(const void *P, std::size_t N, bool IsWrite = false) {
    Inner.touch(P, N, IsWrite);
  }

private:
  RegionModel &Inner;
  LayerTimes &Times;
};

/// A unit's result: its checksum, and whether it passed the workload's
/// own check of the output.
struct Outcome {
  std::uint64_t Checksum = 0;
  bool Valid = false;
};

struct Input {
  std::string Text;   ///< mudlle source, or the semiprime in decimal
  std::uint64_t N = 0;///< factor: the semiprime
  Outcome Expected;   ///< the reference backend's result
};

//===----------------------------------------------------------------------===//
// The two workloads
//===----------------------------------------------------------------------===//

/// Runs one input on the reference backend: bump allocation through
/// DirectModel, a fresh allocator per input so runs stay independent.
/// \p Allocs, when given, receives the number of allocations it made.
template <class W>
Outcome reference(const Input &In, std::uint64_t *Allocs = nullptr) {
  BumpAllocator A(std::size_t{256} << 20);
  DirectModel Mem(A, nullptr, /*CallFree=*/false);
  Outcome O = W::run(Mem, In);
  if (Allocs)
    *Allocs = A.stats().TotalAllocs;
  return O;
}

struct Compile {
  static constexpr const char *Name = "compile";
  /// 512 programs of ~0.6 ms each: a 0.3 s pass, enough distinct inputs
  /// that a percentile over them does not hinge on a few programs.
  static constexpr unsigned kInputs = 512, kWarmup = 64;
  /// Generated programs whose main() runs longer are skipped (about a
  /// quarter of them): their interpreter time is heavy-tailed, allocates
  /// nothing, and would make one seed's pass several times another's.
  static constexpr std::uint64_t kMaxVmSteps = 100000;

  static std::vector<Input> generate(std::uint64_t Seed) {
    std::vector<Input> In;
    Prng Rng(Seed * 0x100000001b3ULL + 0xC0);
    while (In.size() != kInputs) {
      mud::GenOptions G; // the paper's ~500-line file
      G.Seed = Rng.next();
      Input I;
      I.Text = mud::ProgramGenerator(G).generate();
      if (vmSteps(I.Text) > kMaxVmSteps)
        continue;
      I.Expected = reference<Compile>(I);
      In.push_back(std::move(I));
    }
    return In;
  }

  template <class M> static Outcome run(M &Mem, const Input &In) {
    MudlleResult R;
    bool Ok = compileOnce(Mem, In.Text.c_str(), R, /*Run=*/true);
    return {R.checksum(), Ok};
  }

private:
  /// Interpreter steps main() takes (unbounded programs count as
  /// over any limit).
  static std::uint64_t vmSteps(const std::string &Source) {
    BumpAllocator A(std::size_t{256} << 20);
    DirectModel Mem(A, nullptr, /*CallFree=*/false);
    DirectModel::Token Ast, Code;
    mud::Parser<DirectModel> P(Mem, Ast, Source.c_str());
    mud::SourceFile<DirectModel> *File = P.parseFile();
    if (P.failed())
      return ~std::uint64_t{0};
    mud::CompiledProgram<DirectModel> *Prog =
        mud::Compiler<DirectModel>(Mem, Code).compile(File);
    if (!Prog)
      return ~std::uint64_t{0};
    mud::VmResult R = mud::Vm<DirectModel>(*Prog).runMain(kMaxVmSteps + 1);
    return R.Ok ? R.Steps : ~std::uint64_t{0};
  }
};

/// Smallest prime >= \p From (trial division; inputs are < 2^32).
std::uint64_t nextPrime(std::uint64_t From) {
  for (std::uint64_t P = From | 1;; P += 2) {
    bool Prime = true;
    for (std::uint64_t D = 3; D * D <= P; D += 2)
      if (P % D == 0) {
        Prime = false;
        break;
      }
    if (Prime)
      return P;
  }
}

struct Factor {
  static constexpr const char *Name = "factor";
  /// 512 numbers of 1-8 ms each: a 1.5 s pass; the p99 then rests on
  /// several inputs, not on one seed's unluckiest number.
  static constexpr unsigned kInputs = 512, kWarmup = 32;
  static constexpr unsigned kFactorBase = 50;
  /// Numbers whose factoring makes more allocations are skipped (about
  /// 2%): they are the few that cost up to 10x the median, and would
  /// make one seed's pass far longer than another's.
  static constexpr std::uint64_t kMaxAllocs = 40000;

  static std::vector<Input> generate(std::uint64_t Seed) {
    std::vector<Input> In;
    Prng Rng(Seed * 0x100000001b3ULL + 0xFA);
    while (In.size() != kInputs) {
      // Two primes of 25-28 bits: a 50-56 bit semiprime.
      std::uint64_t P = nextPrime(Rng.nextInRange(1u << 24, (1u << 28) - 1));
      std::uint64_t Q = nextPrime(Rng.nextInRange(1u << 24, (1u << 28) - 1));
      Input I;
      I.N = P * Q;
      I.Text = std::to_string(I.N);
      std::uint64_t Allocs = 0;
      I.Expected = reference<Factor>(I, &Allocs);
      if (Allocs <= kMaxAllocs)
        In.push_back(std::move(I));
    }
    return In;
  }

  /// Finding no factor is a correct outcome; a reported factor must be
  /// a proper divisor of N.
  template <class M> static Outcome run(M &Mem, const Input &In) {
    CfracOptions O;
    O.Decimal = In.Text.c_str();
    O.FactorBaseSize = kFactorBase;
    CfracResult R = runCfrac(Mem, O);
    bool Divides = R.FactorLow64 > 1 && R.FactorLow64 < In.N &&
                   In.N % R.FactorLow64 == 0;
    return {R.checksum(), !R.Factored || Divides};
  }
};

template <class W> class ClosedLoop {
public:
  ClosedLoop(const Options &Opt, Result &Out) : Opt(Opt), Out(Out) {}

  void run() {
    In = W::generate(Opt.Seed);
    std::uint64_t Digest = fnv1a(nullptr, 0);
    for (const Input &I : In)
      Digest = fnv1a(I.Text.data(), I.Text.size(), Digest);
    Out.InputDigest = Digest;

    double SetupS = setUp(Mgr, Model); // the manager measured
    if (Opt.Trace)
      traced();
    else
      untraced(SetupS);
  }

private:
  /// One set-up, in seconds: a fresh manager into \p M and its model
  /// into \p Md, warmed up on the first inputs.
  double setUp(std::unique_ptr<RegionManager> &M,
               std::unique_ptr<RegionModel> &Md) {
    std::uint64_t Start = nowNs();
    M = std::make_unique<RegionManager>(SafetyConfig::safeConfig());
    Md = std::make_unique<RegionModel>(*M);
    for (unsigned I = 0; I != W::kWarmup; ++I)
      unit(*Md, In[I]);
    return (nowNs() - Start) / 1e9;
  }

  template <class M> void unit(M &Mem, const Input &I) {
    Outcome Got = W::run(Mem, I);
    ++Out.Attempted;
    if (!Got.Valid || !I.Expected.Valid ||
        Got.Checksum != I.Expected.Checksum)
      ++Out.Failed;
  }

  /// Runs \p I on the base arena, from empty.
  void baseUnit(const Input &I) {
    Base.reset();
    unit(BaseMem, I);
  }

  /// One pass over every input: returns its wall time and adds the
  /// units' own times up in \p UnitSpanNs.
  template <class M>
  std::uint64_t pass(M &Mem, std::uint64_t *UnitSpanNs = nullptr) {
    std::uint64_t PassStart = nowNs();
    for (const Input &I : In) {
      std::uint64_t Start = nowNs();
      unit(Mem, I);
      if (UnitSpanNs)
        *UnitSpanNs += nowNs() - Start;
    }
    return nowNs() - PassStart;
  }

  /// One pass that runs every input on the regions and on the base back
  /// to back, the two taking turns at going first, so that both times of
  /// a pair see the host in the same state. Appends the region times to
  /// \p Reg and the base times to \p Bas.
  void pairedPass(std::size_t Pass, std::vector<std::uint64_t> &Reg,
                  std::vector<std::uint64_t> &Bas) {
    for (std::size_t I = 0; I != In.size(); ++I) {
      bool BaseFirst = (Pass + I) & 1;
      std::uint64_t T0 = nowNs();
      if (BaseFirst)
        baseUnit(In[I]);
      else
        unit(*Model, In[I]);
      std::uint64_t T1 = nowNs();
      if (BaseFirst)
        unit(*Model, In[I]);
      else
        baseUnit(In[I]);
      std::uint64_t T2 = nowNs();
      Reg.push_back(BaseFirst ? T2 - T1 : T1 - T0);
      Bas.push_back(BaseFirst ? T1 - T0 : T2 - T1);
    }
  }

  /// Each input's median over the passes of \p Samples (pass-major),
  /// sorted; their sum goes to \p Sum.
  std::vector<std::uint64_t> typical(const std::vector<std::uint64_t> &Samples,
                                     std::size_t Passes, double &Sum) const {
    std::size_t N = In.size();
    std::vector<std::uint64_t> Typical(N);
    std::vector<double> Times(Passes);
    Sum = 0;
    for (std::size_t I = 0; I != N; ++I) {
      for (std::size_t P = 0; P != Passes; ++P)
        Times[P] = static_cast<double>(Samples[P * N + I]);
      Typical[I] = static_cast<std::uint64_t>(median(Times));
      Sum += Typical[I];
    }
    std::sort(Typical.begin(), Typical.end());
    return Typical;
  }

  void untraced(double FirstSetupS) {
    // The base warms up as the regions did in the set-up, untimed: it is
    // the benchmark's yardstick, not part of the system.
    for (unsigned I = 0; I != W::kWarmup; ++I)
      baseUnit(In[I]);
    std::vector<std::uint64_t> RegNs, BaseNs;
    std::size_t Passes = 0;
    timespec Cpu0, Cpu1;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Cpu0);
    // A set-up of a spare manager after every pass: setup_s is then a
    // median over the host's states through the run, as the ratios are,
    // not over the first half second's.
    std::vector<double> Setups{FirstSetupS};
    std::uint64_t Start = nowNs(), Deadline = Start + budgetNs();
    do {
      pairedPass(Passes++, RegNs, BaseNs);
      std::unique_ptr<RegionManager> SpareMgr;
      std::unique_ptr<RegionModel> SpareModel;
      Setups.push_back(setUp(SpareMgr, SpareModel));
    } while (nowNs() < Deadline);
    std::uint64_t Wall = nowNs() - Start;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Cpu1);
    double CpuNs = (Cpu1.tv_sec - Cpu0.tv_sec) * 1e9 +
                   static_cast<double>(Cpu1.tv_nsec - Cpu0.tv_nsec);

    // Each input's time on either side is the median over its passes, so
    // a stall that hits a few passes moves no figure; each figure is the
    // regions' over the base's, so a slow spell of the host, which slows
    // both alike, moves none either.
    double RegSum, BaseSum;
    std::vector<std::uint64_t> Reg = typical(RegNs, Passes, RegSum);
    std::vector<std::uint64_t> Bas = typical(BaseNs, Passes, BaseSum);
    std::size_t N = In.size();
    Out.add("setup_s", median(Setups), "s");
    Out.add("time_vs_base", RegSum / BaseSum, "ratio");
    Out.add("p50_vs_base", percentile(Reg, 50) / percentile(Bas, 50),
            "ratio");
    Out.add("p99_vs_base", percentile(Reg, 99) / percentile(Bas, 99),
            "ratio");
    Out.add("peak_os_kb", Mgr->osBytes() / 1024.0, "KiB");
    Out.add("ok_ratio", 1.0 - double(Out.Failed) / Out.Attempted, "ratio");

    char Line[400];
    std::snprintf(Line, sizeof(Line),
                  "%s: %zu paired passes of %zu inputs, each followed by a "
                  "set-up, in %.2f s; over the inputs' median times, "
                  "regions %.0f units/s, p50/p99 %.1f/%.1f us; base %.0f "
                  "units/s, p50/p99 %.1f/%.1f us; thread CPU / wall %.3f",
                  W::Name, Passes, N, Wall / 1e9, N / (RegSum / 1e9),
                  percentile(Reg, 50) / 1e3, percentile(Reg, 99) / 1e3,
                  N / (BaseSum / 1e9), percentile(Bas, 50) / 1e3,
                  percentile(Bas, 99) / 1e3, CpuNs / Wall);
    Out.Notes.push_back(Line);
  }

  /// Alternates untraced and traced passes over the same inputs on the
  /// same manager: the traced ones give the per-layer figures, the pair
  /// the tracing overhead.
  void traced() {
    Breakdown B;
    B.Cost = calibrateSpanCost();
    TracedModel Traced(*Model, B.Times);
    Counts Delta;
    std::vector<double> PlainNs, TracedNs;
    std::uint64_t TracedWall = 0, TracedUnitSpans = 0, Passes = 0;
    std::uint64_t Deadline = nowNs() + budgetNs();
    do {
      PlainNs.push_back(static_cast<double>(pass(*Model)));
      Counts Before = Counts::read(*Mgr);
      std::uint64_t Ns = pass(Traced, &TracedUnitSpans);
      Delta.addDelta(Before, Counts::read(*Mgr));
      TracedNs.push_back(static_cast<double>(Ns));
      TracedWall += Ns;
      ++Passes;
    } while (nowNs() < Deadline);

    B.Units = static_cast<double>(Passes * In.size());
    B.WallNs = TracedWall / B.Units;
    B.UnitSpanNs = TracedUnitSpans / B.Units;
    B.OverheadRatio = median(TracedNs) / median(PlainNs) - 1;
    B.report(Out, W::Name, "unit");
    countMetrics(Delta, B.Units);
  }

  void countMetrics(const Counts &C, double Units) {
    const RegionStats &S = C.Stats;
    auto PerUnit = [&](const char *Name, std::uint64_t V, const char *U) {
      Out.add(Name, V / Units, U);
    };
    PerUnit("alloc.bytes", S.TotalRequestedBytes, "bytes");
    PerUnit("lifecycle.delete_refused", S.DeleteFailures, "count");
    PerUnit("cleanup.thunks", S.CleanupThunksRun, "count");
    PerUnit("barrier.stores", S.BarrierStores, "count");
    Out.add("barrier.sameregion_ratio",
            S.BarrierStores ? double(S.BarrierSameRegion) / S.BarrierStores
                            : 0,
            "ratio");
    PerUnit("barrier.adjustments", S.BarrierAdjustments, "count");
    PerUnit("stack.scans", C.Stack.Scans, "count");
    PerUnit("stack.frames_scanned", C.Stack.FramesScanned, "count");
    PerUnit("stack.frames_unscanned", C.Stack.FramesUnscanned, "count");
    // Layers this workload never enters.
    for (const char *Zero :
         {"pool.hit_ratio", "pool.trims", "pool.release_refused",
          "parallel.share_calls", "parallel.trydelete_calls",
          "parallel.trydelete_ns", "parallel.trydelete_accept_ratio",
          "gen.late_p99_us", "gen.backlog"})
      Out.add(Zero, 0, metricUnit(Zero));
    MetricsSnapshot M = Mgr->metrics();
    Out.add("pagesource.frontier_pages", M.FrontierPages, "pages");
    Out.add("pagesource.coalesce_sweeps", M.CoalesceSweeps, "count");
    Out.add("pagesource.free_listed_pages", M.FreeListedPages, "pages");
  }

  std::uint64_t budgetNs() const {
    return static_cast<std::uint64_t>(Opt.Seconds * 1e9);
  }

  const Options &Opt;
  Result &Out;
  std::vector<Input> In;
  std::unique_ptr<RegionManager> Mgr;
  std::unique_ptr<RegionModel> Model;
  BaseArena Base;
  DirectModel BaseMem{Base, nullptr, /*CallFree=*/false};
};

} // namespace

void runCompile(const Options &Opt, Result &Out) {
  ClosedLoop<Compile>(Opt, Out).run();
}

void runFactor(const Options &Opt, Result &Out) {
  ClosedLoop<Factor>(Opt, Out).run();
}

} // namespace perfbench
