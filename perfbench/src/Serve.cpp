//===- perfbench/src/Serve.cpp - region-per-request serving workload ------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve workload: a worker thread with its own RegionManager and
/// RegionPool handles requests whose footprints are heavy-tailed between
/// 1 KB and 1 MB; a second thread reloads a shared configuration region
/// on a timer.
///
/// A request takes a region from its worker's pool, fills it with a
/// header array, 16 scanned objects linked by sameregion pointers (three
/// of them also hold counted pointers into the worker's session region)
/// and a body of raw buckets, and reads the current configuration. Each
/// worker keeps kInFlight requests open at once: a request is released
/// back to the pool, after its content tags are checked, when the
/// kInFlight-th later request arrives. Every kSessionRequests requests
/// the session region rotates; the old one is deleted once no open
/// request points into it.
///
/// The reloader publishes a new configuration region through
/// ParallelSpace::share every kReloadInterval. Workers move their
/// counted slot onto it with the resolving sharedExchange; each open
/// request and each session holds a counted reference to the generation
/// it began with. The reloader retires a generation by polling tryDelete
/// once every worker has moved past it; sessions still running on it
/// make some of those polls refuse.
///
/// The untraced run times every request twice, back to back: once as
/// above, and once on the base (the same header, objects, session
/// pointers and body, bump-allocated from a per-slot BaseArena, with no
/// pool, session region, counted pointer or configuration exchange).
/// Each figure is the regions' time over the base's, per worker and
/// segment, and the median over those. The traced run adds an open loop
/// at a fixed Poisson rate per worker, for how late each request
/// started after it was due.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "region/Metrics.h"
#include "region/Parallel.h"
#include "region/Pool.h"
#include "region/Regions.h"
#include "support/Prng.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

using namespace regions;

namespace perfbench {
namespace {

/// One: a second worker, with a manager of its own, makes every
/// region lookup of either miss the library's process-wide hot-arena
/// cache and store to it, so the two bounce its cache line between their
/// cores. Scanned allocation then costs 5x, a request 2x, and by how much
/// depends on where the host puts the two vCPUs, which it changes from
/// minute to minute.
constexpr unsigned kWorkers = 1;
constexpr unsigned kInFlight = 4;          ///< open requests per worker
constexpr unsigned kSessionRequests = 64;  ///< requests per session region
constexpr unsigned kSessionObjects = 8;
constexpr unsigned kScannedObjects = 16;   ///< per request
constexpr unsigned kSessionRefs = 3;       ///< counted refs per request
constexpr unsigned kHeaderWords = 16;
constexpr unsigned kConfigEntries = 2048;  ///< 16 KB of configuration
constexpr std::size_t kMinFootprint = 1 << 10, kMaxFootprint = 1 << 20;
constexpr unsigned kSpecs = 1 << 16;       ///< per-worker specs, cycled
constexpr std::uint64_t kReloadIntervalNs = 5000000;
constexpr unsigned kWarmupRequests = 20000; ///< per worker, per set-up
/// Per slot: the largest request, its 1 MB body in 64 KB buckets, with
/// room to spare.
constexpr std::size_t kBaseSlotBytes = std::size_t{2} << 20;
/// A 1 MB retention budget per worker: the largest bodies never fit, so
/// they are deleted on release and the next acquire misses.
constexpr RegionPoolConfig kPoolConfig{16, 256};
/// Open-loop arrival rate per worker, frozen at about a quarter of the
/// closed-loop capacity of a 4-vCPU Xeon VM; at half, queueing turned
/// that host's speed swings into 3x swings of the latencies from due.
constexpr double kOpenRatePerWorker = 125000;
/// Backlog window: short, so the requests left out of an over-capacity
/// spell are few.
constexpr std::uint64_t kWindowNs = 10000000;
/// A window closing with more requests due but not started than this,
/// after a window that did too, and with more than it, is over capacity.
constexpr std::uint64_t kBacklogLimit = 256;

std::uint64_t mix(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::uint64_t configEntry(std::uint64_t Gen, unsigned I) {
  return mix(Gen * kConfigEntries + I);
}

struct SessionObj {
  std::uint64_t Tag;
};

struct ReqObj {
  RegionPtr<SessionObj> Sess; ///< counted: points into the session region
  RegionPtr<ReqObj> Next;     ///< sameregion link
  std::uint64_t Tag = 0;
};

/// A request object on the base: plain pointers throughout.
struct BaseObj {
  const SessionObj *Sess;
  BaseObj *Next;
  std::uint64_t Tag;
};

struct ConfigRoot {
  std::uint64_t Gen;
  std::uint64_t *Entries;
};

/// One published configuration generation. Plain heap memory owned by
/// the server, so it outlives its region.
struct Generation {
  ConfigRoot *Root;
  par::SharedRegion *Shared;
  std::uint64_t Number;
};

struct Session {
  Region *R = nullptr;
  const Generation *Gen = nullptr; ///< pinned for the session's life
  SessionObj *Objs[kSessionObjects] = {};
  std::uint64_t Tag = 0;
  unsigned Open = 0;     ///< requests pointing into it
  unsigned Served = 0;
  bool Retired = false;
};

struct OpenRequest {
  Region *R = nullptr;
  std::uint64_t *Hdr = nullptr;
  ReqObj *Head = nullptr;
  char **Chunks = nullptr;
  std::size_t NumChunks = 0;
  Session *Sess = nullptr;
  const Generation *Gen = nullptr;
  std::uint64_t Tag = 0;
};

/// The same request on the base; its arena is emptied when the slot is
/// reused.
struct BaseRequest {
  BaseArena Arena{std::size_t{64} << 20};
  std::uint64_t *Hdr = nullptr;
  BaseObj *Head = nullptr;
  char **Chunks = nullptr;
  std::size_t NumChunks = 0;
  std::uint64_t Tag = 0, GenNumber = 0;
  bool Open = false;
};

/// Closed: requests back to back. Paired: the same, each request on the
/// regions and on the base. Open: at the Poisson rate.
enum class PhaseKind { Warmup, Closed, Paired, Open, Stop };

struct Phase {
  PhaseKind Kind = PhaseKind::Warmup;
  bool Traced = false;
  std::uint64_t StartNs = 0, EndNs = 0;
  unsigned Epoch = 0;
};

/// What a worker measured in one phase; read by the main thread after
/// the phase ends.
struct PhaseStats {
  std::uint64_t Requests = 0;
  std::uint64_t BusyNs = 0;      ///< first request start to last end
  std::uint64_t UnitSpanNs = 0;  ///< summed request spans
  /// Open loop, in arrival order: each request's service time (start to
  /// end), and how late it started after it was due. Paired: each
  /// request's time on the regions in Svc, on the base in BaseSvc.
  std::vector<std::uint64_t> Svc, Late, BaseSvc;
  /// Open loop: where each kWindowNs window ends in Svc, and the backlog
  /// (requests due but not started) at its close.
  std::vector<std::pair<std::size_t, std::uint64_t>> WindowEnds;
  std::uint64_t FinalBacklog = 0;
  LayerTimes Times;
  Counts Delta;
  std::uint64_t ReleaseRefused = 0;
};

class Server;

class Worker {
public:
  Worker(Server &S, std::uint64_t Seed);
  void main();

  RegionManager Mgr{SafetyConfig::safeConfig()};
  RegionPool Pool{Mgr, kPoolConfig};
  std::atomic<std::uint64_t> SeenGen{0};
  PhaseStats Stats;
  std::uint64_t Attempted = 0, Failed = 0;
  std::uint64_t OsBytes = 0;
  std::uint64_t TotalRequests = 0; ///< over every phase
  MetricsSnapshot Metrics;
  std::uint64_t InputDigest; ///< of the seed and the request specs

private:
  void runPhase(const Phase &P);
  void handle(LayerTimes *T, std::uint64_t Seq);
  void close(LayerTimes *T, OpenRequest &Q);
  void handleBase(std::uint64_t Seq);
  void closeBase(BaseRequest &Q);
  void moveToCurrentConfig(LayerTimes *T);
  Session *currentSession(LayerTimes *T);
  void endSession(LayerTimes *T, Session *S);
  void drain();

  Server &Srv;
  unsigned Tid = 0;
  std::uint64_t Seed;
  std::vector<std::uint32_t> Footprints;
  std::vector<std::uint64_t> GapsNs;
  std::uint64_t NextSeq = 0;

  std::atomic<ConfigRoot *> Slot{nullptr};
  const Generation *Gen = nullptr;
  OpenRequest Ring[kInFlight];
  unsigned RingHead = 0;
  std::vector<std::unique_ptr<Session>> Sessions;

  BaseRequest BaseRing[kInFlight];
  unsigned BaseHead = 0;
  SessionObj BaseSess[kSessionObjects];
};

class Server {
public:
  explicit Server(std::uint64_t Seed);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Runs \p P on every worker and waits for all of them to finish it.
  void run(Phase P);
  /// Drains every worker, retires every generation and joins the
  /// threads; counts anything left undeleted as failed.
  void shutdown();

  Phase waitPhase(unsigned Epoch);
  void phaseDone();
  const Generation *published() const {
    return Published.load(std::memory_order_acquire);
  }

private:
  /// Declared first: the space's destructor still reads the regions of
  /// any generation left undeleted.
  RegionManager ConfigMgr{SafetyConfig::safeConfig()};

public:
  par::ParallelSpace Space;
  std::vector<std::unique_ptr<Worker>> Workers;
  LayerTimes ReloaderTimes; ///< share and tryDelete; read after shutdown
  std::uint64_t TryDeletes = 0, TryDeleteAccepts = 0;
  std::uint64_t Attempted = 0, Failed = 0;

private:
  void reloaderMain();
  void publish(std::uint64_t Number);
  void pollRetired(bool All);

  std::atomic<const Generation *> Published{nullptr};
  std::vector<std::unique_ptr<Generation>> Generations;
  std::vector<const Generation *> Retired;
  std::atomic<bool> Stopping{false};

  std::mutex Lock;
  std::condition_variable Cv;
  Phase Current;     ///< guarded by Lock
  unsigned Done = 0; ///< guarded by Lock
  std::vector<std::thread> Threads;
};

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

/// \p N draws from the distribution with inverse CDF \p Quantile, one
/// from each of N equal-probability strata, in seeded random order: the
/// seed changes the order, not the shape, so the few 1 MB requests occur
/// equally often under every seed.
template <class F>
std::vector<double> stratified(Prng &Rng, std::size_t N, F Quantile) {
  std::vector<double> V(N);
  for (std::size_t I = 0; I != N; ++I)
    V[I] = Quantile((I + Rng.nextDouble()) / N);
  for (std::size_t I = N - 1; I > 0; --I)
    std::swap(V[I], V[Rng.nextBelow(I + 1)]);
  return V;
}

Worker::Worker(Server &S, std::uint64_t Seed) : Srv(S), Seed(Seed) {
  Prng Rng(Seed);
  // Pareto, alpha 1.1, from 1 KB and cut at 1 MB: mostly a few KB,
  // with about one request in two thousand at the cap. Whole cache
  // lines, so every body bucket holds its two tag words.
  for (double F : stratified(Rng, kSpecs, [](double U) {
         return kMinFootprint * std::pow(1 - U, -1 / 1.1);
       }))
    Footprints.push_back(
        static_cast<std::uint32_t>(
            std::min(F, static_cast<double>(kMaxFootprint))) &
        ~63u);
  for (double G : stratified(Rng, kSpecs, [](double U) {
         return -std::log(1 - U) * 1e9 / kOpenRatePerWorker;
       }))
    GapsNs.push_back(static_cast<std::uint64_t>(G));
  for (unsigned I = 0; I != kSessionObjects; ++I)
    BaseSess[I].Tag = mix(Seed) + I;
  InputDigest = fnv1a(&Seed, sizeof(Seed));
  InputDigest = fnv1a(Footprints.data(),
                      Footprints.size() * sizeof(Footprints[0]), InputDigest);
  InputDigest =
      fnv1a(GapsNs.data(), GapsNs.size() * sizeof(GapsNs[0]), InputDigest);
}

void Worker::main() {
  par::ThreadSlot ThreadId(Srv.Space);
  Tid = ThreadId.tid();
  moveToCurrentConfig(nullptr);
  for (unsigned Epoch = 1;; ++Epoch) {
    Phase P = Srv.waitPhase(Epoch);
    if (P.Kind == PhaseKind::Stop)
      break;
    runPhase(P);
    Srv.phaseDone();
  }
  drain();
  Srv.phaseDone();
}

void Worker::runPhase(const Phase &P) {
  // The paired samples keep their capacity from segment to segment:
  // growing them inside a timed phase would stall the requests behind.
  std::vector<std::uint64_t> Svc = std::move(Stats.Svc),
                             BaseSvc = std::move(Stats.BaseSvc);
  Stats = PhaseStats();
  if (P.Kind == PhaseKind::Paired) {
    Stats.Svc = std::move(Svc);
    Stats.BaseSvc = std::move(BaseSvc);
    Stats.Svc.clear();
    Stats.BaseSvc.clear();
    for (BaseRequest &Q : BaseRing) // mapped before the first is timed
      Q.Arena.reserve(kBaseSlotBytes);
  }
  Counts Before = Counts::read(Mgr);
  LayerTimes *T = P.Traced ? &Stats.Times : nullptr;

  // Workers start together.
  while (nowNs() < P.StartNs)
    std::this_thread::yield();
  std::uint64_t First = nowNs(), Last = First;
  if (P.Kind == PhaseKind::Warmup) {
    for (unsigned I = 0; I != kWarmupRequests; ++I)
      handle(nullptr, NextSeq++);
    Last = nowNs();
    Stats.Requests = kWarmupRequests;
  } else if (P.Kind == PhaseKind::Closed) {
    while (Last < P.EndNs) {
      std::uint64_t Start = T ? nowNs() : Last;
      handle(T, NextSeq++);
      Last = nowNs();
      Stats.UnitSpanNs += Last - Start;
      ++Stats.Requests;
    }
  } else if (P.Kind == PhaseKind::Paired) {
    // Each request on the regions and on the base back to back, the two
    // taking turns at going first, so that both see the host alike.
    while (Last < P.EndNs) {
      std::uint64_t Seq = NextSeq++;
      bool BaseFirst = Seq & 1;
      std::uint64_t T0 = nowNs();
      if (BaseFirst)
        handleBase(Seq);
      else
        handle(nullptr, Seq);
      std::uint64_t T1 = nowNs();
      if (BaseFirst)
        handle(nullptr, Seq);
      else
        handleBase(Seq);
      Last = nowNs();
      Stats.Svc.push_back(BaseFirst ? Last - T1 : T1 - T0);
      Stats.BaseSvc.push_back(BaseFirst ? T1 - T0 : Last - T1);
      ++Stats.Requests;
    }
  } else {
    // Open loop: each request is due one seeded exponential gap after
    // the previous one, whether or not the worker has kept up.
    // Percentiles are taken after the phase: sorting inside it would
    // stall the requests behind.
    auto Expected = static_cast<std::size_t>((P.EndNs - P.StartNs) / 1e9 *
                                             kOpenRatePerWorker * 1.1);
    Stats.Svc.reserve(Expected);
    Stats.Late.reserve(Expected);
    std::uint64_t Window = 0;
    std::uint64_t Due = P.StartNs + GapsNs[NextSeq % kSpecs];
    for (; Due < P.EndNs; Due += GapsNs[++NextSeq % kSpecs]) {
      std::uint64_t Start = nowNs();
      while (Start < Due)
        Start = nowNs();
      std::uint64_t W = (Due - P.StartNs) / kWindowNs;
      if (W != Window) {
        std::uint64_t Backlog = 0;
        for (std::uint64_t D = Due, J = NextSeq; D <= Start; ++Backlog)
          D += GapsNs[++J % kSpecs];
        Stats.WindowEnds.push_back({Stats.Svc.size(), Backlog});
        Window = W;
      }
      Stats.Late.push_back(Start - Due);
      if (Start > P.EndNs)
        ++Stats.FinalBacklog;
      handle(nullptr, NextSeq);
      Last = nowNs();
      Stats.Svc.push_back(Last - Start);
      ++Stats.Requests;
    }
    Stats.WindowEnds.push_back({Stats.Svc.size(), Stats.FinalBacklog});
  }
  Stats.BusyNs = Last - First;
  TotalRequests += Stats.Requests;

  Stats.Delta.addDelta(Before, Counts::read(Mgr));
  OsBytes = Mgr.osBytes();
  Metrics = Mgr.metrics();
}

/// A request's body bucket size: 8 KB, 64 KB for large bodies.
std::size_t bucketFor(std::size_t Footprint) {
  return Footprint >= (128u << 10) ? (64u << 10) : (8u << 10);
}

/// Writes the tag of bucket \p C of a request tagged \p Tag into the
/// first and last words of its \p N bytes at \p P. The rest is left
/// unwritten: filling it would make large requests cost what the host's
/// memory bandwidth costs, not what the memory manager costs.
void tagBucket(char *P, std::size_t N, std::uint64_t Tag, std::size_t C) {
  std::uint64_t Word = Tag ^ C;
  std::memcpy(P, &Word, sizeof(Word));
  std::memcpy(P + N - sizeof(Word), &Word, sizeof(Word));
}

/// Whether every bucket of a body still carries its tag.
bool bodyOk(char *const *Chunks, std::size_t NumChunks,
            std::size_t Footprint, std::size_t Bucket, std::uint64_t Tag) {
  bool Ok = true;
  for (std::size_t C = 0, Left = Footprint; C != NumChunks; ++C) {
    std::uint64_t Word = Tag ^ C, A, B;
    std::size_t N = std::min(Left, Bucket);
    Left -= N;
    std::memcpy(&A, Chunks[C], sizeof(A));
    std::memcpy(&B, Chunks[C] + N - sizeof(B), sizeof(B));
    Ok &= A == Word && B == Word;
  }
  return Ok;
}

/// One request arrives: the oldest open request completes first when
/// all kInFlight slots are taken.
void Worker::handle(LayerTimes *T, std::uint64_t Seq) {
  OpenRequest &Q = Ring[RingHead];
  RingHead = (RingHead + 1) % kInFlight;
  if (Q.R)
    close(T, Q);
  moveToCurrentConfig(T);
  Session *S = currentSession(T);
  ++Attempted;

  Q.Tag = mix(Seed ^ Seq);
  Q.Sess = S;
  Q.Gen = Gen;
  ++S->Open;
  Srv.Space.addRef(Gen->Shared, Tid);
  {
    Span Sp(T, PoolAcquire);
    Q.R = Pool.acquire();
  }
  {
    Span Sp(T, AllocArray);
    Q.Hdr = rnewArray<std::uint64_t>(Q.R, kHeaderWords);
  }
  std::size_t Footprint = Footprints[Seq % kSpecs];
  std::uint64_t Cfg = Gen->Root->Entries[Q.Tag % kConfigEntries];
  std::size_t Bucket = bucketFor(Footprint);
  Q.Hdr[0] = Q.Tag;
  Q.Hdr[1] = Footprint;
  Q.Hdr[2] = Cfg;
  Q.Hdr[3] = Bucket;

  ReqObj *Prev = nullptr;
  for (unsigned I = 0; I != kScannedObjects; ++I) {
    ReqObj *O;
    {
      Span Sp(T, AllocScanned);
      O = rnew<ReqObj>(Q.R);
    }
    O->Tag = Q.Tag + I;
    O->Next = Prev;
    if (I < kSessionRefs)
      O->Sess = S->Objs[(Q.Tag + I) % kSessionObjects];
    Prev = O;
  }
  Q.Head = Prev;

  Q.NumChunks = (Footprint + Bucket - 1) / Bucket;
  {
    Span Sp(T, AllocArray);
    Q.Chunks = rnewArray<char *>(Q.R, Q.NumChunks);
  }
  for (std::size_t C = 0, Left = Footprint; C != Q.NumChunks; ++C) {
    std::size_t N = std::min(Left, Bucket);
    Left -= N;
    char *P;
    {
      Span Sp(T, AllocRaw);
      P = static_cast<char *>(Mgr.allocRaw(Q.R, N));
    }
    tagBucket(P, N, Q.Tag, C);
    Q.Chunks[C] = P;
  }
}

/// Checks an open request's content, then releases it to the pool.
void Worker::close(LayerTimes *T, OpenRequest &Q) {
  bool Ok = Q.Hdr[0] == Q.Tag &&
            Q.Hdr[2] == Q.Gen->Root->Entries[Q.Tag % kConfigEntries] &&
            Q.Hdr[2] == configEntry(Q.Gen->Number, Q.Tag % kConfigEntries);
  unsigned I = kScannedObjects;
  for (ReqObj *O = Q.Head; O; O = O->Next) {
    --I;
    Ok &= O->Tag == Q.Tag + I;
    if (I < kSessionRefs)
      Ok &= O->Sess.get() == Q.Sess->Objs[(Q.Tag + I) % kSessionObjects] &&
            O->Sess->Tag == Q.Sess->Tag + (Q.Tag + I) % kSessionObjects;
  }
  Ok &= I == 0 && bodyOk(Q.Chunks, Q.NumChunks, Q.Hdr[1], Q.Hdr[3], Q.Tag);
  if (!Ok)
    ++Failed;

  Srv.Space.dropRef(Q.Gen->Shared, Tid);
  bool Released;
  {
    Span Sp(T, PoolRelease);
    Released = Pool.release(Q.R);
  }
  if (!Released) {
    ++Failed;
    ++Stats.ReleaseRefused;
    Mgr.deleteRegionRaw(Q.R);
  }
  Q.R = nullptr;
  if (--Q.Sess->Open == 0 && Q.Sess->Retired)
    endSession(T, Q.Sess);
}

/// handle() on the base: the same content, bump-allocated from the
/// slot's arena, with plain pointers to fixed session objects and the
/// configuration read through the worker's current generation.
void Worker::handleBase(std::uint64_t Seq) {
  BaseRequest &Q = BaseRing[BaseHead];
  BaseHead = (BaseHead + 1) % kInFlight;
  if (Q.Open)
    closeBase(Q);
  ++Attempted;
  Q.Open = true;
  Q.Arena.reset();
  Q.Tag = mix(Seed ^ Seq);
  Q.GenNumber = Gen->Number;
  Q.Hdr = static_cast<std::uint64_t *>(
      Q.Arena.malloc(kHeaderWords * sizeof(std::uint64_t)));
  std::memset(Q.Hdr, 0, kHeaderWords * sizeof(std::uint64_t));
  std::size_t Footprint = Footprints[Seq % kSpecs];
  std::size_t Bucket = bucketFor(Footprint);
  Q.Hdr[0] = Q.Tag;
  Q.Hdr[1] = Footprint;
  Q.Hdr[2] = Gen->Root->Entries[Q.Tag % kConfigEntries];
  Q.Hdr[3] = Bucket;

  BaseObj *Prev = nullptr;
  for (unsigned I = 0; I != kScannedObjects; ++I)
    Prev = ::new (Q.Arena.malloc(sizeof(BaseObj))) BaseObj{
        I < kSessionRefs ? &BaseSess[(Q.Tag + I) % kSessionObjects] : nullptr,
        Prev, Q.Tag + I};
  Q.Head = Prev;

  Q.NumChunks = (Footprint + Bucket - 1) / Bucket;
  Q.Chunks =
      static_cast<char **>(Q.Arena.malloc(Q.NumChunks * sizeof(char *)));
  for (std::size_t C = 0, Left = Footprint; C != Q.NumChunks; ++C) {
    std::size_t N = std::min(Left, Bucket);
    Left -= N;
    Q.Chunks[C] = static_cast<char *>(Q.Arena.malloc(N));
    tagBucket(Q.Chunks[C], N, Q.Tag, C);
  }
}

/// close() on the base. The configuration entry is checked against its
/// generation number, not read again: the generation may be gone by now.
void Worker::closeBase(BaseRequest &Q) {
  bool Ok = Q.Hdr[0] == Q.Tag &&
            Q.Hdr[2] == configEntry(Q.GenNumber, Q.Tag % kConfigEntries);
  unsigned I = kScannedObjects;
  for (BaseObj *O = Q.Head; O; O = O->Next) {
    --I;
    Ok &= O->Tag == Q.Tag + I;
    if (I < kSessionRefs) {
      unsigned J = (Q.Tag + I) % kSessionObjects;
      Ok &= O->Sess == &BaseSess[J] && O->Sess->Tag == mix(Seed) + J;
    }
  }
  Ok &= I == 0 && bodyOk(Q.Chunks, Q.NumChunks, Q.Hdr[1], Q.Hdr[3], Q.Tag);
  if (!Ok)
    ++Failed;
  Q.Open = false;
}

void Worker::moveToCurrentConfig(LayerTimes *T) {
  const Generation *G = Srv.published();
  if (G == Gen)
    return;
  {
    Span Sp(T, ParExchange);
    Srv.Space.sharedExchange(Slot, G->Root, G->Shared, Tid);
  }
  Gen = G;
  SeenGen.store(G->Number, std::memory_order_release);
}

Session *Worker::currentSession(LayerTimes *T) {
  if (!Sessions.empty() && !Sessions.back()->Retired &&
      Sessions.back()->Served < kSessionRequests) {
    ++Sessions.back()->Served;
    return Sessions.back().get();
  }
  if (!Sessions.empty() && !Sessions.back()->Retired) {
    Session *Old = Sessions.back().get();
    Old->Retired = true;
    if (Old->Open == 0)
      endSession(T, Old);
  }
  auto S = std::make_unique<Session>();
  {
    Span Sp(T, LifeNew);
    S->R = Mgr.newRegion();
  }
  ++Attempted;
  S->Tag = mix(Seed ^ ~NextSeq);
  for (unsigned I = 0; I != kSessionObjects; ++I) {
    Span Sp(T, AllocRaw);
    S->Objs[I] = rnew<SessionObj>(S->R, SessionObj{S->Tag + I});
  }
  S->Gen = Gen;
  Srv.Space.addRef(Gen->Shared, Tid);
  S->Served = 1;
  Sessions.push_back(std::move(S));
  return Sessions.back().get();
}

void Worker::endSession(LayerTimes *T, Session *S) {
  bool Deleted;
  {
    Span Sp(T, LifeDelete);
    Deleted = Mgr.deleteRegionRaw(S->R);
  }
  if (!Deleted)
    ++Failed;
  Srv.Space.dropRef(S->Gen->Shared, Tid);
  Sessions.erase(std::find_if(Sessions.begin(), Sessions.end(),
                              [S](const auto &P) { return P.get() == S; }));
}

/// Completes every open request, deletes every session, drops the
/// configuration slot and empties the pool.
void Worker::drain() {
  for (OpenRequest &Q : Ring)
    if (Q.R)
      close(nullptr, Q);
  for (BaseRequest &Q : BaseRing)
    if (Q.Open)
      closeBase(Q);
  while (!Sessions.empty()) {
    Session *S = Sessions.back().get();
    if (S->Open != 0) {
      ++Failed;
      break;
    }
    S->Retired = true;
    endSession(nullptr, S);
  }
  Srv.Space.sharedExchange(Slot, static_cast<ConfigRoot *>(nullptr),
                           nullptr, Tid);
  Pool.trimAll();
  if (Mgr.liveRegionCount() != 0)
    ++Failed;
  SeenGen.store(~std::uint64_t{0}, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(std::uint64_t Seed) {
  for (unsigned I = 0; I != kWorkers; ++I)
    Workers.push_back(std::make_unique<Worker>(*this, mix(Seed * 31 + I)));
  // The first generation exists before any worker starts.
  publish(1);
  Threads.emplace_back([this] { reloaderMain(); });
  for (auto &W : Workers)
    Threads.emplace_back([&W] { W->main(); });
}

Server::~Server() {
  if (!Threads.empty())
    shutdown();
}

void Server::run(Phase P) {
  std::unique_lock<std::mutex> G(Lock);
  P.Epoch = Current.Epoch + 1;
  Current = P;
  Done = 0;
  Cv.notify_all();
  Cv.wait(G, [this] { return Done == Workers.size(); });
}

Phase Server::waitPhase(unsigned Epoch) {
  std::unique_lock<std::mutex> G(Lock);
  Cv.wait(G, [&] { return Current.Epoch == Epoch; });
  return Current;
}

void Server::phaseDone() {
  std::lock_guard<std::mutex> G(Lock);
  ++Done;
  Cv.notify_all();
}

void Server::shutdown() {
  Phase Stop;
  Stop.Kind = PhaseKind::Stop;
  run(Stop);
  Stopping.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  Threads.clear();
  for (auto &W : Workers) {
    Attempted += W->Attempted;
    Failed += W->Failed;
  }
  Failed += Retired.size() + Space.liveSharedRegions() +
            ConfigMgr.liveRegionCount();
}

void Server::publish(std::uint64_t Number) {
  Region *R = ConfigMgr.newRegion();
  auto *Root = rnew<ConfigRoot>(R);
  Root->Gen = Number;
  Root->Entries = rnewArray<std::uint64_t>(R, kConfigEntries);
  for (unsigned I = 0; I != kConfigEntries; ++I)
    Root->Entries[I] = configEntry(Number, I);
  par::SharedRegion *S;
  {
    Span Sp(&ReloaderTimes, ParShare);
    S = Space.share(R);
  }
  Generations.push_back(
      std::make_unique<Generation>(Generation{Root, S, Number}));
  const Generation *Old = Published.exchange(Generations.back().get(),
                                             std::memory_order_acq_rel);
  if (Old)
    Retired.push_back(Old);
  ++Attempted;
}

/// Tries to delete every retired generation all workers have moved past
/// (every generation when \p All).
void Server::pollRetired(bool All) {
  std::uint64_t Seen = ~std::uint64_t{0};
  for (auto &W : Workers)
    Seen = std::min(Seen, W->SeenGen.load(std::memory_order_acquire));
  if (All && Published.load() != nullptr)
    Retired.push_back(Published.exchange(nullptr));
  std::vector<const Generation *> Keep;
  for (const Generation *G : Retired) {
    if (G->Number >= Seen) {
      Keep.push_back(G);
      continue;
    }
    bool Accepted;
    {
      Span Sp(&ReloaderTimes, ParTryDelete);
      Accepted = Space.tryDelete(G->Shared);
    }
    ++TryDeletes;
    TryDeleteAccepts += Accepted;
    if (!Accepted)
      Keep.push_back(G);
  }
  Retired.swap(Keep);
}

void Server::reloaderMain() {
  par::ThreadSlot Tid(Space);
  std::uint64_t Number = 1, Next = nowNs() + kReloadIntervalNs;
  while (!Stopping.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (nowNs() >= Next) {
      publish(++Number);
      Next += kReloadIntervalNs;
    }
    pollRetired(false);
  }
  // Workers have drained and dropped their slots: everything retires.
  pollRetired(true);
  for (unsigned Try = 0; Try != 1000 && !Retired.empty(); ++Try) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    pollRetired(true);
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

/// Sums what every worker measured in the last phase.
struct Totals {
  std::uint64_t Requests = 0, BusyNs = 0, UnitSpanNs = 0;
  LayerTimes Times;
  Counts C;
  std::uint64_t ReleaseRefused = 0;

  void add(const PhaseStats &P) {
    Requests += P.Requests;
    BusyNs += P.BusyNs;
    UnitSpanNs += P.UnitSpanNs;
    Times.merge(P.Times);
    C.merge(P.Delta);
    ReleaseRefused += P.ReleaseRefused;
  }
};

Phase timedPhase(PhaseKind Kind, double Seconds, bool Traced = false) {
  Phase P;
  P.Kind = Kind;
  P.Traced = Traced;
  P.StartNs = nowNs() + 2000000; // let every worker wake first
  P.EndNs = P.StartNs + static_cast<std::uint64_t>(Seconds * 1e9);
  return P;
}

/// Smallest, median and largest of \p V (NaN when it is empty).
std::array<double, 3> spread(const std::vector<double> &V, double Scale) {
  if (V.empty())
    return {median(V), median(V), median(V)};
  auto [Lo, Hi] = std::minmax_element(V.begin(), V.end());
  return {*Lo / Scale, median(V) / Scale, *Hi / Scale};
}

/// Nearest-rank percentile, as percentile() takes it, of \p V, which it
/// reorders in part: sorting a segment's million samples would take
/// longer than its figures are worth.
double selectPercentile(std::vector<std::uint64_t> &V, double P) {
  if (V.empty())
    return 0;
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * V.size()));
  auto It = V.begin() + (std::max<std::size_t>(Rank, 1) - 1);
  std::nth_element(V.begin(), It, V.end());
  return static_cast<double>(*It);
}

/// The figures of a run, one per worker and segment: from paired
/// segments in the untraced run, from open-loop ones in the traced run.
/// Each figure is the median over them.
struct ServeMeasures {
  /// Paired: the regions' time over the base's, in all, at p50 and p99.
  std::vector<double> Ratio, P50Ratio, P99Ratio;
  /// Paired, ns: the regions' and the base's mean, p50 and p99.
  std::vector<double> RegMean, RegP50, RegP99, BaseMean, BaseP50, BaseP99;
  std::uint64_t Pairs = 0;
  /// Open loop, ns: service times, from due, late starts.
  std::vector<double> P50, P99, DueP99, Late;
  std::uint64_t Backlog = 0, Samples = 0;
  unsigned Windows = 0, OverCapacity = 0;

  /// Each request on the regions and on the base, back to back.
  void pairedSegment(Server &S, double Seconds) {
    S.run(timedPhase(PhaseKind::Paired, Seconds));
    for (auto &W : S.Workers) {
      std::vector<std::uint64_t> &Reg = W->Stats.Svc, &Bas = W->Stats.BaseSvc;
      if (Reg.empty())
        continue;
      double RegSum = 0, BaseSum = 0;
      for (std::size_t I = 0; I != Reg.size(); ++I) {
        RegSum += Reg[I];
        BaseSum += Bas[I];
      }
      Pairs += Reg.size();
      RegMean.push_back(RegSum / Reg.size());
      BaseMean.push_back(BaseSum / Bas.size());
      RegP50.push_back(selectPercentile(Reg, 50));
      RegP99.push_back(selectPercentile(Reg, 99));
      BaseP50.push_back(selectPercentile(Bas, 50));
      BaseP99.push_back(selectPercentile(Bas, 99));
      Ratio.push_back(RegSum / BaseSum);
      P50Ratio.push_back(RegP50.back() / BaseP50.back());
      P99Ratio.push_back(RegP99.back() / BaseP99.back());
    }
  }

  /// Open loop at kOpenRatePerWorker per worker: percentiles over every
  /// request of every worker. A worker's kWindowNs window that closes
  /// with more than kBacklogLimit requests waiting, after one that did
  /// too, and more than it, is over capacity: it is counted and its
  /// requests are left out.
  void openSegment(Server &S, double Seconds) {
    S.run(timedPhase(PhaseKind::Open, Seconds));
    std::vector<std::uint64_t> Svc, FromDue, Lateness;
    for (auto &W : S.Workers) {
      const PhaseStats &P = W->Stats;
      std::uint64_t Prev = 0;
      std::size_t From = 0;
      for (auto [End, Waiting] : P.WindowEnds) {
        if (End == From)
          continue;
        ++Windows;
        bool Over = Waiting > kBacklogLimit && Prev > kBacklogLimit &&
                    Waiting >= Prev;
        Prev = Waiting;
        if (Over)
          ++OverCapacity;
        else
          for (std::size_t I = From; I != End; ++I) {
            Svc.push_back(P.Svc[I]);
            FromDue.push_back(P.Late[I] + P.Svc[I]);
          }
        From = End;
      }
      Lateness.insert(Lateness.end(), P.Late.begin(), P.Late.end());
      Backlog += P.FinalBacklog;
    }
    Samples += Svc.size();
    if (!Svc.empty()) {
      std::sort(Svc.begin(), Svc.end());
      std::sort(FromDue.begin(), FromDue.end());
      P50.push_back(percentile(Svc, 50));
      P99.push_back(percentile(Svc, 99));
      DueP99.push_back(percentile(FromDue, 99));
    }
    std::sort(Lateness.begin(), Lateness.end());
    Late.push_back(percentile(Lateness, 99));
  }

  void note(Result &Out, double Seconds) const {
    char Line[500];
    if (!Ratio.empty()) {
      std::snprintf(
          Line, sizeof(Line),
          "serve paired closed loop: %u workers, %zu worker-segments of "
          "%.2f s, %llu request pairs; medians: regions mean/p50/p99 "
          "%.3f/%.3f/%.3f us, base %.3f/%.3f/%.3f us; time vs base "
          "min/median/max %.3f/%.3f/%.3f",
          kWorkers, Ratio.size(), Seconds,
          static_cast<unsigned long long>(Pairs), median(RegMean) / 1e3,
          median(RegP50) / 1e3, median(RegP99) / 1e3, median(BaseMean) / 1e3,
          median(BaseP50) / 1e3, median(BaseP99) / 1e3,
          spread(Ratio, 1)[0], spread(Ratio, 1)[1], spread(Ratio, 1)[2]);
      Out.Notes.push_back(Line);
    }
    if (Late.empty())
      return;
    auto A = spread(P50, 1e3), B = spread(P99, 1e3), D = spread(DueP99, 1e3),
         L = spread(Late, 1e3);
    std::snprintf(
        Line, sizeof(Line),
        "serve open loop: %.0f requests/s per worker x %u workers, %llu "
        "samples in %zu segments, %u of %u worker-windows of %.3f s over "
        "capacity%s; per-segment service p50 min/median/max %.2f/%.2f/%.2f "
        "us, p99 %.2f/%.2f/%.2f us; from due p99 %.2f/%.2f/%.2f us; "
        "generator late p99 median %.1f us, backlog at segment ends %llu",
        kOpenRatePerWorker, kWorkers, static_cast<unsigned long long>(Samples),
        P50.size(), OverCapacity, Windows, kWindowNs / 1e9,
        OverCapacity ? " (OVER CAPACITY: left out)" : "", A[0], A[1], A[2],
        B[0], B[1], B[2], D[0], D[1], D[2], L[1],
        static_cast<unsigned long long>(Backlog));
    Out.Notes.push_back(Line);
  }
};

/// Builds a server and warms it up: the set-up time.
std::unique_ptr<Server> setUp(std::uint64_t Seed, double &Seconds) {
  std::uint64_t Start = nowNs();
  auto S = std::make_unique<Server>(Seed);
  Phase Warm;
  Warm.StartNs = nowNs();
  S->run(Warm);
  Seconds = (nowNs() - Start) / 1e9;
  return S;
}

/// Segments of the traced run: enough that a slow spell of a few seconds
/// lands in a minority of them.
constexpr unsigned kSegments = 10;
/// Paired segments of the untraced run: short, so that a segment's
/// samples stay a few MB.
constexpr unsigned kPairedSegments = 20;

void untraced(Server &S, const Options &Opt, double FirstSetupS,
              Result &Out) {
  ServeMeasures M;
  std::vector<double> Setups{FirstSetupS};
  double Seconds = Opt.Seconds / kPairedSegments;
  for (unsigned I = 0; I != kPairedSegments; ++I) {
    M.pairedSegment(S, Seconds);
    // A spare server set up and shut down after every segment: setup_s
    // is then a median over the host's states through the run, as the
    // ratios are, not over the first tenth of a second's.
    double SetupS;
    std::unique_ptr<Server> Spare = setUp(Opt.Seed, SetupS);
    Spare->shutdown();
    Out.Attempted += Spare->Attempted;
    Out.Failed += Spare->Failed;
    Setups.push_back(SetupS);
  }
  std::uint64_t Os = 0;
  for (auto &W : S.Workers)
    Os += W->OsBytes;
  S.shutdown();
  Out.Attempted += S.Attempted;
  Out.Failed += S.Failed;

  Out.add("setup_s", median(Setups), "s");
  // An empty list gives NaN, which main() refuses to print.
  if (M.Ratio.empty())
    std::fprintf(stderr, "perfbench: serve completed no request pair\n");
  Out.add("time_vs_base", median(M.Ratio), "ratio");
  Out.add("p50_vs_base", median(M.P50Ratio), "ratio");
  Out.add("p99_vs_base", median(M.P99Ratio), "ratio");
  Out.add("peak_os_kb", Os / 1024.0, "KiB");
  Out.add("ok_ratio", 1.0 - double(Out.Failed) / Out.Attempted, "ratio");
  M.note(Out, Seconds);
}

/// Alternates untraced and traced closed-loop phases for the per-layer
/// figures and the tracing overhead, then runs the open loop untraced
/// for the generator diagnostics.
void traced(Server &S, const Options &Opt, Result &Out) {
  SpanCost Cost = calibrateSpanCost();
  Totals T;
  std::vector<double> PlainNs, TracedNs;
  MetricsSnapshot M[kWorkers];
  ServeMeasures Gen;
  for (unsigned I = 0; I != kSegments; ++I) {
    for (bool Traced : {false, true}) {
      S.run(timedPhase(PhaseKind::Closed, 0.3 * Opt.Seconds / kSegments,
                       Traced));
      Totals Phase;
      for (auto &W : S.Workers)
        Phase.add(W->Stats);
      (Traced ? TracedNs : PlainNs)
          .push_back(double(Phase.BusyNs) / Phase.Requests);
      if (Traced)
        for (auto &W : S.Workers)
          T.add(W->Stats);
    }
    for (unsigned W = 0; W != kWorkers; ++W)
      M[W] = S.Workers[W]->Metrics;
    Gen.openSegment(S, 0.4 * Opt.Seconds / kSegments);
  }
  std::uint64_t Requests = 0;
  for (auto &W : S.Workers)
    Requests += W->TotalRequests;
  S.shutdown();
  Out.Attempted += S.Attempted;
  Out.Failed += S.Failed;

  Breakdown B;
  B.Units = static_cast<double>(T.Requests);
  B.WallNs = T.BusyNs / B.Units;
  B.UnitSpanNs = T.UnitSpanNs / B.Units;
  B.Times = T.Times;
  B.Cost = Cost;
  B.OverheadRatio = median(TracedNs) / median(PlainNs) - 1;
  B.report(Out, "serve", "request");

  double U = B.Units;
  const RegionStats &St = T.C.Stats;
  Out.add("alloc.bytes", St.TotalRequestedBytes / U, "bytes");
  Out.add("lifecycle.delete_refused", St.DeleteFailures / U, "count");
  Out.add("cleanup.thunks", St.CleanupThunksRun / U, "count");
  Out.add("barrier.stores", St.BarrierStores / U, "count");
  Out.add("barrier.sameregion_ratio",
          St.BarrierStores ? double(St.BarrierSameRegion) / St.BarrierStores
                           : 0,
          "ratio");
  Out.add("barrier.adjustments", St.BarrierAdjustments / U, "count");
  Out.add("stack.scans", T.C.Stack.Scans / U, "count");
  Out.add("stack.frames_scanned", T.C.Stack.FramesScanned / U, "count");
  Out.add("stack.frames_unscanned", T.C.Stack.FramesUnscanned / U, "count");
  std::uint64_t Acquires = T.C.Pool.Hits + T.C.Pool.Misses;
  Out.add("pool.hit_ratio", Acquires ? double(T.C.Pool.Hits) / Acquires : 0,
          "ratio");
  Out.add("pool.trims", T.C.Pool.Trims / U, "count");
  Out.add("pool.release_refused", T.ReleaseRefused / U, "count");

  // The reloader's calls, per request over the server's whole life.
  const LayerTimes &R = S.ReloaderTimes;
  double AllRequests = static_cast<double>(Requests);
  Out.add("parallel.share_calls", R.Calls[ParShare] / AllRequests, "count");
  Out.add("parallel.trydelete_calls", R.Calls[ParTryDelete] / AllRequests,
          "count");
  Out.add("parallel.trydelete_ns",
          (R.Ticks[ParTryDelete] / Cost.TicksPerNs -
           R.Calls[ParTryDelete] * Cost.Inside) /
              AllRequests,
          "ns");
  Out.add("parallel.trydelete_accept_ratio",
          S.TryDeletes ? double(S.TryDeleteAccepts) / S.TryDeletes : 0,
          "ratio");
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "serve reloader: %llu shares, %llu tryDelete calls "
                "(%.0f ns each, %.1f%% accepted) over %.0f requests",
                static_cast<unsigned long long>(R.Calls[ParShare]),
                static_cast<unsigned long long>(S.TryDeletes),
                S.TryDeletes ? R.Ticks[ParTryDelete] / Cost.TicksPerNs /
                                       S.TryDeletes -
                                   Cost.Inside
                             : 0,
                S.TryDeletes ? 100.0 * S.TryDeleteAccepts / S.TryDeletes : 0,
                AllRequests);
  Out.Notes.push_back(Line);

  double Frontier = 0, Sweeps = 0, FreeListed = 0;
  for (const MetricsSnapshot &W : M) {
    Frontier += W.FrontierPages;
    Sweeps += W.CoalesceSweeps;
    FreeListed += W.FreeListedPages;
  }
  Out.add("pagesource.frontier_pages", Frontier, "pages");
  Out.add("pagesource.coalesce_sweeps", Sweeps, "count");
  Out.add("pagesource.free_listed_pages", FreeListed, "pages");
  Out.add("gen.late_p99_us", median(Gen.Late) / 1e3, "us");
  Out.add("gen.backlog", static_cast<double>(Gen.Backlog), "count");
  Gen.note(Out, 0);
}

} // namespace

void runServe(const Options &Opt, Result &Out) {
  double SetupS;
  std::unique_ptr<Server> S = setUp(Opt.Seed, SetupS);
  std::uint64_t Digest = fnv1a(nullptr, 0);
  for (auto &W : S->Workers)
    Digest = fnv1a(&W->InputDigest, sizeof(W->InputDigest), Digest);
  Out.InputDigest = Digest;
  if (Opt.Trace)
    traced(*S, Opt, Out);
  else
    untraced(*S, Opt, SetupS, Out);
}

} // namespace perfbench
