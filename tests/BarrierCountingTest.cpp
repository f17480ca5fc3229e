//===- tests/BarrierCountingTest.cpp - Buffered counting semantics --------===//
//
// Part of the regions project (Gay & Aiken, PLDI 1998 reproduction).
//
// The write barrier batches its ±1 reference-count adjustments in a
// small per-thread buffer (coalescing repeated stores to the same
// regions) and defers its statistics to per-region counters. These
// tests pin the observable contract: counts and statistics read
// through the public API are exactly what unbuffered, eager counting
// would produce — in particular at every deletion decision, which is
// where the paper's safety rests.
//
//===----------------------------------------------------------------------===//

#include "region/Parallel.h"
#include "region/Regions.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace regions;
using rt::Frame;
using rt::RegionHandle;

namespace {

struct Node {
  explicit Node(int V = 0) : Value(V) {}
  int Value;
  RegionPtr<Node> Next;
};

struct BarrierCountingTest : ::testing::Test {
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
};

//===----------------------------------------------------------------------===//
// Buffered adjustments stay exact
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, CountsExactAfterInterleavedCrossRegionStores) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);

  // Ping-pong a slot in A between values in A and B: every store to
  // InB is a +1 on B, every overwrite a -1, all landing in the
  // pending buffer and largely cancelling there.
  Node *Slot = rnew<Node>(A, 0);
  for (int I = 0; I != 1000; ++I)
    Slot->Next = (I % 2) ? InB : InA;
  // Final state: Slot->Next == InB, so B holds exactly one external
  // reference. referenceCount() flushes before reading.
  EXPECT_EQ(B->referenceCount(), 1);
  EXPECT_EQ(A->referenceCount(), 0) << "A's references are all internal";

  EXPECT_FALSE(deleteRegion(B)) << "live cross-region ref blocks deletion";
  Slot->Next = InA;
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, BufferOverflowSpillsWithoutLosingCounts) {
  // More distinct regions than the pending buffer has entries, all
  // adjusted back-to-back so the overflow path (direct rcAdd) runs.
  Frame F;
  constexpr int kRegions = 24; // PendingCountBuffer::kEntries is 8
  RegionHandle Home = Mgr.newRegion();
  Node *Holder[kRegions];
  RegionHandle Others[kRegions];
  for (int I = 0; I != kRegions; ++I) {
    Others[I] = Mgr.newRegion();
    Holder[I] = rnew<Node>(Home, I);
  }
  for (int I = 0; I != kRegions; ++I)
    Holder[I]->Next = rnew<Node>(Others[I], I);
  for (int I = 0; I != kRegions; ++I) {
    EXPECT_EQ(Others[I]->referenceCount(), 1) << "region " << I;
    EXPECT_FALSE(deleteRegion(Others[I]));
    Holder[I]->Next = nullptr;
    EXPECT_TRUE(deleteRegion(Others[I])) << "region " << I;
  }
  EXPECT_TRUE(deleteRegion(Home));
  EXPECT_EQ(Mgr.stats().DeleteFailures,
            static_cast<std::uint64_t>(kRegions));
}

TEST_F(BarrierCountingTest, DeletionInspectsPendingBufferFirst) {
  // The essence of flush-before-inspect: a single buffered +1 that has
  // not been applied to Region::RC yet must still veto deletion.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  // One cross-region store; the +1 for B sits in the pending buffer.
  InA->Next = rnew<Node>(B, 2);
  EXPECT_FALSE(deleteRegion(B))
      << "deletion must flush buffered adjustments before deciding";
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

//===----------------------------------------------------------------------===//
// Deferred statistics equivalence
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, DeferredStatsMatchEagerValues) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *NA1 = rnew<Node>(A, 1);
  Node *NA2 = rnew<Node>(A, 2);
  Node *NB = rnew<Node>(B, 3);

  const RegionStats &Before = Mgr.stats();
  std::uint64_t Stores0 = Before.BarrierStores;
  std::uint64_t Same0 = Before.BarrierSameRegion;
  std::uint64_t Adj0 = Before.BarrierAdjustments;

  NA1->Next = NA2; // sameregion: 1 store, 1 sameregion, 0 adjustments
  NA1->Next = NB;  // cross: 1 store, 1 sameregion (slot in A, old in A),
                   //   1 adjustment (+1 B; old A == slot region, uncounted)
  NA1->Next = nullptr; // cross: 1 store, 0 sameregion (old in B, new
                       //   null, slot in A), 1 adjustment (-1 B)
  static RegionPtr<Node> Global;
  Global = NA1; // global slot: 1 store, 0 sameregion, 1 adjustment (+1 A)
  Global = nullptr; // 1 store, 0 sameregion, 1 adjustment (-1 A)

  const RegionStats &After = Mgr.stats();
  EXPECT_EQ(After.BarrierStores - Stores0, 5u);
  EXPECT_EQ(After.BarrierSameRegion - Same0, 2u);
  EXPECT_EQ(After.BarrierAdjustments - Adj0, 4u);

  EXPECT_EQ(A->referenceCount(), 0);
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, StatsFoldAtRegionDeletionToo) {
  // Deltas parked on a region must survive its deletion: fold into the
  // manager aggregate when the region dies, visible in stats() after.
  Frame F;
  std::uint64_t Stores0 = Mgr.stats().BarrierStores;
  RegionHandle A = Mgr.newRegion();
  Node *N1 = rnew<Node>(A, 1);
  N1->Next = rnew<Node>(A, 2); // sameregion store parked on A
  // Deletion runs N1's cleanup thunk, whose ~RegionPtr nulls Next —
  // one more barriered (sameregion) store, parked on A mid-deletion.
  EXPECT_TRUE(deleteRegion(A));
  EXPECT_EQ(Mgr.stats().BarrierStores - Stores0, 2u)
      << "deltas parked on a deleted region must not vanish";
}

//===----------------------------------------------------------------------===//
// destroy(): the clear barrier against barrierAssign(Slot, nullptr)
//===----------------------------------------------------------------------===//

/// Where the value a clear overwrites points.
enum class OldKind {
  SameRegion,   ///< into the slot's own region
  OtherRegion,  ///< another counting region of the slot's manager
  UnsafeRegion, ///< a region of a manager that keeps no counts
  OtherArena,   ///< a counting region of another manager
  NonRegion,    ///< static storage, outside every arena
};

constexpr OldKind kOldKinds[] = {OldKind::SameRegion, OldKind::OtherRegion,
                                 OldKind::UnsafeRegion, OldKind::OtherArena,
                                 OldKind::NonRegion};

char GNonRegionTarget[16];

/// Fresh managers per observation, so each clear is measured alone.
struct ClearWorld {
  RegionManager Home{SafetyConfig::safeConfig(), std::size_t{16} << 20};
  RegionManager Other{SafetyConfig::safeConfig(), std::size_t{16} << 20};
  RegionManager Unsafe{SafetyConfig::unsafeConfig(), std::size_t{16} << 20};
  Region *H = Home.newRegion();   ///< holds the slot in the cleanup cases
  Region *Sib = Home.newRegion(); ///< H's neighbour in the same arena
  Region *Far = Other.newRegion();
  Region *Uncounted = Unsafe.newRegion();

  Region *targetRegion(OldKind K) const {
    switch (K) {
    case OldKind::SameRegion:
      return H;
    case OldKind::OtherRegion:
      return Sib;
    case OldKind::UnsafeRegion:
      return Uncounted;
    case OldKind::OtherArena:
      return Far;
    case OldKind::NonRegion:
      return nullptr;
    }
    return nullptr;
  }

  void *target(OldKind K) {
    Region *R = targetRegion(K);
    return R ? R->manager().allocRaw(R, 16) : GNonRegionTarget;
  }

  long long count(OldKind K) const {
    Region *R = targetRegion(K);
    return R ? R->referenceCount() : 0;
  }

  /// Barrier statistics summed over every manager: a clear parks its
  /// event on the old value's region, whichever manager owns it.
  RegionStats totals() const {
    RegionStats Sum;
    for (const RegionManager *M : {&Home, &Other, &Unsafe}) {
      const RegionStats &S = M->stats();
      Sum.BarrierStores += S.BarrierStores;
      Sum.BarrierSameRegion += S.BarrierSameRegion;
      Sum.BarrierAdjustments += S.BarrierAdjustments;
    }
    return Sum;
  }
};

/// What one clear did: the old value's region count on both sides of
/// it and the barrier-statistics deltas it produced.
struct ClearEffect {
  long long CountBefore = 0;
  long long CountAfter = 0;
  std::uint64_t Stores = 0;
  std::uint64_t SameRegion = 0;
  std::uint64_t Adjustments = 0;
};

void expectSameEffect(const ClearEffect &Got, const ClearEffect &Want) {
  EXPECT_EQ(Got.CountBefore, Want.CountBefore);
  EXPECT_EQ(Got.CountAfter, Want.CountAfter);
  EXPECT_EQ(Got.Stores, Want.Stores);
  EXPECT_EQ(Got.SameRegion, Want.SameRegion);
  EXPECT_EQ(Got.Adjustments, Want.Adjustments);
}

/// Runs \p Clear between two observations of \p W.
template <typename ClearFn>
ClearEffect observeClear(ClearWorld &W, OldKind K, ClearFn Clear) {
  ClearEffect E;
  E.CountBefore = W.count(K);
  RegionStats Before = W.totals();
  Clear();
  RegionStats After = W.totals();
  E.CountAfter = W.count(K);
  E.Stores = After.BarrierStores - Before.BarrierStores;
  E.SameRegion = After.BarrierSameRegion - Before.BarrierSameRegion;
  E.Adjustments = After.BarrierAdjustments - Before.BarrierAdjustments;
  return E;
}

/// A counted field cleared by RegionPtr's destroy().
struct ClearedByRegionPtr {
  RegionPtr<char> P;
  void set(void *V) { P = static_cast<char *>(V); }
};

/// The same field cleared by the general barrier with a null value.
struct ClearedByAssign {
  void *Raw = nullptr;
  void set(void *V) { detail::barrierAssign(&Raw, V); }
  ~ClearedByAssign() { detail::barrierAssign(&Raw, nullptr); }
};

/// Stores a \p K value into a \p Holder in region H, then deletes or
/// resets H, whose cleanup thunk clears the field. With \p ColdHome,
/// another manager's arena is the most recently probed one when the
/// thunk runs, so the clear classifies its addresses one by one.
template <typename Holder>
ClearEffect clearInCleanup(OldKind K, bool Reset, bool ColdHome) {
  ClearWorld W;
  rnew<Holder>(W.H)->set(W.target(K));
  // A successful deleteRegionRaw nulls W.H, so a sameregion target's
  // count reads 0 once its region is gone.
  return observeClear(W, K, [&] {
    if (ColdHome)
      ASSERT_EQ(regionOf(W.Far), W.Far);
    EXPECT_TRUE(Reset ? W.Home.resetRegion(W.H) : W.Home.deleteRegionRaw(W.H));
  });
}

/// The reference outcome of clearing a cross-region, uncounted or
/// non-region value; sameregion clears count one store and adjust no
/// count.
ClearEffect expectedClear(OldKind K) {
  switch (K) {
  case OldKind::SameRegion:
    return {0, 0, 1, 1, 0};
  case OldKind::OtherRegion:
  case OldKind::OtherArena:
    return {1, 0, 1, 0, 1};
  case OldKind::UnsafeRegion:
    return {0, 0, 1, 0, 0};
  case OldKind::NonRegion:
    return {0, 0, 0, 0, 0};
  }
  return {};
}

TEST_F(BarrierCountingTest, ClearBarrierMatchesAssignNullInCleanups) {
  for (OldKind K : kOldKinds) {
    for (bool Reset : {false, true}) {
      for (bool ColdHome : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "old kind " << static_cast<int>(K)
                     << (Reset ? ", reset" : ", delete")
                     << (ColdHome ? ", home arena cold" : ""));
        ClearEffect Want = clearInCleanup<ClearedByAssign>(K, Reset, ColdHome);
        expectSameEffect(Want, expectedClear(K));
        expectSameEffect(
            clearInCleanup<ClearedByRegionPtr>(K, Reset, ColdHome), Want);
      }
    }
  }
}

RegionPtr<char> GClearedPtr;
void *GClearedRaw;

TEST_F(BarrierCountingTest, ClearBarrierMatchesAssignNullOutsideRegions) {
  // Slots outside every region: a global (operator=(nullptr)) and a
  // malloc'd RegionPtr (its destructor). A sameregion old value cannot
  // occur there, so every region kind is a counted cross-region clear.
  for (OldKind K : kOldKinds) {
    if (K == OldKind::SameRegion)
      continue;
    SCOPED_TRACE(testing::Message() << "old kind " << static_cast<int>(K));
    ClearWorld RefW, GlobalW, HeapW;

    detail::barrierAssign(&GClearedRaw, RefW.target(K));
    ClearEffect Want = observeClear(
        RefW, K, [] { detail::barrierAssign(&GClearedRaw, nullptr); });
    expectSameEffect(Want, expectedClear(K));

    GClearedPtr = static_cast<char *>(GlobalW.target(K));
    expectSameEffect(observeClear(GlobalW, K, [] { GClearedPtr = nullptr; }),
                     Want);

    auto *Heap = new RegionPtr<char>(static_cast<char *>(HeapW.target(K)));
    expectSameEffect(observeClear(HeapW, K, [&] { delete Heap; }), Want);
  }
}

//===----------------------------------------------------------------------===//
// Initializing stores: the null-old-value barrier against Figure 5
//===----------------------------------------------------------------------===//

/// The reference outcome of storing a \p K value (an OldKind names the
/// *new* value's location here) into a null slot: the mirror of
/// expectedClear. A slot outside every region meets no sameregion
/// value, so there every region kind takes the cross-region row.
ClearEffect expectedInit(OldKind K) {
  switch (K) {
  case OldKind::SameRegion:
    return {0, 0, 1, 1, 0};
  case OldKind::OtherRegion:
  case OldKind::OtherArena:
    return {0, 1, 1, 0, 1};
  case OldKind::UnsafeRegion:
    return {0, 0, 1, 0, 0};
  case OldKind::NonRegion:
    return {0, 0, 0, 0, 0};
  }
  return {};
}

/// \p Want with the counts raised by the references a copy's source
/// already holds: a source in the same kind of slot holds one more.
ClearEffect withSourceHeld(ClearEffect Want) {
  long long Held = Want.CountAfter - Want.CountBefore;
  Want.CountBefore += Held;
  Want.CountAfter += Held;
  return Want;
}

/// Makes the home arena (H's) or another manager's the one the next
/// barrier probe snapshots. With the home arena cold, an in-region
/// store cannot classify its new value and slot with the single probe.
void heatArena(ClearWorld &W, bool ColdHome) {
  Region *R = ColdHome ? W.Far : W.H;
  ASSERT_EQ(regionOf(R), R);
}

/// A counted field of a scanned object, set by RegionPtr's constructor.
struct InitByConstructor {
  explicit InitByConstructor(void *V) : P(static_cast<char *>(V)) {}
  RegionPtr<char> P;
};

/// A counted field of a scanned object, set by RegionPtr's copy
/// constructor.
struct InitByCopy {
  explicit InitByCopy(const RegionPtr<char> &Src) : P(Src) {}
  RegionPtr<char> P;
};

/// Observes the initializing store \p Store (which returns the slot it
/// filled) against \p Want, then clears the slot and checks that the
/// value's count is back where it started.
template <typename StoreFn>
void checkInit(ClearWorld &W, OldKind K, bool ColdHome, const ClearEffect &Want,
               StoreFn Store) {
  RegionPtr<char> *Slot = nullptr;
  expectSameEffect(observeClear(W, K,
                                [&] {
                                  heatArena(W, ColdHome);
                                  Slot = Store();
                                }),
                   Want);
  ASSERT_NE(Slot, nullptr);
  *Slot = nullptr;
  EXPECT_EQ(W.count(K), Want.CountBefore) << "init + clear must balance";
}

TEST_F(BarrierCountingTest, InitBarrierMatchesFigure5InRegions) {
  // Slots in a fresh scanned object in H, filled by operator=, by
  // RegionPtr(T*) and by the copy constructor.
  for (OldKind K : kOldKinds) {
    for (bool ColdHome : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "new kind " << static_cast<int>(K)
                   << (ColdHome ? ", home arena cold" : ", home arena hot"));
      const ClearEffect Want = expectedInit(K);
      {
        ClearWorld W;
        auto *Obj = rnew<ClearedByRegionPtr>(W.H);
        void *V = W.target(K);
        checkInit(W, K, ColdHome, Want, [&] {
          Obj->set(V);
          return &Obj->P;
        });
      }
      {
        ClearWorld W;
        void *V = W.target(K);
        checkInit(W, K, ColdHome, Want,
                  [&] { return &rnew<InitByConstructor>(W.H, V)->P; });
      }
      {
        ClearWorld W;
        auto *Src = rnew<ClearedByRegionPtr>(W.H);
        Src->set(W.target(K));
        checkInit(W, K, ColdHome, withSourceHeld(Want),
                  [&] { return &rnew<InitByCopy>(W.H, Src->P)->P; });
      }
    }
  }
}

RegionPtr<char> GInitPtr;

TEST_F(BarrierCountingTest, InitBarrierMatchesFigure5OutsideRegions) {
  // Slots outside every region: a global, a malloc'd RegionPtr set by
  // operator=, one built by RegionPtr(T*) and a copy-constructed one.
  for (OldKind K : kOldKinds) {
    if (K == OldKind::SameRegion)
      continue;
    for (bool ColdHome : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "new kind " << static_cast<int>(K)
                   << (ColdHome ? ", home arena cold" : ", home arena hot"));
      const ClearEffect Want = expectedInit(K);
      {
        ClearWorld W;
        void *V = W.target(K);
        checkInit(W, K, ColdHome, Want, [&] {
          GInitPtr = static_cast<char *>(V);
          return &GInitPtr;
        });
      }
      {
        ClearWorld W;
        auto Heap = std::make_unique<RegionPtr<char>>();
        void *V = W.target(K);
        checkInit(W, K, ColdHome, Want, [&] {
          *Heap = static_cast<char *>(V);
          return Heap.get();
        });
      }
      {
        ClearWorld W;
        std::unique_ptr<RegionPtr<char>> Heap;
        void *V = W.target(K);
        checkInit(W, K, ColdHome, Want, [&] {
          Heap = std::make_unique<RegionPtr<char>>(static_cast<char *>(V));
          return Heap.get();
        });
      }
      {
        ClearWorld W;
        auto Src =
            std::make_unique<RegionPtr<char>>(static_cast<char *>(W.target(K)));
        std::unique_ptr<RegionPtr<char>> Heap;
        checkInit(W, K, ColdHome, withSourceHeld(Want), [&] {
          Heap = std::make_unique<RegionPtr<char>>(*Src);
          return Heap.get();
        });
        *Src = nullptr;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Static sameregion elision
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, SameRegionPtrCrossRegionStoreDies) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  struct Linked {
    SameRegionPtr<Linked> Next;
  };
  Linked *InA = rnew<Linked>(A);
  Linked *InB = rnew<Linked>(B);
  InA->Next = InA; // sameregion: fine
  // Unhardened builds die on the containment assert; RGN_HARDEN builds
  // report the escape through rsan's fatal diagnostic first.
  EXPECT_DEATH(InA->Next = InB, "SameRegionPtr");
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, AssignKnownRegionCrossRegionValueDies) {
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);
  Node *Holder = rnew<Node>(A, 0);
  assignKnownRegion(Holder->Next, InA, A.get()); // genuine sameregion
  EXPECT_EQ(Holder->Next.get(), InA);
  EXPECT_DEATH(assignKnownRegion(Holder->Next, InB, A.get()),
               "new value must live in the claimed region");
  assignKnownRegion(Holder->Next, static_cast<Node *>(nullptr), A.get());
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

//===----------------------------------------------------------------------===//
// Thread exit drains the pending buffer
//===----------------------------------------------------------------------===//

TEST_F(BarrierCountingTest, ThreadExitFlushesBufferedIncrement) {
  // Regression test: a thread that exits holding a buffered +1 used to
  // lose it (the constinit buffer has no destructor), so this deletion
  // wrongly SUCCEEDED with InA->Next still pointing into B — the exact
  // use-after-free the counts exist to prevent.
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  Node *InB = rnew<Node>(B, 2);
  std::thread([&] {
    // The +1 for B lands in THIS thread's pending buffer; nothing on
    // this thread ever inspects a count, so only the exit flusher can
    // deliver it.
    InA->Next = InB;
  }).join();
  EXPECT_EQ(B->referenceCount(), 1)
      << "buffered +1 from the exited thread was lost";
  EXPECT_FALSE(deleteRegion(B))
      << "cross-region reference stored by an exited thread must still "
         "veto deletion";
  InA->Next = nullptr;
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, ThreadExitFlushesBufferedDecrement) {
  // The mirror image: the exiting thread clears the reference, and its
  // buffered -1 must land or the deletion is refused forever (a leak).
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  Node *InA = rnew<Node>(A, 1);
  InA->Next = rnew<Node>(B, 2);
  EXPECT_EQ(B->referenceCount(), 1);
  std::thread([&] { InA->Next = nullptr; }).join();
  EXPECT_EQ(B->referenceCount(), 0)
      << "buffered -1 from the exited thread was lost";
  EXPECT_TRUE(deleteRegion(B))
      << "deletion must succeed once the exited thread's store cleared "
         "the last reference";
  EXPECT_TRUE(deleteRegion(A));
}

TEST_F(BarrierCountingTest, ManyExitingThreadsLeaveCountsExact) {
  // Thread churn with deltas that cancel across threads: every buffered
  // ±1 must survive its thread. Serial joins keep the store ordering
  // well-defined (each thread sees the previous one's stores).
  Frame F;
  RegionHandle A = Mgr.newRegion();
  RegionHandle B = Mgr.newRegion();
  constexpr int kThreads = 16;
  Node *Holders[kThreads];
  Node *InB = rnew<Node>(B, 0);
  for (int I = 0; I != kThreads; ++I)
    Holders[I] = rnew<Node>(A, I);
  for (int I = 0; I != kThreads; ++I)
    std::thread([&, I] {
      Holders[I]->Next = InB;              // +1 B
      if (I % 2)
        Holders[I]->Next = nullptr;        // -1 B, same thread
    }).join();
  EXPECT_EQ(B->referenceCount(), kThreads / 2);
  for (int I = 0; I != kThreads; I += 2)
    Holders[I]->Next = nullptr;
  EXPECT_EQ(B->referenceCount(), 0);
  EXPECT_TRUE(deleteRegion(B));
  EXPECT_TRUE(deleteRegion(A));
}

//===----------------------------------------------------------------------===//
// Parallel deletion flushes too
//===----------------------------------------------------------------------===//

TEST(ParallelBufferedCountingTest, TryDeleteFlushesPendingCounts) {
  // A safe-config manager behind a ParallelSpace: a buffered barrier
  // adjustment must be visible to tryDelete's inspection, and a refusal
  // by the owning manager must leave the shared record retryable
  // instead of aborting (the old path asserted).
  RegionManager Mgr{SafetyConfig::safeConfig(), std::size_t{64} << 20};
  par::ParallelSpace Space;
  par::ThreadSlot Tid(Space);

  Region *Home = Mgr.newRegion();
  par::SharedRegion *SHome = Space.share(Home);
  Region *Target = Mgr.newRegion();
  par::SharedRegion *STarget = Space.share(Target);

  Node *Holder = rnew<Node>(Home, 0);
  // Cross-region store through the ordinary barrier: +1 on Target sits
  // in the calling thread's pending buffer.
  Holder->Next = rnew<Node>(Target, 1);
  EXPECT_FALSE(Space.tryDelete(STarget))
      << "manager-side count must veto shared deletion after flush";
  EXPECT_EQ(Space.liveSharedRegions(), 2u) << "refusal keeps the record";

  Holder->Next = nullptr;
  EXPECT_TRUE(Space.tryDelete(STarget)) << "retry succeeds once cleared";
  EXPECT_FALSE(Space.tryDelete(STarget)) << "second delete is a no-op";
  EXPECT_TRUE(Space.tryDelete(SHome));
  EXPECT_EQ(Space.liveSharedRegions(), 0u);
}

TEST(ParallelBufferedCountingTest, UnregisterThreadBanksBalances) {
  // An exiting thread's local-count balances fold into the region's
  // detached count: sums (and so deletability) are unchanged, and the
  // freed slot index is reissued.
  RegionManager Mgr{SafetyConfig::unsafeConfig()};
  par::ParallelSpace Space;
  par::SharedRegion *S = Space.share(Mgr.newRegion());

  unsigned TidA = Space.registerThread();
  Space.addRef(S, TidA);
  Space.unregisterThread(TidA);
  EXPECT_EQ(S->totalCount(), 1) << "banked balance survives the exit";

  unsigned TidB = Space.registerThread();
  EXPECT_EQ(TidB, TidA) << "slot index is recycled";
  Space.dropRef(S, TidB);
  EXPECT_EQ(S->totalCount(), 0);
  EXPECT_TRUE(Space.tryDelete(S));
  Space.unregisterThread(TidB);
}

} // namespace
