//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-cache + manager-lifecycle suite (docs/ARCHITECTURE.md S12):
/// cache-hit compiles must be reference-equal to cold compiles under every
/// solver kind, serial and parallel; caches shared across verifiers and
/// keyed per solver; LRU eviction under a tiny capacity must stay correct;
/// FddManager::gc() must compact the pools without changing any query
/// answer on live roots, and reset() must return the manager to its
/// freshly constructed state. Also home of the regression test for the
/// solveLoop cache-hit path refreshing lastLoopStats().
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Hash.h"
#include "fdd/CompileCache.h"
#include "fdd/Export.h"
#include "routing/Routing.h"
#include "topology/Topology.h"

#include <gtest/gtest.h>

using namespace mcnk;

namespace {

/// The chain-of-diamonds model — big enough (dozens of AST nodes, one
/// while loop) that every composite boundary clears the cache's size gate.
routing::NetworkModel chainModel(unsigned K, ast::Context &Ctx,
                                 Rational PFail = Rational(1, 10)) {
  topology::ChainLayout L;
  topology::makeChain(K, L);
  return routing::buildChainModel(L, PFail, Ctx);
}

/// Reference-equality across managers: \p Ref (owned by \p Have) denotes
/// the same canonical diagram as \p Expected (owned by \p Want) iff
/// importing the latter into the former's manager lands on \p Ref.
bool sameDiagram(analysis::Verifier &Have, fdd::FddRef Ref,
                 analysis::Verifier &Want, fdd::FddRef Expected) {
  return fdd::importFdd(Have.manager(),
                        fdd::exportFdd(Want.manager(), Expected)) == Ref;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compile cache
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, HitIsReferenceEqualAcrossSolversAndBackends) {
  const markov::SolverKind Kinds[] = {markov::SolverKind::Exact,
                                      markov::SolverKind::Direct,
                                      markov::SolverKind::Iterative};
  for (markov::SolverKind Kind : Kinds) {
    ast::Context Ctx;
    routing::NetworkModel M = chainModel(2, Ctx);

    analysis::Verifier Cached(Kind);
    Cached.enableCompileCache();
    fdd::FddRef Cold = Cached.compile(M.Program);
    fdd::CompileCache::Stats AfterCold = Cached.cacheStats();
    EXPECT_GT(AfterCold.Insertions, 0u);

    // Hit path: the same program again, serially and in parallel.
    EXPECT_EQ(Cached.compile(M.Program), Cold);
    fdd::CompileCache::Stats AfterHit = Cached.cacheStats();
    EXPECT_GT(AfterHit.Hits, AfterCold.Hits);
    EXPECT_EQ(Cached.compile(M.Program, /*Parallel=*/true, 2), Cold);

    // The cached diagram is the one an uncached engine produces.
    analysis::Verifier Uncached(Kind);
    fdd::FddRef Reference = Uncached.compile(M.Program);
    EXPECT_TRUE(sameDiagram(Cached, Cold, Uncached, Reference))
        << "solver kind " << static_cast<int>(Kind);

    // And it answers queries identically.
    Packet In = M.ingressPacket(0, Ctx);
    EXPECT_EQ(Cached.deliveryProbability(Cold, In),
              Uncached.deliveryProbability(Reference, In));
  }
}

/// Ring shortest-path model with iid per-link failures — the family whose
/// members share the (large) topology `case` sub-program.
routing::NetworkModel ringModel(unsigned N, const Rational &PFail,
                                ast::Context &Ctx) {
  topology::RingLayout L;
  topology::Topology T = topology::makeRing(N, L);
  routing::ModelOptions O;
  O.Failures = routing::FailureModel::iid(PFail);
  return routing::buildShortestPathModel(T, /*Dst=*/1, O, Ctx);
}

TEST(CompileCacheTest, SharedAcrossVerifiersAndFamilies) {
  fdd::CompileCache Shared;
  ast::Context Ctx1;
  routing::NetworkModel M1 = ringModel(6, Rational(1, 20), Ctx1);
  analysis::Verifier V1;
  V1.setCompileCache(&Shared);
  fdd::FddRef R1 = V1.compile(M1.Program);
  fdd::CompileCache::Stats AfterFirst = Shared.stats();
  EXPECT_GT(AfterFirst.Insertions, 0u);

  // A second verifier building the same model in a fresh context: the
  // fingerprints depend only on structure and numeric field ids, so the
  // whole compile is served from the shared cache.
  ast::Context Ctx2;
  routing::NetworkModel M2 = ringModel(6, Rational(1, 20), Ctx2);
  analysis::Verifier V2;
  V2.setCompileCache(&Shared);
  fdd::FddRef R2 = V2.compile(M2.Program);
  EXPECT_GT(Shared.stats().Hits, AfterFirst.Hits);
  EXPECT_TRUE(sameDiagram(V2, R2, V1, R1));

  // A family member differing only in the failure parameter recompiles
  // only the sub-programs that changed: the routing arms resample with a
  // new probability (fresh insertions), but the failure-independent
  // topology `case` is served from the cache (real hits).
  ast::Context Ctx3;
  routing::NetworkModel M3 = ringModel(6, Rational(1, 10), Ctx3);
  analysis::Verifier V3;
  V3.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef R3 = V3.compile(M3.Program);
  fdd::CompileCache::Stats After = Shared.stats();
  EXPECT_GT(After.Hits, Before.Hits) << "no sharing across the family";
  EXPECT_GT(After.Insertions, Before.Insertions);

  analysis::Verifier Uncached;
  EXPECT_TRUE(sameDiagram(V3, R3, Uncached, Uncached.compile(M3.Program)));
}

TEST(CompileCacheTest, KeyedBySolverKind) {
  fdd::CompileCache Shared;
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);

  analysis::Verifier Exact(markov::SolverKind::Exact);
  Exact.setCompileCache(&Shared);
  fdd::FddRef E = Exact.compile(M.Program);

  // The Direct engine must not be served the Exact engine's loop
  // solutions: same fingerprints, different solver key.
  analysis::Verifier Direct(markov::SolverKind::Direct);
  Direct.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef D = Direct.compile(M.Program);
  EXPECT_GT(Shared.stats().Misses, Before.Misses);

  analysis::Verifier UncachedDirect(markov::SolverKind::Direct);
  EXPECT_TRUE(sameDiagram(Direct, D, UncachedDirect,
                          UncachedDirect.compile(M.Program)));
  // Exact refs stay exact.
  analysis::Verifier UncachedExact(markov::SolverKind::Exact);
  EXPECT_TRUE(sameDiagram(Exact, E, UncachedExact,
                          UncachedExact.compile(M.Program)));
}

TEST(CompileCacheTest, IterativeKindKeyedAndHitEqualsCold) {
  // A non-default kind gets its own cache key (an Exact entry must not
  // satisfy an Iterative lookup), and its cached-hit compile, serial and
  // parallel, is reference-equal to the cold one and to an uncached one.
  fdd::CompileCache Shared;
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);

  analysis::Verifier Exact(markov::SolverKind::Exact);
  Exact.setCompileCache(&Shared);
  fdd::FddRef E = Exact.compile(M.Program);

  analysis::Verifier Iter(markov::SolverKind::Iterative);
  Iter.setCompileCache(&Shared);
  fdd::CompileCache::Stats Before = Shared.stats();
  fdd::FddRef Cold = Iter.compile(M.Program);
  fdd::CompileCache::Stats AfterCold = Shared.stats();
  EXPECT_GT(AfterCold.Misses, Before.Misses) << "served a cross-kind entry";
  EXPECT_GT(AfterCold.Insertions, Before.Insertions);

  EXPECT_EQ(Iter.compile(M.Program), Cold);
  EXPECT_GT(Shared.stats().Hits, AfterCold.Hits);
  EXPECT_EQ(Iter.compile(M.Program, /*Parallel=*/true, 2), Cold);

  analysis::Verifier UncachedIter(markov::SolverKind::Iterative);
  EXPECT_TRUE(sameDiagram(Iter, Cold, UncachedIter,
                          UncachedIter.compile(M.Program)));

  // The Iterative answer agrees with the exact one to solver tolerance.
  Packet In = M.ingressPacket(0, Ctx);
  EXPECT_NEAR(Iter.deliveryProbability(Cold, In).toDouble(),
              Exact.deliveryProbability(E, In).toDouble(), 1e-9);
}

TEST(CompileCacheTest, EvictionUnderTinyCapacityStaysCorrect) {
  fdd::CompileCache Tiny(/*Capacity=*/2);
  const Rational PFails[] = {Rational(1, 10), Rational(1, 7),
                             Rational(1, 5), Rational(1, 3)};
  // Round-robin over a family bigger than the capacity, twice, so every
  // compile churns the LRU list; every result must still match the
  // uncached engine.
  for (int Round = 0; Round < 2; ++Round) {
    for (const Rational &PFail : PFails) {
      ast::Context Ctx;
      routing::NetworkModel M = chainModel(2, Ctx, PFail);
      analysis::Verifier Cached;
      Cached.setCompileCache(&Tiny);
      fdd::FddRef R = Cached.compile(M.Program);
      EXPECT_EQ(Cached.compile(M.Program), R);
      analysis::Verifier Uncached;
      EXPECT_TRUE(
          sameDiagram(Cached, R, Uncached, Uncached.compile(M.Program)));
    }
  }
  fdd::CompileCache::Stats S = Tiny.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Entries, 2u);
}

TEST(CompileCacheTest, OwnedCacheLifecycleOnVerifier) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(1, Ctx);
  analysis::Verifier V;
  EXPECT_EQ(V.compileCache(), nullptr);
  EXPECT_EQ(V.cacheStats().Hits, 0u);
  fdd::CompileCache &Cache = V.enableCompileCache(64);
  EXPECT_EQ(V.compileCache(), &Cache);
  EXPECT_EQ(Cache.capacity(), 64u);
  fdd::FddRef R = V.compile(M.Program);
  EXPECT_GT(V.cacheStats().Insertions, 0u);
  V.setCompileCache(nullptr); // Detach: compiles keep working, uncached.
  EXPECT_EQ(V.compileCache(), nullptr);
  EXPECT_EQ(V.compile(M.Program), R);
}

//===----------------------------------------------------------------------===//
// Manager lifecycle: gc and reset
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, GcShrinksPoolsAndPreservesQueries) {
  ast::Context Ctx;
  routing::NetworkModel M1 = chainModel(1, Ctx);
  routing::NetworkModel M2 = chainModel(2, Ctx);
  routing::NetworkModel Garbage = chainModel(3, Ctx, Rational(1, 3));

  analysis::Verifier V;
  fdd::FddRef R1 = V.compile(M1.Program);
  fdd::FddRef R2 = V.compile(M2.Program);
  V.compile(Garbage.Program); // Dead the moment its ref is discarded.

  Packet In1 = M1.ingressPacket(0, Ctx);
  Packet In2 = M2.ingressPacket(0, Ctx);
  auto Out1 = V.manager().outputDistribution(R1, In1);
  auto Out2 = V.manager().outputDistribution(R2, In2);
  fdd::ActionDist Leaf1 = V.manager().evalToLeaf(R1, In1);

  std::size_t InnersBefore = V.manager().numInnerNodes();
  std::size_t LeavesBefore = V.manager().numLeaves();
  fdd::GcStats GS = V.manager().gc({&R1, &R2});

  EXPECT_GT(GS.FreedInners, 0u) << "garbage diagram was not collected";
  EXPECT_EQ(GS.LiveInners + GS.FreedInners, InnersBefore);
  EXPECT_EQ(GS.LiveLeaves + GS.FreedLeaves, LeavesBefore);
  EXPECT_EQ(V.manager().numInnerNodes(), GS.LiveInners);
  EXPECT_LT(V.manager().numInnerNodes(), InnersBefore);

  // Live roots answer every query exactly as before.
  auto Out1After = V.manager().outputDistribution(R1, In1);
  auto Out2After = V.manager().outputDistribution(R2, In2);
  EXPECT_TRUE(Out1.Outputs == Out1After.Outputs &&
              Out1.Dropped == Out1After.Dropped);
  EXPECT_TRUE(Out2.Outputs == Out2After.Outputs &&
              Out2.Dropped == Out2After.Dropped);
  EXPECT_EQ(Leaf1, V.manager().evalToLeaf(R1, In1));
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().identityLeaf()));

  // The manager keeps working after compaction: recompiling the collected
  // program must reproduce it (caches were rebuilt, not corrupted), and
  // the surviving roots must intern onto themselves.
  fdd::FddRef R1Again = V.compile(M1.Program);
  EXPECT_EQ(R1Again, R1);
  analysis::Verifier Fresh;
  EXPECT_TRUE(
      sameDiagram(V, R2, Fresh, Fresh.compile(M2.Program)));
}

TEST(FddLifecycleTest, GcToleratesDuplicateRootPointers) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  fdd::FddRef R = V.compile(M.Program);
  auto Out = V.manager().outputDistribution(R, M.ingressPacket(0, Ctx));
  // The same location handed in twice must be remapped exactly once.
  V.manager().gc({&R, &R});
  auto After = V.manager().outputDistribution(R, M.ingressPacket(0, Ctx));
  EXPECT_TRUE(Out.Outputs == After.Outputs && Out.Dropped == After.Dropped);
  EXPECT_EQ(V.compile(M.Program), R);
}

TEST(FddLifecycleTest, GcWithNoRootsKeepsOnlyConstants) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  V.compile(M.Program);
  ASSERT_GT(V.manager().numInnerNodes(), 0u);
  fdd::GcStats GS = V.manager().gc({});
  EXPECT_EQ(V.manager().numInnerNodes(), 0u);
  EXPECT_EQ(GS.LiveInners, 0u);
  EXPECT_GE(V.manager().numLeaves(), 2u); // identity + drop survive.
  // And a rebuilt world is still correct.
  fdd::FddRef R = V.compile(M.Program);
  analysis::Verifier Fresh;
  EXPECT_TRUE(sameDiagram(V, R, Fresh, Fresh.compile(M.Program)));
}

TEST(FddLifecycleTest, ResetReturnsManagerToPristineState) {
  ast::Context Ctx;
  routing::NetworkModel M = chainModel(2, Ctx);
  analysis::Verifier V;
  fdd::FddRef Before = V.compile(M.Program);
  Rational Delivery =
      V.deliveryProbability(Before, M.ingressPacket(0, Ctx));
  ASSERT_GT(V.manager().numInnerNodes(), 0u);

  V.manager().reset();
  EXPECT_EQ(V.manager().numInnerNodes(), 0u);
  EXPECT_EQ(V.manager().numLeaves(), 2u);
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().identityLeaf()));
  EXPECT_TRUE(V.manager().isPredicateFdd(V.manager().dropLeaf()));

  // Recompile from scratch: same answers as before the reset.
  fdd::FddRef After = V.compile(M.Program);
  EXPECT_EQ(V.deliveryProbability(After, M.ingressPacket(0, Ctx)),
            Delivery);
}

//===----------------------------------------------------------------------===//
// solveLoop cache-hit statistics (regression)
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, LoopStatsRefreshedOnLoopCacheHit) {
  // One manager, two chain models: compiling K=1 then K=2 then K=1 again
  // makes the third solveLoop a LoopCache hit. lastLoopStats() must then
  // describe K=1's chain again, not keep reporting K=2's numbers.
  ast::Context Ctx;
  routing::NetworkModel M1 = chainModel(1, Ctx);
  routing::NetworkModel M2 = chainModel(2, Ctx);
  analysis::Verifier V;

  V.compile(M1.Program);
  fdd::LoopSolveStats S1 = V.manager().lastLoopStats();
  EXPECT_EQ(S1.NumStates, 6u); // 4K + 2 for K = 1.

  V.compile(M2.Program);
  fdd::LoopSolveStats S2 = V.manager().lastLoopStats();
  EXPECT_EQ(S2.NumStates, 10u); // 4K + 2 for K = 2.
  ASSERT_NE(S1.NumStates, S2.NumStates);

  V.compile(M1.Program); // LoopCache hit.
  const fdd::LoopSolveStats &Hit = V.manager().lastLoopStats();
  EXPECT_EQ(Hit.NumStates, S1.NumStates);
  EXPECT_EQ(Hit.NumTransient, S1.NumTransient);
  EXPECT_EQ(Hit.NumAbsorbing, S1.NumAbsorbing);
  EXPECT_EQ(Hit.NumQEntries, S1.NumQEntries);
}

//===----------------------------------------------------------------------===//
// Fingerprint sanity at the cache boundary
//===----------------------------------------------------------------------===//

TEST(FddLifecycleTest, FingerprintDistinguishesSolverRelevantStructure) {
  // Two models differing only in the failure probability must have
  // different program fingerprints (same shape, different rational).
  ast::Context CtxA, CtxB;
  routing::NetworkModel A = chainModel(2, CtxA, Rational(1, 10));
  routing::NetworkModel B = chainModel(2, CtxB, Rational(1, 9));
  EXPECT_NE(ast::programHash(A.Program), ast::programHash(B.Program));
  // And the same model built twice fingerprints identically.
  ast::Context CtxC;
  routing::NetworkModel C = chainModel(2, CtxC, Rational(1, 10));
  EXPECT_EQ(ast::programHash(A.Program), ast::programHash(C.Program));
}
