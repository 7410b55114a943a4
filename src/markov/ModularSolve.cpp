//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-prime modular exact engine (docs/ARCHITECTURE.md S14):
/// modularEliminateSystem — solve the absorption system mod word-size
/// primes with the linalg/ModSolve.h kernels, combine residues by CRT,
/// recover Rationals by Wang reconstruction, and verify the result
/// against fresh primes before accepting it. The solve structure that
/// runs it once per SCC block is in BlockSolve.cpp.
///
//===----------------------------------------------------------------------===//

#include "markov/Absorbing.h"

#include "linalg/ModSolve.h"
#include "support/ModArith.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <vector>

using namespace mcnk;
using namespace mcnk::markov;
using linalg::ModTriplet;

namespace {

/// One flattened coefficient of the system (pointer into the caller's
/// Rows maps — the system itself is never copied or mutated).
struct Coeff {
  std::size_t Row;
  std::size_t Col;
  const Rational *Value;
};

/// Per-prime image of the system: every coefficient and right-hand-side
/// entry reduced mod p (Montgomery form). Returns false when p divides
/// any denominator — the conversion-side unlucky-prime signal.
bool convertSystem(const std::vector<Coeff> &Entries,
                   const std::vector<std::vector<Rational>> &Rhs,
                   std::size_t N, std::size_t NA, const PrimeField &F,
                   std::vector<ModTriplet> &A,
                   std::vector<std::uint64_t> &B) {
  A.clear();
  A.reserve(Entries.size());
  for (const Coeff &E : Entries) {
    std::uint64_t R;
    if (!rationalMod(*E.Value, F, R))
      return false;
    A.push_back({E.Row, E.Col, F.encode(R)});
  }
  B.assign(N * NA, 0);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t C = 0; C < NA; ++C) {
      const Rational &V = Rhs[I][C];
      if (V.isZero())
        continue;
      std::uint64_t R;
      if (!rationalMod(V, F, R))
        return false;
      B[I * NA + C] = F.encode(R);
    }
  return true;
}

/// Residue check of the reconstructed candidate against one fresh prime:
/// A·X ≡ Rhs (mod q) entry for entry. Returns false on a mismatch;
/// \p Unlucky reports that q divides some denominator (candidate or
/// system), in which case nothing was decided and the caller draws
/// another check prime.
bool verifyAgainstPrime(const std::vector<Coeff> &Entries,
                        const std::vector<std::vector<Rational>> &Rhs,
                        const std::vector<Rational> &Candidate,
                        std::size_t N, std::size_t NA, const PrimeField &F,
                        bool &Unlucky) {
  Unlucky = false;
  std::vector<std::uint64_t> CX(N * NA);
  for (std::size_t E = 0; E < N * NA; ++E) {
    std::uint64_t R;
    if (!rationalMod(Candidate[E], F, R)) {
      Unlucky = true;
      return false;
    }
    CX[E] = F.encode(R);
  }
  // Accumulate A·X row by row and compare to the RHS residues.
  std::vector<std::uint64_t> Acc(N * NA, 0);
  for (const Coeff &E : Entries) {
    std::uint64_t R;
    if (!rationalMod(*E.Value, F, R)) {
      Unlucky = true;
      return false;
    }
    std::uint64_t AV = F.encode(R);
    for (std::size_t C = 0; C < NA; ++C) {
      std::size_t Slot = E.Row * NA + C;
      Acc[Slot] = F.add(Acc[Slot], F.mul(AV, CX[E.Col * NA + C]));
    }
  }
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t C = 0; C < NA; ++C) {
      std::uint64_t Want;
      if (!rationalMod(Rhs[I][C], F, Want)) {
        Unlucky = true;
        return false;
      }
      if (F.decode(Acc[I * NA + C]) != Want)
        return false;
    }
  return true;
}

} // namespace

bool markov::detail::modularEliminateSystem(
    const std::vector<std::map<std::size_t, Rational>> &Rows,
    std::vector<std::vector<Rational>> &Rhs, linalg::OrderingKind Ordering,
    ThreadPool *Pool, const ModularOptions &Options,
    std::size_t &EliminationOps, std::size_t &FillIn, ModularStats &Stats) {
  std::size_t N = Rows.size();
  std::size_t NA = N == 0 ? 0 : Rhs[0].size();
  if (N == 0 || NA == 0)
    return true; // Nothing to solve; avoid spending primes on it.

  std::vector<Coeff> Entries;
  for (std::size_t I = 0; I < N; ++I)
    for (const auto &[Col, V] : Rows[I])
      Entries.push_back({I, Col, &V});

  std::size_t PrimeCursor = Options.FirstPrimeIndex;
  // A system singular mod one prime may just be unlucky; singular mod
  // this many distinct primes in a row is a genuinely singular system
  // (denominator factors are finite), so give up and let the Rational
  // kernel produce the authoritative verdict.
  std::size_t RetryBudget = Options.MaxPrimes + 8;

  BigInt M(1); // Product of accepted primes.
  std::vector<std::uint64_t> M64 = M.magnitudeLimbs64();
  // CRT-combined residues in [0, M), kept as raw 64-bit limb vectors so
  // the per-prime fold is a single allocation-free multiply-accumulate
  // pass (support/ModArith.h crtFoldLimbs64); they become BigInts only at
  // reconstruction attempts.
  std::vector<std::vector<std::uint64_t>> Crt(N * NA);
  std::size_t Accepted = 0;
  std::size_t NextAttempt = 1; // Reconstruct at 1, 2, 4, ... primes.
  std::vector<Rational> Candidate(N * NA);
  // Per-entry reconstruction state machine. Answers stabilize at their own
  // size, not the final modulus: an entry whose candidate survives a prime
  // accepted after it was reconstructed (a residue check it had no hand
  // in) is done, and skips all further EGCD and CRT-fold work. The global
  // fresh-prime verification below still covers every entry.
  //   0 = no candidate; 1 = candidate awaiting a fresh-prime check;
  //   2 = candidate confirmed by a fresh prime.
  std::vector<char> State(N * NA, 0);
  std::size_t Restarts = 0;

  // Reconstruction scan order: rows nearer absorption (BFS distance
  // through the transition structure, absorbing exits as seeds) tend to
  // have the smallest answers, so trying them first lets each attempt
  // retire its whole in-range frontier and stop at the failure cap,
  // instead of burning full-width EGCDs on the hardest rows every time.
  std::vector<std::size_t> ScanOrder(N);
  {
    std::vector<std::size_t> Dist(N, SIZE_MAX);
    std::vector<std::vector<std::size_t>> RevAdj(N);
    std::vector<std::size_t> Queue;
    for (std::size_t I = 0; I < N; ++I) {
      for (const auto &[Col, V] : Rows[I])
        if (Col != I)
          RevAdj[Col].push_back(I);
      for (const Rational &V : Rhs[I])
        if (!V.isZero()) {
          if (Dist[I] == SIZE_MAX) {
            Dist[I] = 0;
            Queue.push_back(I);
          }
          break;
        }
    }
    for (std::size_t Head = 0; Head < Queue.size(); ++Head)
      for (std::size_t P : RevAdj[Queue[Head]])
        if (Dist[P] == SIZE_MAX) {
          Dist[P] = Dist[Queue[Head]] + 1;
          Queue.push_back(P);
        }
    std::iota(ScanOrder.begin(), ScanOrder.end(), std::size_t{0});
    std::stable_sort(ScanOrder.begin(), ScanOrder.end(),
                     [&](std::size_t A, std::size_t B) {
                       return Dist[A] < Dist[B];
                     });
  }

  while (true) {
    std::size_t Target = std::min(NextAttempt, Options.MaxPrimes);

    // Accumulate primes (in deterministic table order) until the target.
    while (Accepted < Target) {
      std::size_t Want = Target - Accepted;
      std::vector<std::uint64_t> Batch(Want);
      for (std::size_t I = 0; I < Want; ++I)
        Batch[I] = modPrime(PrimeCursor++);

      // Independent primes solve concurrently; results fold in batch
      // order below, so the CRT product is deterministic regardless of
      // scheduling.
      std::vector<std::vector<std::uint64_t>> Residues(Want);
      std::vector<char> Lucky(Want, 0);
      std::vector<std::size_t> POps(Want, 0), PFill(Want, 0);
      auto SolveOne = [&](std::size_t I) {
        PrimeField F(Batch[I]);
        std::vector<ModTriplet> A;
        if (!convertSystem(Entries, Rhs, N, NA, F, A, Residues[I]))
          return;
        if (!linalg::modSolveOrdered(F, N, A, Residues[I], NA, Ordering,
                                     POps[I], PFill[I]))
          return;
        for (std::uint64_t &V : Residues[I])
          V = F.decode(V);
        Lucky[I] = 1;
      };
      if (Pool && Want > 1)
        Pool->parallelFor(Want, SolveOne);
      else
        for (std::size_t I = 0; I < Want; ++I)
          SolveOne(I);

      for (std::size_t I = 0; I < Want; ++I) {
        EliminationOps += POps[I];
        FillIn += PFill[I];
        if (!Lucky[I]) {
          ++Stats.RetriedPrimes;
          if (RetryBudget-- == 0)
            return false; // Singular mod every prime tried: fall back.
          continue;
        }
        PrimeField F(Batch[I]);
        std::uint64_t InvM = F.inv(F.encode(M.modU64(F.prime())));
        for (std::size_t E = 0; E < N * NA; ++E) {
          if (State[E] == 2)
            continue; // Confirmed: this entry's answer is already known.
          if (State[E] == 1) {
            std::uint64_t Got;
            if (rationalMod(Candidate[E], F, Got) &&
                Got == Residues[I][E]) {
              State[E] = 2; // Survived a prime it was not built from.
              continue;
            }
            State[E] = 0; // Refuted (or unlucky prime): reconstruct anew.
          }
          // In-place CRT lift: X += M·((r - X)·M^{-1} mod p).
          std::uint64_t XModP = F.encode(limbs64ModU64(Crt[E], F.prime()));
          std::uint64_t T = F.decode(
              F.mul(F.sub(F.encode(Residues[I][E]), XModP), InvM));
          crtFoldLimbs64(Crt[E], M64, T);
        }
        M *= BigInt::fromUnsigned(F.prime());
        M64 = M.magnitudeLimbs64();
        ++Accepted;
        ++Stats.NumPrimes;
      }
    }

    // Attempt reconstruction at the Wang bound, then verify against
    // fresh primes — the reconstruction is checked, never trusted.
    // Unconfirmed entries reconstruct even when the attempt as a whole
    // fails: their candidates get checked against the next batch of
    // primes, so entries with small answers retire early instead of
    // re-running EGCD at every larger modulus. A failure cap bounds the
    // wasted work when most entries are still far from their answer.
    BigInt Bound = isqrtBigInt((M - BigInt(1)) / BigInt(2));
    bool Reconstructed = true;
    std::size_t Failures = 0;
    for (std::size_t RI = 0; RI < N && Failures < 8; ++RI)
      for (std::size_t C = 0; C < NA && Failures < 8; ++C) {
        std::size_t E = ScanOrder[RI] * NA + C;
        if (State[E] == 2)
          continue;
        if (rationalReconstruct(BigInt::fromLimbs64(false, Crt[E]), M, Bound,
                                Candidate[E])) {
          State[E] = 1;
        } else {
          Reconstructed = false;
          ++Failures;
        }
      }
    if (Reconstructed) {
      std::size_t Verified = 0;
      bool Mismatch = false;
      while (Verified < Options.CheckPrimes && !Mismatch) {
        PrimeField F(modPrime(PrimeCursor++));
        bool Unlucky = false;
        if (verifyAgainstPrime(Entries, Rhs, Candidate, N, NA, F, Unlucky))
          ++Verified;
        else if (Unlucky) {
          ++Stats.RetriedPrimes;
          if (RetryBudget-- == 0)
            return false;
        } else {
          Mismatch = true; // Premature reconstruction: need more primes.
        }
      }
      if (!Mismatch) {
        for (std::size_t I = 0; I < N; ++I)
          for (std::size_t C = 0; C < NA; ++C)
            Rhs[I][C] = Candidate[I * NA + C];
        Stats.ReconstructionBits = M.bitLength();
        return true;
      }
      // With no confirmed entries the mismatch is just a premature
      // reconstruction — every CRT image is still live, so accumulating
      // more primes repairs it. A *confirmed* entry, though, stopped
      // folding the moment it was confirmed: if it is the wrong one, its
      // CRT image is stale and cannot be repaired incrementally, so
      // restart the accumulation from fresh primes. Needing that twice
      // means the system defeats the residue checks structurally; hand
      // it to the Rational kernel.
      if (std::any_of(State.begin(), State.end(),
                      [](char S) { return S == 2; })) {
        if (++Restarts > 1)
          return false;
        for (std::size_t E = 0; E < N * NA; ++E) {
          State[E] = 0;
          Crt[E].clear();
        }
        M = BigInt(1);
        M64 = M.magnitudeLimbs64();
        Accepted = 0;
      }
    }

    if (Accepted >= Options.MaxPrimes)
      return false; // Prime budget exhausted: Rational fallback.
    // Double while cheap, then grow by quarters: the modulus only needs to
    // clear the largest answer, and overshooting it inflates every
    // remaining EGCD and fold quadratically.
    NextAttempt = Accepted < 16 ? std::max<std::size_t>(1, Accepted * 2)
                                : Accepted + std::max<std::size_t>(4, Accepted / 4);
  }
}
