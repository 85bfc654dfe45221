//===- tests/support_test.cpp - BitSet, Stopwatch, Histogram tests --------===//

#include "support/BitSet.h"
#include "support/Histogram.h"
#include "support/Stopwatch.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace satb;

TEST(BitSet, StartsEmpty) {
  BitSet S(100);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  for (size_t I = 0; I != 100; ++I)
    EXPECT_FALSE(S.test(I));
}

TEST(BitSet, SetResetTest) {
  BitSet S(130); // spans three words
  S.set(0);
  S.set(63);
  S.set(64);
  S.set(129);
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(63));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(1));
  EXPECT_EQ(S.count(), 4u);
  S.reset(63);
  EXPECT_FALSE(S.test(63));
  EXPECT_EQ(S.count(), 3u);
}

TEST(BitSet, UnionIntersection) {
  BitSet A(70), B(70);
  A.set(1);
  A.set(65);
  B.set(2);
  B.set(65);
  BitSet U = A;
  U.unionWith(B);
  EXPECT_TRUE(U.test(1));
  EXPECT_TRUE(U.test(2));
  EXPECT_TRUE(U.test(65));
  EXPECT_EQ(U.count(), 3u);
  BitSet I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(65));
}

TEST(BitSet, IntersectsAndSubset) {
  BitSet A(10), B(10);
  A.set(3);
  B.set(4);
  EXPECT_FALSE(A.intersects(B));
  B.set(3);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  BitSet Empty(10);
  EXPECT_TRUE(Empty.isSubsetOf(A));
}

TEST(BitSet, ForEachVisitsInOrder) {
  BitSet S(200);
  std::vector<size_t> Want = {0, 5, 63, 64, 127, 128, 199};
  for (size_t I : Want)
    S.set(I);
  std::vector<size_t> Got;
  S.forEach([&Got](size_t I) { Got.push_back(I); });
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(S.firstSetBit(), 0u);
  S.reset(0);
  EXPECT_EQ(S.firstSetBit(), 5u);
}

TEST(BitSet, EqualityIncludesSize) {
  BitSet A(10), B(11);
  EXPECT_NE(A, B);
  BitSet C(10);
  EXPECT_EQ(A, C);
  C.set(9);
  EXPECT_NE(A, C);
}

TEST(BitSet, ClearAndResize) {
  BitSet S(66);
  S.set(65);
  S.clear();
  EXPECT_TRUE(S.empty());
  S.resize(4);
  EXPECT_EQ(S.size(), 4u);
  EXPECT_TRUE(S.empty());
}

// --- Inline vs. spilled representation ------------------------------------
//
// A set of up to BitSet::InlineBits bits keeps its word inline; a larger
// one spills to the heap. Every operation must behave the same on both,
// and copies/moves must cross between them without leaking or sharing.

namespace {

constexpr size_t Inline = 40;   // inline representation
constexpr size_t Spilled = 200; // heap representation, four words

static_assert(Inline <= BitSet::InlineBits && Spilled > BitSet::InlineBits);
static_assert(sizeof(BitSet) == 16, "one inline word plus the bit count");

/// A deterministic pattern touching the first, last and word-boundary
/// bits of an \p N-bit universe.
BitSet pattern(size_t N, size_t Salt) {
  BitSet S(N);
  for (size_t I = 0; I < N; ++I)
    if ((I * 7 + Salt) % 5 == 0 || I == 0 || I + 1 == N || I % 64 == 63)
      S.set(I);
  return S;
}

std::vector<size_t> members(const BitSet &S) {
  std::vector<size_t> Out;
  S.forEach([&Out](size_t I) { Out.push_back(I); });
  return Out;
}

} // namespace

TEST(BitSet, EveryOperationOnEverySize) {
  for (size_t N : {0u, 1u, 63u, 64u, 65u, 128u, 129u, 700u}) {
    SCOPED_TRACE(N);
    BitSet S(N);
    EXPECT_EQ(S.size(), N);
    EXPECT_TRUE(S.empty());
    EXPECT_EQ(S.count(), 0u);
    EXPECT_TRUE(members(S).empty());
    if (N == 0)
      continue;
    S.set(0);
    S.set(N - 1);
    EXPECT_TRUE(S.test(0));
    EXPECT_TRUE(S.test(N - 1));
    EXPECT_EQ(S.count(), N == 1 ? 1u : 2u);
    EXPECT_EQ(S.firstSetBit(), 0u);
    if (N > 1) {
      S.reset(0);
      EXPECT_EQ(S.firstSetBit(), N - 1);
      EXPECT_EQ(members(S), std::vector<size_t>{N - 1});
    }

    BitSet P = pattern(N, 3), Q = pattern(N, 1);
    BitSet U = P, I = P;
    U.unionWith(Q);
    I.intersectWith(Q);
    for (size_t B = 0; B != N; ++B) {
      EXPECT_EQ(U.test(B), P.test(B) || Q.test(B)) << B;
      EXPECT_EQ(I.test(B), P.test(B) && Q.test(B)) << B;
    }
    EXPECT_TRUE(I.isSubsetOf(P));
    EXPECT_TRUE(P.isSubsetOf(U));
    EXPECT_TRUE(P.intersects(Q));
    S.clear();
    EXPECT_TRUE(S.empty());
    EXPECT_FALSE(S.intersects(P));
  }
}

TEST(BitSet, CopyAndMoveAcrossRepresentations) {
  // All four inline<->spilled directions, each by copy/move construction
  // and by copy/move assignment over an existing set.
  for (size_t From : {Inline, Spilled})
    for (size_t To : {size_t(10), Inline, size_t(129), Spilled}) {
      SCOPED_TRACE(testing::Message() << From << " -> " << To);
      const BitSet Src = pattern(From, 2);

      BitSet CopyCtor(Src);
      EXPECT_EQ(CopyCtor, Src);

      BitSet CopyAssign = pattern(To, 4);
      CopyAssign = Src;
      EXPECT_EQ(CopyAssign, Src);
      CopyAssign.set(From - 2);
      EXPECT_NE(CopyAssign, Src) << "a copy must not share words";
      EXPECT_FALSE(Src.test(From - 2));

      BitSet Moving = Src;
      BitSet MoveCtor(std::move(Moving));
      EXPECT_EQ(MoveCtor, Src);
      EXPECT_EQ(Moving.size(), 0u);

      BitSet Moving2 = Src;
      BitSet MoveAssign = pattern(To, 1);
      MoveAssign = std::move(Moving2);
      EXPECT_EQ(MoveAssign, Src);
      EXPECT_EQ(Moving2.size(), 0u);
      EXPECT_TRUE(Moving2.empty());
    }
}

TEST(BitSet, SelfAssignmentKeepsContents) {
  for (size_t N : {Inline, Spilled}) {
    BitSet S = pattern(N, 2);
    const BitSet Want = S;
    BitSet &Alias = S; // spelled through a reference to keep
    S = Alias;         // -Wself-assign/-Wself-move quiet
    EXPECT_EQ(S, Want);
    S = std::move(Alias);
    EXPECT_EQ(S, Want);
  }
}

TEST(BitSet, MovedFromSetIsReusable) {
  for (size_t N : {Inline, Spilled})
    for (size_t Reuse : {Inline, Spilled}) {
      BitSet S = pattern(N, 0);
      BitSet Taken(std::move(S));
      S.resize(Reuse);
      EXPECT_EQ(S.size(), Reuse);
      EXPECT_TRUE(S.empty());
      S.set(Reuse - 1);
      EXPECT_EQ(members(S), std::vector<size_t>{Reuse - 1});
      S = Taken;
      EXPECT_EQ(S, pattern(N, 0));
      BitSet Again = std::move(Taken);
      Taken = Again; // assignment into a moved-from set
      EXPECT_EQ(Taken, Again);
    }
}

TEST(BitSet, EqualityComparesSizeAcrossRepresentations) {
  // Sizes that share a word count or straddle the inline capacity: equal
  // (all-clear) words never make sets of different sizes equal.
  const size_t Sizes[] = {0, 1, 63, 64, 65, 128, 129, 700};
  for (size_t A : Sizes)
    for (size_t B : Sizes)
      EXPECT_EQ(BitSet(A) == BitSet(B), A == B) << A << " vs " << B;
  EXPECT_EQ(pattern(700, 2), pattern(700, 2));
  EXPECT_NE(pattern(700, 2), pattern(700, 3));
}

TEST(BitSet, JoinsReportChange) {
  for (size_t N : {Inline, Spilled}) {
    SCOPED_TRACE(N);
    BitSet Low(N), High(N);
    Low.set(1);
    High.set(N - 1); // last word: the fourth one when spilled
    BitSet Both = Low;
    EXPECT_FALSE(Both.unionWith(Low)) << "union with a subset";
    EXPECT_TRUE(Both.unionWith(High));
    EXPECT_FALSE(Both.unionWith(High)) << "repeat union";
    EXPECT_EQ(members(Both), (std::vector<size_t>{1, N - 1}));
    EXPECT_FALSE(Both.unionWith(BitSet(N)));

    BitSet Meet = Both;
    EXPECT_FALSE(Meet.intersectWith(Both)) << "intersect with a superset";
    EXPECT_TRUE(Meet.intersectWith(High));
    EXPECT_FALSE(Meet.intersectWith(High)) << "repeat intersection";
    EXPECT_EQ(Meet, High);
    EXPECT_TRUE(Meet.intersectWith(Low));
    EXPECT_TRUE(Meet.empty());
    EXPECT_FALSE(Meet.intersectWith(Low)) << "empty stays empty";
  }
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch W;
  double A = W.elapsedUs();
  double B = W.elapsedUs();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
  W.reset();
  EXPECT_GE(W.elapsedMs(), 0.0);
}

TEST(Histogram, EmptyReportsZeros) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
  EXPECT_EQ(H.percentile(50), 0u);
  EXPECT_EQ(H.percentile(99.9), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below 2^SubBucketBits get one bucket each, so every percentile
  // of a small-value population is exact.
  Histogram H;
  for (uint64_t V = 0; V != Histogram::SubBuckets; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), uint64_t(Histogram::SubBuckets));
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 31u);
  EXPECT_EQ(H.percentile(0), 0u);
  EXPECT_EQ(H.percentile(50), 16u);
  EXPECT_EQ(H.percentile(100), 31u);
  EXPECT_EQ(H.sum(), 31u * 32u / 2u);
}

TEST(Histogram, BucketGeometryRoundTrips) {
  // bucketUpperBound(bucketIndex(V)) >= V, buckets are contiguous and
  // monotone, and the relative quantization error stays within
  // 1/HalfBuckets (6.25% at SubBucketBits = 5).
  uint64_t Probes[] = {0,    1,     31,        32,        33,      47,
                       63,   64,    100,       1000,      4096,    65537,
                       1u << 20,    (1u << 20) + 12345,   UINT32_MAX,
                       uint64_t(1) << 40, (uint64_t(1) << 40) + 999,
                       UINT64_MAX};
  for (uint64_t V : Probes) {
    unsigned Idx = Histogram::bucketIndex(V);
    ASSERT_LT(Idx, Histogram::NumBuckets) << V;
    uint64_t Ub = Histogram::bucketUpperBound(Idx);
    EXPECT_GE(Ub, V) << V;
    if (Idx + 1 < Histogram::NumBuckets) {
      EXPECT_EQ(Histogram::bucketIndex(Ub + 1), Idx + 1) << V;
    }
    if (V >= Histogram::SubBuckets) {
      double Err = double(Ub - V) / double(V);
      EXPECT_LE(Err, 1.0 / Histogram::HalfBuckets) << V;
    }
  }
}

TEST(Histogram, PercentileErrorBoundOnRandomData) {
  std::mt19937_64 Rng(42);
  std::vector<uint64_t> Values;
  Histogram H;
  for (int I = 0; I != 10000; ++I) {
    // Log-uniform spread across six orders of magnitude, like latencies.
    uint64_t V = uint64_t(1) << (Rng() % 40);
    V += Rng() % V;
    Values.push_back(V);
    H.record(V);
  }
  std::sort(Values.begin(), Values.end());
  for (double P : {50.0, 90.0, 99.0, 99.9}) {
    uint64_t Exact = Values[size_t(P / 100.0 * Values.size())];
    uint64_t Approx = H.percentile(P);
    EXPECT_GE(Approx, Exact) << P;
    EXPECT_LE(double(Approx - Exact) / double(Exact),
              1.0 / Histogram::HalfBuckets)
        << P;
  }
  EXPECT_EQ(H.percentile(100), Values.back());
  EXPECT_EQ(H.min(), Values.front());
  EXPECT_EQ(H.max(), Values.back());
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  std::mt19937_64 Rng(7);
  Histogram A, B, Combined;
  for (int I = 0; I != 5000; ++I) {
    uint64_t V = Rng() % 1'000'000;
    (I % 2 ? A : B).record(V);
    Combined.record(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Combined.count());
  EXPECT_EQ(A.sum(), Combined.sum());
  EXPECT_EQ(A.min(), Combined.min());
  EXPECT_EQ(A.max(), Combined.max());
  for (double P : {1.0, 25.0, 50.0, 75.0, 99.0, 99.9})
    EXPECT_EQ(A.percentile(P), Combined.percentile(P)) << P;
}

TEST(Histogram, MergeWithEmptyKeepsExtrema) {
  Histogram A, Empty;
  A.record(100);
  A.merge(Empty);
  EXPECT_EQ(A.count(), 1u);
  EXPECT_EQ(A.min(), 100u);
  EXPECT_EQ(A.max(), 100u);
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 1u);
  EXPECT_EQ(Empty.min(), 100u);
}
