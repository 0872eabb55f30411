#include "shapley/coalition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace comfedsv {
namespace {

TEST(CoalitionTest, EmptyAndFull) {
  Coalition empty(10);
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.Count(), 0);
  EXPECT_EQ(empty.universe_size(), 10);

  Coalition full = Coalition::Full(10);
  EXPECT_EQ(full.Count(), 10);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(full.Contains(i));
}

TEST(CoalitionTest, AddRemoveContains) {
  Coalition c(5);
  c.Add(2);
  c.Add(4);
  EXPECT_TRUE(c.Contains(2));
  EXPECT_TRUE(c.Contains(4));
  EXPECT_FALSE(c.Contains(0));
  EXPECT_EQ(c.Count(), 2);
  c.Remove(2);
  EXPECT_FALSE(c.Contains(2));
  EXPECT_EQ(c.Count(), 1);
  c.Remove(2);  // removing absent member is a no-op
  EXPECT_EQ(c.Count(), 1);
}

TEST(CoalitionTest, FromMembersAndMembersRoundTrip) {
  std::vector<int> members = {7, 1, 3};
  Coalition c = Coalition::FromMembers(8, members);
  EXPECT_EQ(c.Members(), (std::vector<int>{1, 3, 7}));
}

TEST(CoalitionTest, WorksBeyond64Clients) {
  // The dynamic bitset must handle the paper's 100-client experiments.
  Coalition c(130);
  c.Add(0);
  c.Add(63);
  c.Add(64);
  c.Add(129);
  EXPECT_EQ(c.Count(), 4);
  EXPECT_EQ(c.Members(), (std::vector<int>{0, 63, 64, 129}));
  EXPECT_TRUE(c.IsSubsetOf(Coalition::Full(130)));
  Coalition partial = Coalition::FromMembers(130, {0, 63, 64});
  EXPECT_TRUE(partial.IsSubsetOf(c));
  EXPECT_FALSE(c.IsSubsetOf(partial));
}

TEST(CoalitionTest, WithWithoutAreNonMutating) {
  Coalition c = Coalition::FromMembers(6, {1, 2});
  Coalition plus = c.With(5);
  Coalition minus = c.Without(1);
  EXPECT_EQ(c.Count(), 2);
  EXPECT_TRUE(plus.Contains(5));
  EXPECT_FALSE(minus.Contains(1));
}

TEST(CoalitionTest, SubsetReflexiveAndEmpty) {
  Coalition c = Coalition::FromMembers(9, {0, 4, 8});
  EXPECT_TRUE(c.IsSubsetOf(c));
  EXPECT_TRUE(Coalition(9).IsSubsetOf(c));
  EXPECT_FALSE(c.IsSubsetOf(Coalition(9)));
}

TEST(CoalitionTest, EqualityAndHash) {
  Coalition a = Coalition::FromMembers(20, {3, 7, 19});
  Coalition b = Coalition::FromMembers(20, {19, 3, 7});
  Coalition c = Coalition::FromMembers(20, {3, 7});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());

  std::unordered_set<Coalition, CoalitionHash> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(CoalitionTest, HashSpreadsOverSubsets) {
  // All 2^10 subsets of a 10-universe should hash with few collisions.
  std::set<size_t> hashes;
  for (uint32_t mask = 0; mask < 1024; ++mask) {
    Coalition c(10);
    for (int i = 0; i < 10; ++i) {
      if (mask & (1u << i)) c.Add(i);
    }
    hashes.insert(c.Hash());
  }
  EXPECT_GE(hashes.size(), 1020u);
}

TEST(CoalitionTest, OrderingIsStrictWeak) {
  Coalition a = Coalition::FromMembers(6, {0});
  Coalition b = Coalition::FromMembers(6, {1});
  Coalition c = Coalition::FromMembers(6, {0, 1});
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(a < a);
}

// Reference for MemberListLess: lexicographic order of Members().
bool MembersLess(const Coalition& a, const Coalition& b) {
  const std::vector<int> ma = a.Members();
  const std::vector<int> mb = b.Members();
  return std::lexicographical_compare(ma.begin(), ma.end(), mb.begin(),
                                      mb.end());
}

void ExpectMemberOrderMatchesReference(const Coalition& a,
                                       const Coalition& b) {
  EXPECT_EQ(Coalition::MemberListLess(a, b), MembersLess(a, b))
      << "a=" << ::testing::PrintToString(a.Members())
      << " b=" << ::testing::PrintToString(b.Members());
  EXPECT_EQ(Coalition::MemberListLess(b, a), MembersLess(b, a))
      << "a=" << ::testing::PrintToString(a.Members())
      << " b=" << ::testing::PrintToString(b.Members());
}

TEST(CoalitionTest, MemberListLessHandPickedPairs) {
  const int n = 130;  // three bit words
  auto c = [n](std::vector<int> members) {
    return Coalition::FromMembers(n, members);
  };
  const Coalition empty(n);
  // Empty vs empty, and equal coalitions, are not less either way.
  EXPECT_FALSE(Coalition::MemberListLess(empty, empty));
  EXPECT_FALSE(Coalition::MemberListLess(c({3, 70}), c({3, 70})));
  // The empty list is a prefix of every list.
  EXPECT_TRUE(Coalition::MemberListLess(empty, c({129})));
  EXPECT_FALSE(Coalition::MemberListLess(c({129}), empty));
  // A proper prefix orders first, within a word and across words.
  EXPECT_TRUE(Coalition::MemberListLess(c({0, 1}), c({0, 1, 2})));
  EXPECT_TRUE(Coalition::MemberListLess(c({5, 63}), c({5, 63, 64})));
  EXPECT_TRUE(Coalition::MemberListLess(c({5}), c({5, 128})));
  EXPECT_FALSE(Coalition::MemberListLess(c({5, 128}), c({5})));
  // {0,1,2} < {0,2}: the first difference decides, not the size.
  EXPECT_TRUE(Coalition::MemberListLess(c({0, 1, 2}), c({0, 2})));
  // Multi-word: the lowest differing client sits in the second word.
  EXPECT_TRUE(Coalition::MemberListLess(c({1, 64, 129}), c({1, 65})));
  EXPECT_FALSE(Coalition::MemberListLess(c({1, 65}), c({1, 64, 129})));
  // Bit 63, the top of the first word, differs.
  EXPECT_TRUE(Coalition::MemberListLess(c({63, 100}), c({100})));
  EXPECT_TRUE(Coalition::MemberListLess(c({62}), c({62, 63})));

  const std::vector<Coalition> cases = {
      empty,        c({0}),        c({0, 1}),      c({0, 1, 2}),
      c({0, 2}),    c({63}),       c({63, 64}),    c({64}),
      c({1, 64}),   c({1, 65}),    c({1, 64, 129}), c({5, 128}),
      c({5}),       c({129}),      c({62, 63}),    c({63, 100})};
  for (const Coalition& a : cases) {
    for (const Coalition& b : cases) ExpectMemberOrderMatchesReference(a, b);
  }
}

TEST(CoalitionTest, MemberListLessMatchesReferenceOnRandomPairs) {
  Rng rng(2024);
  for (int n : {7, 64, 70, 130}) {
    for (int trial = 0; trial < 400; ++trial) {
      // Sparse and dense draws, plus a shared random prefix so many
      // pairs agree on their first members.
      const double density = trial % 2 == 0 ? 0.1 : 0.6;
      Coalition a(n), b(n);
      const int shared = static_cast<int>(rng.NextUint64(n + 1));
      for (int k = 0; k < n; ++k) {
        const bool in_a = rng.NextBernoulli(density);
        if (in_a) a.Add(k);
        if (k < shared ? in_a : rng.NextBernoulli(density)) b.Add(k);
      }
      ExpectMemberOrderMatchesReference(a, b);
    }
  }
}

// --- Storage: one inline word up to 64 clients, a heap array above ---

// Universes on both sides of the inline/heap boundary and across word
// counts.
constexpr int kUniverses[] = {0, 1, 63, 64, 65, 200};

// The empty and full coalitions, the top client alone, and random sparse
// and dense draws.
std::vector<Coalition> Samples(int n, Rng* rng) {
  std::vector<Coalition> out = {Coalition(n), Coalition::Full(n)};
  if (n == 0) return out;
  out.push_back(Coalition::FromMembers(n, {n - 1}));
  for (int trial = 0; trial < 12; ++trial) {
    const double density = trial % 2 == 0 ? 0.1 : 0.6;
    Coalition c(n);
    for (int k = 0; k < n; ++k) {
      if (rng->NextBernoulli(density)) c.Add(k);
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Coalition> AllSamples() {
  Rng rng(4242);
  std::vector<Coalition> all;
  for (int n : kUniverses) {
    for (Coalition& c : Samples(n, &rng)) all.push_back(std::move(c));
  }
  return all;
}

// The bit words a coalition must hold, rebuilt from Members().
std::vector<uint64_t> ReferenceWords(const Coalition& c) {
  std::vector<uint64_t> words((c.universe_size() + 63) / 64, 0);
  for (int m : c.Members()) words[m / 64] |= uint64_t{1} << (m % 64);
  return words;
}

// Hash(): FNV-1a over the universe size and then the words.
size_t ReferenceHash(const Coalition& c) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  };
  mix(static_cast<uint64_t>(c.universe_size()));
  for (uint64_t w : ReferenceWords(c)) mix(w);
  return static_cast<size_t>(h);
}

// operator<: by universe size, then the bit pattern from the top word.
bool ReferenceLess(const Coalition& a, const Coalition& b) {
  if (a.universe_size() != b.universe_size()) {
    return a.universe_size() < b.universe_size();
  }
  const std::vector<uint64_t> wa = ReferenceWords(a);
  const std::vector<uint64_t> wb = ReferenceWords(b);
  return std::lexicographical_compare(wa.rbegin(), wa.rend(), wb.rbegin(),
                                      wb.rend());
}

void ExpectSame(const Coalition& c, int universe,
                const std::vector<int>& members, const char* what) {
  EXPECT_EQ(c.universe_size(), universe) << what;
  EXPECT_EQ(c.Members(), members) << what << " universe " << universe;
  EXPECT_EQ(c.Count(), static_cast<int>(members.size())) << what;
}

// Assigns through references, so the self-assignments below compile
// without self-assignment warnings.
void CopyAssign(Coalition& to, const Coalition& from) { to = from; }
void MoveAssign(Coalition& to, Coalition& from) { to = std::move(from); }

TEST(CoalitionStorageTest, CopiesAreEqualAndIndependent) {
  for (const Coalition& c : AllSamples()) {
    const int n = c.universe_size();
    const std::vector<int> members = c.Members();
    Coalition copy(c);
    ExpectSame(copy, n, members, "copy");
    EXPECT_EQ(copy, c);
    if (n > 0) {
      // Writing the copy leaves the source untouched (no shared words).
      copy.Add(n - 1);
      copy.Remove(0);
      ExpectSame(c, n, members, "source after the copy was written");
    }
  }
}

TEST(CoalitionStorageTest, CopyAssignmentAcrossUniverses) {
  const std::vector<Coalition> all = AllSamples();
  for (const Coalition& from : all) {
    for (int n : kUniverses) {
      // Inline into heap, heap into inline, heap into a heap array of
      // another (or the same) word count.
      Coalition to = Coalition::Full(n);
      CopyAssign(to, from);
      ExpectSame(to, from.universe_size(), from.Members(), "assigned");
      EXPECT_EQ(to, from);
      EXPECT_EQ(to.Hash(), from.Hash());
    }
  }
}

TEST(CoalitionStorageTest, MovesTransferMembersAndEmptyTheSource) {
  for (const Coalition& c : AllSamples()) {
    const int n = c.universe_size();
    const std::vector<int> members = c.Members();

    Coalition source(c);
    Coalition moved(std::move(source));
    ExpectSame(moved, n, members, "move-constructed");
    // The moved-from state is specified: empty, over 0 clients.
    // NOLINTNEXTLINE(bugprone-use-after-move)
    ExpectSame(source, 0, {}, "moved-from");

    for (int other : kUniverses) {
      Coalition to = Coalition::Full(other);
      Coalition from(c);
      MoveAssign(to, from);
      ExpectSame(to, n, members, "move-assigned");
      ExpectSame(from, 0, {}, "moved-from");
      // A moved-from coalition is reusable.
      from = c;
      EXPECT_EQ(from, c);
    }
  }
}

TEST(CoalitionStorageTest, SelfAssignmentKeepsMembers) {
  for (const Coalition& c : AllSamples()) {
    const std::vector<int> members = c.Members();
    Coalition self(c);
    CopyAssign(self, self);
    ExpectSame(self, c.universe_size(), members, "copy self-assigned");
    MoveAssign(self, self);
    ExpectSame(self, c.universe_size(), members, "move self-assigned");
  }
}

TEST(CoalitionStorageTest, EqualityHashAndOrderMatchTheMemberReference) {
  const std::vector<Coalition> all = AllSamples();
  for (const Coalition& a : all) {
    EXPECT_EQ(a.Hash(), ReferenceHash(a))
        << "universe " << a.universe_size();
    for (const Coalition& b : all) {
      const bool same_universe = a.universe_size() == b.universe_size();
      EXPECT_EQ(a == b, same_universe && a.Members() == b.Members());
      EXPECT_EQ(a != b, !(a == b));
      EXPECT_EQ(a < b, ReferenceLess(a, b))
          << "a=" << ::testing::PrintToString(a.Members())
          << " b=" << ::testing::PrintToString(b.Members());
      if (same_universe) {
        EXPECT_EQ(Coalition::MemberListLess(a, b), MembersLess(a, b))
            << "universe " << a.universe_size()
            << " a=" << ::testing::PrintToString(a.Members())
            << " b=" << ::testing::PrintToString(b.Members());
      }
    }
  }
}

}  // namespace
}  // namespace comfedsv
