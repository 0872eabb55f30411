#include "shapley/coalition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
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

}  // namespace
}  // namespace comfedsv
