#include "shapley/coalition.h"

#include <bit>

#include "common/check.h"

namespace comfedsv {

Coalition::Coalition(int universe_size)
    : universe_size_(universe_size),
      words_((universe_size + 63) / 64, 0ULL) {
  COMFEDSV_CHECK_GE(universe_size, 0);
}

Coalition Coalition::FromMembers(int universe_size,
                                 const std::vector<int>& members) {
  Coalition c(universe_size);
  for (int m : members) c.Add(m);
  return c;
}

Coalition Coalition::Full(int universe_size) {
  Coalition c(universe_size);
  for (int i = 0; i < universe_size; ++i) c.Add(i);
  return c;
}

void Coalition::CheckClient(int client) const {
  COMFEDSV_CHECK_GE(client, 0);
  COMFEDSV_CHECK_LT(client, universe_size_);
}

void Coalition::Add(int client) {
  CheckClient(client);
  words_[client >> 6] |= (1ULL << (client & 63));
}

void Coalition::Remove(int client) {
  CheckClient(client);
  words_[client >> 6] &= ~(1ULL << (client & 63));
}

bool Coalition::Contains(int client) const {
  CheckClient(client);
  return (words_[client >> 6] >> (client & 63)) & 1ULL;
}

int Coalition::Count() const {
  int total = 0;
  for (uint64_t w : words_) total += std::popcount(w);
  return total;
}

bool Coalition::IsSubsetOf(const Coalition& other) const {
  COMFEDSV_CHECK_EQ(universe_size_, other.universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  return true;
}

std::vector<int> Coalition::Members() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEachMember([&out](int member) { out.push_back(member); });
  return out;
}

Coalition Coalition::With(int client) const {
  Coalition c = *this;
  c.Add(client);
  return c;
}

Coalition Coalition::Without(int client) const {
  Coalition c = *this;
  c.Remove(client);
  return c;
}

bool Coalition::operator<(const Coalition& other) const {
  if (universe_size_ != other.universe_size_) {
    return universe_size_ < other.universe_size_;
  }
  for (size_t i = words_.size(); i > 0; --i) {
    if (words_[i - 1] != other.words_[i - 1]) {
      return words_[i - 1] < other.words_[i - 1];
    }
  }
  return false;
}

bool Coalition::MemberListLess(const Coalition& a, const Coalition& b) {
  COMFEDSV_CHECK_EQ(a.universe_size_, b.universe_size_);
  const size_t n = a.words_.size();
  for (size_t w = 0; w < n; ++w) {
    const uint64_t diff = a.words_[w] ^ b.words_[w];
    if (diff == 0) continue;
    // Both lists agree below the lowest differing client d, and exactly
    // one of them lists d next. The other's next member is larger than
    // d, or it has none and is a proper prefix, which orders first.
    const uint64_t low = diff & (~diff + 1);
    const bool a_has_d = (a.words_[w] & low) != 0;
    const std::vector<uint64_t>& other = a_has_d ? b.words_ : a.words_;
    bool other_continues = (other[w] & ~(low | (low - 1))) != 0;
    for (size_t v = w + 1; v < n && !other_continues; ++v) {
      other_continues = other[v] != 0;
    }
    return a_has_d == other_continues;
  }
  return false;
}

size_t Coalition::Hash() const {
  // FNV-1a over the words plus the universe size.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  };
  mix(static_cast<uint64_t>(universe_size_));
  for (uint64_t w : words_) mix(w);
  return static_cast<size_t>(h);
}

}  // namespace comfedsv
