#include "shapley/coalition.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace comfedsv {

Coalition::Coalition(int universe_size) : universe_size_(universe_size) {
  COMFEDSV_CHECK_GE(universe_size, 0);
  if (!Inline()) heap_ = new uint64_t[NumWords()]();
}

Coalition::Coalition(const Coalition& other)
    : universe_size_(other.universe_size_) {
  if (Inline()) {
    word_ = other.word_;
  } else {
    heap_ = new uint64_t[NumWords()];
    std::copy_n(other.heap_, NumWords(), heap_);
  }
}

Coalition::Coalition(Coalition&& other) noexcept
    : universe_size_(other.universe_size_) {
  if (Inline()) {
    word_ = other.word_;
  } else {
    heap_ = other.heap_;
  }
  other.universe_size_ = 0;
  other.word_ = 0;
}

Coalition& Coalition::operator=(const Coalition& other) {
  if (this != &other) *this = Coalition(other);
  return *this;
}

Coalition& Coalition::operator=(Coalition&& other) noexcept {
  if (this == &other) return *this;
  if (!Inline()) delete[] heap_;
  universe_size_ = other.universe_size_;
  if (Inline()) {
    word_ = other.word_;
  } else {
    heap_ = other.heap_;
  }
  other.universe_size_ = 0;
  other.word_ = 0;
  return *this;
}

Coalition::~Coalition() {
  if (!Inline()) delete[] heap_;
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
  Words()[client >> 6] |= (1ULL << (client & 63));
}

void Coalition::Remove(int client) {
  CheckClient(client);
  Words()[client >> 6] &= ~(1ULL << (client & 63));
}

bool Coalition::Contains(int client) const {
  CheckClient(client);
  return (Words()[client >> 6] >> (client & 63)) & 1ULL;
}

int Coalition::Count() const {
  const uint64_t* words = Words();
  int total = 0;
  for (size_t w = 0; w < NumWords(); ++w) total += std::popcount(words[w]);
  return total;
}

bool Coalition::IsSubsetOf(const Coalition& other) const {
  COMFEDSV_CHECK_EQ(universe_size_, other.universe_size_);
  const uint64_t* mine = Words();
  const uint64_t* theirs = other.Words();
  for (size_t i = 0; i < NumWords(); ++i) {
    if (mine[i] & ~theirs[i]) return false;
  }
  return true;
}

bool Coalition::operator==(const Coalition& other) const {
  return universe_size_ == other.universe_size_ &&
         std::equal(Words(), Words() + NumWords(), other.Words());
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
  const uint64_t* mine = Words();
  const uint64_t* theirs = other.Words();
  for (size_t i = NumWords(); i > 0; --i) {
    if (mine[i - 1] != theirs[i - 1]) return mine[i - 1] < theirs[i - 1];
  }
  return false;
}

bool Coalition::MemberListLess(const Coalition& a, const Coalition& b) {
  COMFEDSV_CHECK_EQ(a.universe_size_, b.universe_size_);
  const uint64_t* aw = a.Words();
  const uint64_t* bw = b.Words();
  const size_t n = a.NumWords();
  for (size_t w = 0; w < n; ++w) {
    const uint64_t diff = aw[w] ^ bw[w];
    if (diff == 0) continue;
    // Both lists agree below the lowest differing client d, and exactly
    // one of them lists d next. The other's next member is larger than
    // d, or it has none and is a proper prefix, which orders first.
    const uint64_t low = diff & (~diff + 1);
    const bool a_has_d = (aw[w] & low) != 0;
    const uint64_t* other = a_has_d ? bw : aw;
    bool other_continues = (other[w] & ~(low | (low - 1))) != 0;
    for (size_t v = w + 1; v < n && !other_continues; ++v) {
      other_continues = other[v] != 0;
    }
    return a_has_d == other_continues;
  }
  return false;
}

size_t Coalition::Hash() const noexcept {
  // FNV-1a over the words plus the universe size.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  };
  mix(static_cast<uint64_t>(universe_size_));
  const uint64_t* words = Words();
  for (size_t w = 0; w < NumWords(); ++w) mix(words[w]);
  return static_cast<size_t>(h);
}

}  // namespace comfedsv
