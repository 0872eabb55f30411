// Coalition: a subset of clients out of a fixed universe {0, ..., N-1}.
// Implemented as a bitset so the library supports N > 64 (the paper's
// Fig. 7/8 experiments use up to 100 clients). Universes of up to 64
// clients keep their one word inline, so copying such a coalition — the
// utility memo, the interner and the Shapley estimators copy millions —
// never touches the heap; larger universes own a heap array of words.
#ifndef COMFEDSV_SHAPLEY_COALITION_H_
#define COMFEDSV_SHAPLEY_COALITION_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace comfedsv {

/// A subset of {0, ..., universe_size-1}, hashable and order-comparable.
class Coalition {
 public:
  Coalition() = default;

  /// The empty coalition over a universe of `universe_size` clients.
  explicit Coalition(int universe_size);

  Coalition(const Coalition& other);
  /// Leaves `other` the empty coalition over a universe of 0 clients.
  Coalition(Coalition&& other) noexcept;
  Coalition& operator=(const Coalition& other);
  Coalition& operator=(Coalition&& other) noexcept;
  ~Coalition();

  /// Coalition containing exactly `members`.
  static Coalition FromMembers(int universe_size,
                               const std::vector<int>& members);

  /// The full coalition {0, ..., universe_size-1}.
  static Coalition Full(int universe_size);

  int universe_size() const { return universe_size_; }

  void Add(int client);
  void Remove(int client);
  bool Contains(int client) const;

  /// Number of members.
  int Count() const;
  bool IsEmpty() const { return Count() == 0; }

  /// True iff every member of this coalition is in `other`.
  bool IsSubsetOf(const Coalition& other) const;

  /// Sorted member list.
  std::vector<int> Members() const;

  /// Visits every member in ascending order without allocating — the
  /// utility/recorder hot paths call this once per coalition evaluation,
  /// where a Members() vector per call would churn the heap.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    const uint64_t* words = Words();
    for (size_t w = 0; w < NumWords(); ++w) {
      uint64_t bits = words[w];
      while (bits) {
        const int bit = std::countr_zero(bits);
        fn(static_cast<int>(w * 64 + bit));
        bits &= bits - 1;
      }
    }
  }

  /// Copy with `client` added / removed.
  Coalition With(int client) const;
  Coalition Without(int client) const;

  bool operator==(const Coalition& other) const;
  bool operator!=(const Coalition& other) const { return !(*this == other); }

  /// Lexicographic order on the bit pattern (for deterministic maps).
  bool operator<(const Coalition& other) const;

  /// Lexicographic order of the ascending member lists, e.g.
  /// {0,1} < {0,1,2} < {0,2} < {1}: coalitions adjacent in this order
  /// share long ascending prefixes. Reads the bit words directly, so
  /// sorting by it allocates nothing. Both must share a universe.
  static bool MemberListLess(const Coalition& a, const Coalition& b);

  size_t Hash() const noexcept;

 private:
  void CheckClient(int client) const;
  bool Inline() const { return universe_size_ <= 64; }
  size_t NumWords() const {
    return (static_cast<size_t>(universe_size_) + 63) / 64;
  }
  const uint64_t* Words() const { return Inline() ? &word_ : heap_; }
  uint64_t* Words() { return Inline() ? &word_ : heap_; }

  int universe_size_ = 0;
  union {
    uint64_t word_ = 0;  // universe_size_ <= 64
    uint64_t* heap_;     // universe_size_ > 64: NumWords() words, owned
  };
};

/// Hash functor for unordered containers. noexcept, because then
/// libstdc++'s unordered containers recompute the (cheap) hash rather than
/// store it in every node: the per-round utility memo holds one node per
/// coalition.
struct CoalitionHash {
  size_t operator()(const Coalition& c) const noexcept { return c.Hash(); }
};

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_COALITION_H_
