// Word-packed bitset with an ascending set-bit cursor, for the sparse
// per-cycle walks of the scale-out hot path (live cores, queued coherence
// acks, busy DRAM requesters, NoC routers/buses/NIs holding flits).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mot3d {

class WordBitset {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit WordBitset(std::size_t size = 0) : words_((size + 63) / 64, 0) {}

  /// Grow to `size` bits; the new bits are clear.
  void resize(std::size_t size) { words_.resize((size + 63) / 64, 0); }

  bool test(std::size_t i) const { return ((words_[i >> 6] >> (i & 63)) & 1) != 0; }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }

  /// Set bits [0, n).
  void set_first(std::size_t n) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::size_t lo = w << 6;
      words_[w] = n >= lo + 64 ? ~std::uint64_t{0}
                  : n > lo     ? (std::uint64_t{1} << (n - lo)) - 1
                               : 0;
    }
  }

  /// First set bit at or after `from`, or npos.
  std::size_t next(std::size_t from) const {
    std::size_t w = from >> 6;
    if (w >= words_.size()) return npos;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == words_.size()) return npos;
      word = words_[w];
    }
    return (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
  }

  /// fn(i) for every set bit, ascending.  The cursor re-reads the words
  /// after every call, so a bit fn raises above the cursor is visited in
  /// the same walk and a bit it clears ahead of the cursor is not.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = next(0); i != npos; i = next(i + 1)) fn(i);
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace mot3d
