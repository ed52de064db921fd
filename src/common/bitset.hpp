// Runtime-sized bitset used for L2 directory sharer sets (up to 512 cores).
#pragma once

#include <cstdint>
#include <vector>

namespace htpb {

/// Minimal dynamic bitset with popcount and iteration over set bits.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  void set(std::size_t i) noexcept { words_[i >> 6] |= 1ULL << (i & 63); }
  void clear(std::size_t i) noexcept { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (const auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  [[nodiscard]] bool any() const noexcept {
    for (const auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Visits every set bit in ascending index order and clears those for
  /// which `keep(i)` returns false. Each word is read once, before its
  /// bits are visited, so a bit `keep` sets in the current or an earlier
  /// word is kept but not visited until the next pass.
  template <typename Keep>
  void retain_if(Keep&& keep) {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t drop = 0;
      for (std::uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        const int b = __builtin_ctzll(w);
        if (!keep(wi * 64 + static_cast<std::size_t>(b))) drop |= 1ULL << b;
      }
      words_[wi] &= ~drop;
    }
  }

  /// Indices of all set bits in ascending order.
  [[nodiscard]] std::vector<std::uint32_t> set_bits() const {
    std::vector<std::uint32_t> out;
    out.reserve(count());
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        out.push_back(static_cast<std::uint32_t>(wi * 64 + static_cast<std::size_t>(b)));
        w &= w - 1;
      }
    }
    return out;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace htpb
