// N-dimensional extents for scientific fields (up to 4D, matching the
// SDRBench datasets the paper evaluates: 3D Hurricane/Nyx fields and the
// 4D SCALE-LetKF fields).
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/error.h"

namespace szsec {

/// Dataset extents, slowest-varying dimension first (C order).
/// A 3D 100x500x500 field is Dims{100, 500, 500}.
class Dims {
 public:
  static constexpr size_t kMaxRank = 4;

  Dims() = default;

  Dims(std::initializer_list<size_t> extents)
      : Dims(from_extents(extents.begin(), extents.size())) {}

  /// The runtime-rank form of the initializer-list constructor.
  static Dims from_extents(const size_t* extents, size_t rank) {
    SZSEC_REQUIRE(rank >= 1 && rank <= kMaxRank, "rank must be 1..4");
    Dims d;
    d.rank_ = rank;
    for (size_t i = 0; i < rank; ++i) {
      SZSEC_REQUIRE(extents[i] > 0, "zero extent");
      d.d_[i] = extents[i];
    }
    return d;
  }

  size_t rank() const { return rank_; }

  size_t operator[](size_t i) const {
    SZSEC_REQUIRE(i < rank_, "dimension index out of range");
    return d_[i];
  }

  /// Total number of elements.
  size_t count() const {
    size_t n = 1;
    for (size_t i = 0; i < rank_; ++i) n *= d_[i];
    return n;
  }

  /// Row-major strides: stride[rank-1] == 1.
  std::array<size_t, kMaxRank> strides() const {
    std::array<size_t, kMaxRank> s{};
    size_t acc = 1;
    for (size_t i = rank_; i-- > 0;) {
      s[i] = acc;
      acc *= d_[i];
    }
    return s;
  }

  /// Per-axis extent cap for untrusted dims (see read_extents()).
  static constexpr uint64_t kMaxExtent = uint64_t{1} << 40;

  /// Whole-field element cap for untrusted dims.  Axes that each pass
  /// the per-axis cap can still multiply past 2^64 at rank 4, so
  /// read_extents() bounds the product overflow-safely.
  static constexpr uint64_t kMaxElements = uint64_t{1} << 40;

  bool operator==(const Dims& o) const {
    if (rank_ != o.rank_) return false;
    for (size_t i = 0; i < rank_; ++i) {
      if (d_[i] != o.d_[i]) return false;
    }
    return true;
  }

  std::string to_string() const {
    std::string s;
    for (size_t i = 0; i < rank_; ++i) {
      if (i) s += "x";
      s += std::to_string(d_[i]);
    }
    return s;
  }

 private:
  std::array<size_t, kMaxRank> d_{};
  size_t rank_ = 0;
};

/// The one reader for untrusted dims: `rank` varint extents from `r` (a
/// ByteReader, or any reader with its get_varint()), each axis within
/// [1, Dims::kMaxExtent] and the running product within
/// Dims::kMaxElements, checked as it is read.  Throws CorruptError on
/// violation, before anything can be sized from the dims.
template <typename Reader>
Dims read_extents(Reader& r, size_t rank) {
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  size_t extents[Dims::kMaxRank] = {};
  uint64_t total = 1;
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = r.get_varint();
    SZSEC_CHECK_FORMAT(e >= 1 && e <= Dims::kMaxExtent, "bad extent");
    // total * e <= kMaxElements, phrased divisionally so the product
    // is never actually formed when it would wrap.
    SZSEC_CHECK_FORMAT(e <= Dims::kMaxElements / total,
                       "field element count exceeds format limit");
    total *= e;
    extents[i] = static_cast<size_t>(e);
  }
  return Dims::from_extents(extents, rank);
}

/// read_extents behind its `u8 rank` byte: the `rank | varint
/// extents[rank]` layout every container, archive and footer shares.
template <typename Reader>
Dims read_dims(Reader& r) {
  const uint8_t rank = r.get_u8();
  return read_extents(r, rank);
}

}  // namespace szsec
