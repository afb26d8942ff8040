// Bit streams used by the Huffman coder (MSB-first) and the zlite DEFLATE
// codec (LSB-first, the DEFLATE convention).  BitWriter/LsbBitWriter pack
// bits into bytes; BitReader/LsbBitReader are their bounds-checked
// inverses.
//
// All four work a machine word at a time rather than a bit at a time:
// the writers collect bits in a 64-bit accumulator and append 32 bits at
// once, LsbBitReader keeps up to 64 stream bits buffered and refills with
// one unaligned 8-byte load.  The bytes produced and the point at which a
// read past the end throws are exactly those of a bit-at-a-time loop.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytestream.h"
#include "common/error.h"

namespace szsec {

namespace detail {

/// The lowest `nbits` bits set; nbits may be 0..64.
constexpr uint64_t low_mask(unsigned nbits) {
  return nbits >= 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
}

/// Little-endian 8-byte load from possibly unaligned memory.
inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace detail

/// MSB-first bit packer: the first bit written becomes the highest bit of
/// the first byte.  Matches textbook Huffman-code emission.
class BitWriter {
 public:
  /// Appends the lowest `nbits` bits of `value`, most significant first;
  /// higher bits of `value` are ignored.
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > 32) {
      put_bits(value >> 32, nbits - 32);
      nbits = 32;
    }
    // fill_ < 32 and nbits <= 32, so the pending bits fit in acc_; bits
    // above them are stale and never read.
    acc_ = (acc_ << nbits) | (value & detail::low_mask(nbits));
    fill_ += nbits;
    if (fill_ >= 32) {
      fill_ -= 32;
      const uint32_t word = static_cast<uint32_t>(acc_ >> fill_);
      const uint8_t b[4] = {
          static_cast<uint8_t>(word >> 24), static_cast<uint8_t>(word >> 16),
          static_cast<uint8_t>(word >> 8), static_cast<uint8_t>(word)};
      buf_.insert(buf_.end(), b, b + 4);
    }
  }

  void put_bit(unsigned bit) { put_bits(bit, 1); }

  /// Pads the final partial byte with zero bits and returns the buffer.
  Bytes finish() {
    while (fill_ >= 8) {
      fill_ -= 8;
      buf_.push_back(static_cast<uint8_t>(acc_ >> fill_));
    }
    if (fill_ != 0) buf_.push_back(static_cast<uint8_t>(acc_ << (8 - fill_)));
    acc_ = 0;
    fill_ = 0;
    return std::move(buf_);
  }

  /// Total bits written so far (before padding).
  size_t bit_count() const { return buf_.size() * 8 + fill_; }

 private:
  Bytes buf_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  ///< pending bits in the low end of acc_, < 32
};

/// MSB-first bit reader over a borrowed buffer.
class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  unsigned get_bit() {
    SZSEC_CHECK_FORMAT(bit_pos_ < data_.size() * 8, "bitstream exhausted");
    const unsigned off = 7u - static_cast<unsigned>(bit_pos_ & 7);
    return (data_[bit_pos_++ >> 3] >> off) & 1u;
  }

  /// Reads `nbits` bits; the first bit read is the result's highest bit.
  /// Throws CorruptError, consuming nothing, if fewer remain.
  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    SZSEC_CHECK_FORMAT(nbits <= bits_remaining(), "bitstream exhausted");
    uint64_t v = 0;
    while (nbits > 0) {
      const unsigned avail = 8 - static_cast<unsigned>(bit_pos_ & 7);
      const unsigned take = nbits < avail ? nbits : avail;
      const unsigned byte = data_[bit_pos_ >> 3];
      v = (v << take) | ((byte >> (avail - take)) & detail::low_mask(take));
      bit_pos_ += take;
      nbits -= take;
    }
    return v;
  }

  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }
  size_t bit_pos() const { return bit_pos_; }

 private:
  BytesView data_;
  size_t bit_pos_ = 0;
};

/// LSB-first bit packer (DEFLATE convention): the first bit written becomes
/// the lowest bit of the first byte.
class LsbBitWriter {
 public:
  /// Appends the lowest `nbits` bits of `value`, least significant first;
  /// higher bits of `value` are ignored.
  void put_bits(uint64_t value, unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > 32) {
      put_bits(value, 32);
      value >>= 32;
      nbits -= 32;
    }
    // fill_ < 32 and nbits <= 32: the sum fits; bits above fill_ are zero.
    acc_ |= (value & detail::low_mask(nbits)) << fill_;
    fill_ += nbits;
    if (fill_ >= 32) {
      const uint8_t b[4] = {
          static_cast<uint8_t>(acc_), static_cast<uint8_t>(acc_ >> 8),
          static_cast<uint8_t>(acc_ >> 16), static_cast<uint8_t>(acc_ >> 24)};
      buf_.insert(buf_.end(), b, b + 4);
      acc_ >>= 32;
      fill_ -= 32;
    }
  }

  /// Zero-pads to a byte boundary without terminating the stream
  /// (used for DEFLATE stored blocks).
  void align_to_byte() {
    while (fill_ > 0) {
      buf_.push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      fill_ = fill_ > 8 ? fill_ - 8 : 0;
    }
  }

  /// Appends whole bytes; requires byte alignment.
  void put_bytes(BytesView bytes) {
    SZSEC_REQUIRE(fill_ % 8 == 0, "put_bytes requires byte alignment");
    align_to_byte();
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  Bytes finish() {
    align_to_byte();
    return std::move(buf_);
  }

  size_t bit_count() const { return buf_.size() * 8 + fill_; }

 private:
  Bytes buf_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  ///< pending bits in the low end of acc_, < 32
};

/// LSB-first bit reader (DEFLATE convention).
///
/// A 64-bit buffer holds the next `avail_` stream bits in its low end.
/// peek() refills it and may show zeros for bits past the end of the
/// data; consume() is the bounds check, and throws exactly when a
/// bit-at-a-time reader would have run out.
class LsbBitReader {
 public:
  /// Most bits peek() can return.
  static constexpr unsigned kMaxPeekBits = 56;

  explicit LsbBitReader(BytesView data) : data_(data) {}

  /// The next `nbits` (<= kMaxPeekBits) stream bits, first bit lowest,
  /// without consuming them.  Bits past the end of the data read as 0.
  uint64_t peek(unsigned nbits) {
    if (avail_ < nbits) refill();
    return buf_ & detail::low_mask(nbits);
  }

  /// Drops `nbits` (<= kMaxPeekBits) bits; throws CorruptError if fewer
  /// remain in the stream.
  void consume(unsigned nbits) {
    if (avail_ < nbits) {
      refill();
      SZSEC_CHECK_FORMAT(nbits <= avail_, "bitstream exhausted");
    }
    buf_ >>= nbits;
    avail_ -= nbits;
  }

  unsigned get_bit() { return static_cast<unsigned>(get_bits(1)); }

  /// Reads `nbits` bits; the first bit read is the result's lowest bit.
  uint64_t get_bits(unsigned nbits) {
    SZSEC_REQUIRE(nbits <= 64, "at most 64 bits per call");
    if (nbits > 32) {
      const uint64_t lo = get_bits(32);
      return lo | (get_bits(nbits - 32) << 32);
    }
    const uint64_t v = peek(nbits);
    consume(nbits);
    return v;
  }

  void align_to_byte() {
    buf_ >>= avail_ & 7u;
    avail_ &= ~7u;
  }

  /// Returns the next `n` whole bytes; requires byte alignment.
  BytesView get_bytes(size_t n) {
    SZSEC_REQUIRE((avail_ & 7) == 0, "get_bytes requires byte alignment");
    const size_t byte = next_byte_ - avail_ / 8;
    SZSEC_CHECK_FORMAT(n <= data_.size() - byte, "bitstream exhausted");
    next_byte_ = byte + n;
    buf_ = 0;
    avail_ = 0;
    return data_.subspan(byte, n);
  }

  size_t bits_remaining() const {
    return (data_.size() - next_byte_) * 8 + avail_;
  }

 private:
  // Tops the buffer up to at least kMaxPeekBits bits, or to the end of
  // the data.  Bits above avail_ are either zero or the true stream bits
  // at those positions (a wide load reads ahead), so OR-ing the same
  // bytes in again is harmless.
  void refill() {
    if (data_.size() - next_byte_ >= 8) {
      buf_ |= detail::load_le64(data_.data() + next_byte_) << avail_;
      next_byte_ += (63 - avail_) >> 3;
      avail_ |= kMaxPeekBits;
    } else {
      while (avail_ <= kMaxPeekBits && next_byte_ < data_.size()) {
        buf_ |= static_cast<uint64_t>(data_[next_byte_++]) << avail_;
        avail_ += 8;
      }
    }
  }

  BytesView data_;
  size_t next_byte_ = 0;  ///< first byte not yet in buf_
  uint64_t buf_ = 0;
  unsigned avail_ = 0;  ///< valid stream bits in the low end of buf_
};

}  // namespace szsec
