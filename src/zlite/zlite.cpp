#include "zlite/zlite.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <queue>

#include "common/bitstream.h"
#include "common/error.h"

namespace szsec::zlite {

namespace {

// ---------------------------------------------------------------------------
// RFC 1951 constants.
// ---------------------------------------------------------------------------

constexpr size_t kWindowSize = 32 * 1024;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 258;
constexpr int kNumLitCodes = 286;   // 0..255 literals, 256 EOB, 257..285 len
constexpr int kNumDistCodes = 30;
constexpr int kNumClCodes = 19;
constexpr unsigned kMaxLitBits = 15;
constexpr unsigned kMaxClBits = 7;
constexpr int kEob = 256;

constexpr uint16_t kLenBase[29] = {3,   4,   5,   6,   7,   8,   9,   10,
                                   11,  13,  15,  17,  19,  23,  27,  31,
                                   35,  43,  51,  59,  67,  83,  99,  115,
                                   131, 163, 195, 227, 258};
constexpr uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2,
                                   2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5,
                                   0};
constexpr uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                    4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                    9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
constexpr uint8_t kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                  11, 4,  12, 3, 13, 2, 14, 1, 15};

// Length and distance symbol lookups.  The tables are generated from
// kLenBase/kDistBase by the same "largest base not above the value" rule
// a linear scan applies.  Distances above 256 share their code within
// each 128-wide bucket (every base there is 1 + a multiple of 128), so a
// 256-entry table indexed by (dist - 1) >> 7 covers 257..32768.
constexpr auto kLengthCode = [] {
  std::array<uint8_t, kMaxMatch + 1> t{};
  for (size_t len = kMinMatch; len <= kMaxMatch; ++len) {
    uint8_t c = 0;
    while (c + 1 < 29 && kLenBase[c + 1] <= len) ++c;
    t[len] = c;
  }
  return t;
}();

constexpr uint8_t scan_dist_code(size_t dist) {
  uint8_t c = 0;
  while (c + 1 < 30 && kDistBase[c + 1] <= dist) ++c;
  return c;
}

constexpr auto kDistCodeLow = [] {
  std::array<uint8_t, 257> t{};
  for (size_t d = 1; d <= 256; ++d) t[d] = scan_dist_code(d);
  return t;
}();

constexpr auto kDistCodeHigh = [] {
  std::array<uint8_t, kWindowSize / 128> t{};
  for (size_t b = 2; b < t.size(); ++b) t[b] = scan_dist_code(b * 128 + 1);
  return t;
}();

int length_code(size_t len) { return kLengthCode[len]; }

int dist_code(size_t dist) {
  return dist <= 256 ? kDistCodeLow[dist] : kDistCodeHigh[(dist - 1) >> 7];
}

uint32_t bit_reverse(uint32_t code, unsigned len) {
  uint32_t r = 0;
  for (unsigned i = 0; i < len; ++i) {
    r = (r << 1) | (code & 1);
    code >>= 1;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Length-limited canonical Huffman for the encoder.
// ---------------------------------------------------------------------------

// Computes Huffman code lengths for `freq`, capped to `limit` by frequency
// halving.  Symbols with zero frequency get length 0.
std::vector<uint8_t> limited_lengths(std::span<const uint64_t> freq,
                                     unsigned limit) {
  std::vector<uint64_t> f(freq.begin(), freq.end());
  std::vector<uint8_t> lengths(f.size(), 0);
  while (true) {
    struct Node {
      uint64_t w;
      uint32_t id;
      int32_t l = -1, r = -1;
      int32_t sym = -1;
    };
    std::vector<Node> nodes;
    for (size_t s = 0; s < f.size(); ++s) {
      if (f[s] > 0) {
        nodes.push_back({f[s], static_cast<uint32_t>(nodes.size()), -1, -1,
                         static_cast<int32_t>(s)});
      }
    }
    std::fill(lengths.begin(), lengths.end(), 0);
    if (nodes.empty()) return lengths;
    if (nodes.size() == 1) {
      lengths[nodes[0].sym] = 1;
      return lengths;
    }
    auto cmp = [&nodes](int32_t a, int32_t b) {
      if (nodes[a].w != nodes[b].w) return nodes[a].w > nodes[b].w;
      return nodes[a].id > nodes[b].id;
    };
    std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> heap(
        cmp);
    for (size_t i = 0; i < nodes.size(); ++i) {
      heap.push(static_cast<int32_t>(i));
    }
    while (heap.size() > 1) {
      int32_t a = heap.top();
      heap.pop();
      int32_t b = heap.top();
      heap.pop();
      nodes.push_back({nodes[a].w + nodes[b].w,
                       static_cast<uint32_t>(nodes.size()), a, b, -1});
      heap.push(static_cast<int32_t>(nodes.size() - 1));
    }
    unsigned max_len = 0;
    std::vector<std::pair<int32_t, unsigned>> stack{
        {heap.top(), 0u}};
    while (!stack.empty()) {
      auto [idx, depth] = stack.back();
      stack.pop_back();
      const Node& n = nodes[idx];
      if (n.sym >= 0) {
        lengths[n.sym] = static_cast<uint8_t>(depth);
        max_len = std::max(max_len, depth);
      } else {
        stack.push_back({n.l, depth + 1});
        stack.push_back({n.r, depth + 1});
      }
    }
    if (max_len <= limit) return lengths;
    for (auto& x : f) {
      if (x > 1) x = (x + 1) / 2;  // keep nonzero symbols alive
    }
  }
}

// Canonical codewords (already bit-reversed for LSB-first emission).
std::vector<uint32_t> canonical_codes(std::span<const uint8_t> lengths,
                                      unsigned max_bits) {
  std::vector<uint32_t> count(max_bits + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::vector<uint32_t> next(max_bits + 1, 0);
  uint32_t code = 0;
  for (unsigned l = 1; l <= max_bits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) codes[s] = bit_reverse(next[lengths[s]]++, lengths[s]);
  }
  return codes;
}

// ---------------------------------------------------------------------------
// LZ77 tokenizer with hash chains (zlib-style).
// ---------------------------------------------------------------------------

struct Token {
  uint32_t dist;  // 0 => literal
  uint16_t len;   // literal byte if dist == 0
};

class Matcher {
 public:
  explicit Matcher(BytesView data, Level level)
      : data_(data),
        level_(level),
        head_(kHashSize, -1),
        prev_(kWindowSize, -1) {}

  // Tokenizes data[begin, end) appending to `out`.
  void tokenize(size_t begin, size_t end, std::vector<Token>& out) {
    rebase(begin >= kWindowSize ? begin - kWindowSize : 0);
    size_t pos = begin;
    // Lazy-match state: a pending match from the previous position.
    bool have_prev = false;
    size_t prev_len = 0, prev_dist = 0;

    while (pos < end) {
      size_t len = 0, dist = 0;
      if (level_ != Level::kStored && pos + kMinMatch <= data_.size()) {
        // Matches must not cross the chunk end: each emit_block() pairs the
        // token list with exactly data[begin, end).
        find_match(pos, end - pos, len, dist);
      }
      if (level_ == Level::kDefault) {
        // Lazy evaluation: emit the previous match only if the current one
        // isn't strictly better.
        if (have_prev) {
          if (len > prev_len) {
            // Previous position becomes a literal; keep searching from here.
            out.push_back({0, data_[pos - 1]});
          } else {
            out.push_back({static_cast<uint32_t>(prev_dist),
                           static_cast<uint16_t>(prev_len)});
            // Skip over the matched bytes (minus the one lookahead already
            // consumed), inserting hash entries along the way.
            const size_t match_end = (pos - 1) + prev_len;
            while (pos < match_end && pos < end) {
              insert_hash(pos);
              ++pos;
            }
            have_prev = false;
            continue;
          }
          have_prev = false;
        }
        if (len >= kMinMatch && pos + 1 < end) {
          // Defer: look one byte ahead before committing.
          have_prev = true;
          prev_len = len;
          prev_dist = dist;
          insert_hash(pos);
          ++pos;
          continue;
        }
      }
      if (len >= kMinMatch) {
        out.push_back(
            {static_cast<uint32_t>(dist), static_cast<uint16_t>(len)});
        const size_t match_end = pos + len;
        while (pos < match_end && pos < end) {
          insert_hash(pos);
          ++pos;
        }
      } else {
        out.push_back({0, data_[pos]});
        insert_hash(pos);
        ++pos;
      }
    }
    if (have_prev) {
      // Flush a deferred match that reached the chunk boundary.
      out.push_back({static_cast<uint32_t>(prev_dist),
                     static_cast<uint16_t>(prev_len)});
      // The hash entries for its tail don't matter past `end`.
    }
  }

 private:
  static constexpr size_t kHashBits = 15;
  static constexpr size_t kHashSize = 1u << kHashBits;
  static constexpr size_t kRingMask = kWindowSize - 1;
  static constexpr int kMaxChain = 128;

  // The first three bytes at `pos` as a little-endian integer, assembled
  // from byte loads.  (A 3-byte memcpy into a stack word compiles to two
  // partial stores and a 4-byte reload, which stalls on store forwarding
  // twice per input byte.)
  uint32_t hash_at(size_t pos) const {
    const uint8_t* p = data_.data() + pos;
    const uint32_t h = p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16);
    return (h * 2654435761u) >> (32 - kHashBits);
  }

  void insert_hash(size_t pos) {
    if (pos + kMinMatch > data_.size()) return;
    const uint32_t h = hash_at(pos);
    prev_[pos & kRingMask] = head_[h];
    head_[h] = static_cast<int32_t>(pos - base_);
  }

  // Chain entries are positions relative to base_ so they fit in 32 bits
  // for any input size.  Each chunk moves base_ up to one window before
  // its start; entries older than that can never be a match candidate
  // again and become -1, which ends a chain exactly where the window
  // check would.
  void rebase(size_t base) {
    const int64_t shift = static_cast<int64_t>(base - base_);
    if (shift == 0) return;
    const auto slide = [shift](int32_t& e) {
      e = e >= shift ? static_cast<int32_t>(e - shift) : -1;
    };
    std::for_each(head_.begin(), head_.end(), slide);
    std::for_each(prev_.begin(), prev_.end(), slide);
    base_ = base;
  }

  // Length of the common prefix of data[a..] and data[b..], capped at
  // `max_len` (which must not run either past the data end).  Compares
  // eight bytes per step; the first differing byte of the XOR is its
  // lowest set byte on a little-endian load.
  size_t match_length(size_t a, size_t b, size_t max_len) const {
    const uint8_t* pa = data_.data() + a;
    const uint8_t* pb = data_.data() + b;
    size_t l = 0;
    while (l + 8 <= max_len) {
      const uint64_t x = detail::load_le64(pa + l) ^ detail::load_le64(pb + l);
      if (x != 0) return l + (std::countr_zero(x) >> 3);
      l += 8;
    }
    while (l < max_len && pa[l] == pb[l]) ++l;
    return l;
  }

  void find_match(size_t pos, size_t limit, size_t& best_len,
                  size_t& best_dist) const {
    best_len = 0;
    best_dist = 0;
    const size_t max_len =
        std::min({kMaxMatch, data_.size() - pos, limit});
    if (max_len < kMinMatch) return;
    int32_t cand = head_[hash_at(pos)];
    int chain = kMaxChain;
    const size_t min_pos = pos >= kWindowSize ? pos - kWindowSize : 0;
    const int32_t min_rel = static_cast<int32_t>(min_pos - base_);
    while (cand >= min_rel && chain-- > 0) {
      const size_t c = base_ + static_cast<size_t>(cand);
      if (c < pos) {
        // Quick reject on the byte that would extend the current best.
        if (best_len == 0 ||
            data_[c + best_len] == data_[pos + best_len]) {
          const size_t l = match_length(c, pos, max_len);
          if (l > best_len) {
            best_len = l;
            best_dist = pos - c;
            if (l >= max_len) break;
          }
        }
      }
      cand = prev_[c & kRingMask];
    }
    if (best_len < kMinMatch) {
      best_len = 0;
      best_dist = 0;
    }
  }

  BytesView data_;
  Level level_;
  size_t base_ = 0;
  std::vector<int32_t> head_;
  std::vector<int32_t> prev_;  // ring indexed by pos mod kWindowSize
};

// ---------------------------------------------------------------------------
// Block emission.
// ---------------------------------------------------------------------------

struct BlockCodes {
  std::vector<uint8_t> lit_len, dist_len;
  std::vector<uint32_t> lit_code, dist_code;
};

// Fixed Huffman code per RFC 1951 3.2.6.
const BlockCodes& fixed_codes() {
  static const BlockCodes codes = [] {
    BlockCodes c;
    c.lit_len.resize(288);
    for (int i = 0; i <= 143; ++i) c.lit_len[i] = 8;
    for (int i = 144; i <= 255; ++i) c.lit_len[i] = 9;
    for (int i = 256; i <= 279; ++i) c.lit_len[i] = 7;
    for (int i = 280; i <= 287; ++i) c.lit_len[i] = 8;
    c.dist_len.assign(30, 5);
    c.lit_code = canonical_codes(c.lit_len, kMaxLitBits);
    c.dist_code = canonical_codes(c.dist_len, kMaxLitBits);
    return c;
  }();
  return codes;
}

// RLE of the combined lit+dist code-length array using symbols 16/17/18.
struct ClSymbol {
  uint8_t sym;
  uint8_t extra_val;
};

std::vector<ClSymbol> rle_code_lengths(std::span<const uint8_t> lengths) {
  std::vector<ClSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const uint8_t l = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == l) ++run;
    if (l == 0) {
      size_t left = run;
      while (left >= 11) {
        const size_t n = std::min<size_t>(left, 138);
        out.push_back({18, static_cast<uint8_t>(n - 11)});
        left -= n;
      }
      while (left >= 3) {
        const size_t n = std::min<size_t>(left, 10);
        out.push_back({17, static_cast<uint8_t>(n - 3)});
        left -= n;
      }
      while (left-- > 0) out.push_back({0, 0});
    } else {
      out.push_back({l, 0});
      size_t left = run - 1;
      while (left >= 3) {
        const size_t n = std::min<size_t>(left, 6);
        out.push_back({16, static_cast<uint8_t>(n - 3)});
        left -= n;
      }
      while (left-- > 0) out.push_back({l, 0});
    }
    i += run;
  }
  return out;
}

void emit_tokens(LsbBitWriter& w, const std::vector<Token>& tokens,
                 const BlockCodes& c) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      w.put_bits(c.lit_code[t.len], c.lit_len[t.len]);
    } else {
      // Each code is at most 15 bits and is followed by at most 13 extra
      // bits, so code and extra bits go out in one put_bits call.
      const int lc = length_code(t.len);
      const unsigned lbits = c.lit_len[257 + lc];
      w.put_bits(c.lit_code[257 + lc] |
                     (static_cast<uint64_t>(t.len - kLenBase[lc]) << lbits),
                 lbits + kLenExtra[lc]);
      const int dc = dist_code(t.dist);
      const unsigned dbits = c.dist_len[dc];
      w.put_bits(c.dist_code[dc] | (uint64_t{t.dist - kDistBase[dc]} << dbits),
                 dbits + kDistExtra[dc]);
    }
  }
  w.put_bits(c.lit_code[kEob], c.lit_len[kEob]);
}

// Bit cost of a block's tokens (EOB included) from its symbol histograms.
size_t histogram_cost_bits(std::span<const uint64_t> lit_freq,
                           std::span<const uint64_t> dist_freq,
                           std::span<const uint8_t> lit_len,
                           std::span<const uint8_t> dist_len) {
  size_t bits = 0;
  for (size_t s = 0; s < lit_freq.size(); ++s) {
    const unsigned extra = s > 256 ? kLenExtra[s - 257] : 0;
    bits += lit_freq[s] * (lit_len[s] + extra);
  }
  for (size_t d = 0; d < dist_freq.size(); ++d) {
    bits += dist_freq[d] * (dist_len[d] + kDistExtra[d]);
  }
  return bits;
}

void emit_stored(LsbBitWriter& w, BytesView raw, bool final_block) {
  size_t off = 0;
  do {
    const size_t n = std::min<size_t>(raw.size() - off, 65535);
    const bool last = final_block && (off + n == raw.size());
    w.put_bits(last ? 1 : 0, 1);
    w.put_bits(0, 2);  // BTYPE=00
    w.align_to_byte();
    w.put_bits(n, 16);
    w.put_bits(~n & 0xFFFF, 16);
    w.put_bytes(raw.subspan(off, n));
    off += n;
  } while (off < raw.size());
}

void emit_block(LsbBitWriter& w, BytesView raw,
                const std::vector<Token>& tokens, bool final_block) {
  // Build dynamic code.
  std::vector<uint64_t> lit_freq(kNumLitCodes, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++lit_freq[t.len];
    } else {
      ++lit_freq[257 + length_code(t.len)];
      ++dist_freq[dist_code(t.dist)];
    }
  }
  ++lit_freq[kEob];

  std::vector<uint8_t> lit_len = limited_lengths(lit_freq, kMaxLitBits);
  std::vector<uint8_t> dist_len = limited_lengths(dist_freq, kMaxLitBits);
  // DEFLATE requires at least one distance code to be describable.
  if (std::all_of(dist_len.begin(), dist_len.end(),
                  [](uint8_t l) { return l == 0; })) {
    dist_len[0] = 1;
  }

  // Trim trailing zero lengths (but respect the format minimums).
  int nlit = kNumLitCodes;
  while (nlit > 257 && lit_len[nlit - 1] == 0) --nlit;
  int ndist = kNumDistCodes;
  while (ndist > 1 && dist_len[ndist - 1] == 0) --ndist;

  // Code-length alphabet.
  std::vector<uint8_t> combined(lit_len.begin(), lit_len.begin() + nlit);
  combined.insert(combined.end(), dist_len.begin(), dist_len.begin() + ndist);
  const auto cl_syms = rle_code_lengths(combined);
  std::vector<uint64_t> cl_freq(kNumClCodes, 0);
  for (const ClSymbol& s : cl_syms) ++cl_freq[s.sym];
  std::vector<uint8_t> cl_len = limited_lengths(cl_freq, kMaxClBits);
  const auto cl_code = canonical_codes(cl_len, kMaxClBits);

  int ncl = kNumClCodes;
  while (ncl > 4 && cl_len[kClOrder[ncl - 1]] == 0) --ncl;

  // Cost comparison: dynamic vs fixed vs stored.
  size_t header_bits = 14 + 3u * ncl;
  for (const ClSymbol& s : cl_syms) {
    header_bits += cl_len[s.sym];
    if (s.sym == 16) header_bits += 2;
    if (s.sym == 17) header_bits += 3;
    if (s.sym == 18) header_bits += 7;
  }
  const size_t dyn_bits =
      3 + header_bits +
      histogram_cost_bits(lit_freq, dist_freq, lit_len, dist_len);
  const auto& fx = fixed_codes();
  const size_t fix_bits =
      3 + histogram_cost_bits(lit_freq, dist_freq, fx.lit_len, fx.dist_len);
  const size_t stored_bits =
      (raw.size() + (raw.size() + 65534) / 65535 * 5 + 4) * 8;

  if (stored_bits < dyn_bits && stored_bits < fix_bits) {
    emit_stored(w, raw, final_block);
    return;
  }

  w.put_bits(final_block ? 1 : 0, 1);
  if (fix_bits <= dyn_bits) {
    w.put_bits(1, 2);  // BTYPE=01 fixed
    emit_tokens(w, tokens, fx);
    return;
  }

  w.put_bits(2, 2);  // BTYPE=10 dynamic
  w.put_bits(nlit - 257, 5);
  w.put_bits(ndist - 1, 5);
  w.put_bits(ncl - 4, 4);
  for (int i = 0; i < ncl; ++i) w.put_bits(cl_len[kClOrder[i]], 3);
  for (const ClSymbol& s : cl_syms) {
    w.put_bits(cl_code[s.sym], cl_len[s.sym]);
    if (s.sym == 16) w.put_bits(s.extra_val, 2);
    if (s.sym == 17) w.put_bits(s.extra_val, 3);
    if (s.sym == 18) w.put_bits(s.extra_val, 7);
  }
  BlockCodes dyn;
  dyn.lit_len = std::move(lit_len);
  dyn.dist_len = std::move(dist_len);
  dyn.lit_code = canonical_codes(dyn.lit_len, kMaxLitBits);
  dyn.dist_code = canonical_codes(dyn.dist_len, kMaxLitBits);
  emit_tokens(w, tokens, dyn);
}

// ---------------------------------------------------------------------------
// Inflate.
// ---------------------------------------------------------------------------

// Canonical (MSB-first code value) decoder over an LSB-first bit stream.
// Codes of up to kTableBits bits resolve with one lookup on the next
// kTableBits stream bits; longer codes, and bit patterns no code covers,
// take the canonical walk.
class CanonicalDecoder {
 public:
  CanonicalDecoder(std::span<const uint8_t> lengths, unsigned max_bits)
      : max_bits_(max_bits) {
    count_.assign(max_bits + 1, 0);
    for (uint8_t l : lengths) {
      SZSEC_CHECK_FORMAT(l <= max_bits, "code length exceeds limit");
      if (l > 0) ++count_[l];
    }
    first_code_.assign(max_bits + 2, 0);
    first_index_.assign(max_bits + 2, 0);
    uint32_t code = 0, index = 0;
    uint64_t kraft = 0;
    for (unsigned l = 1; l <= max_bits; ++l) {
      code = (code + count_[l - 1]) << 1;
      first_code_[l] = code;
      first_index_[l] = index;
      index += count_[l];
      kraft += static_cast<uint64_t>(count_[l]) << (max_bits - l);
    }
    SZSEC_CHECK_FORMAT(kraft <= (uint64_t{1} << max_bits),
                       "over-subscribed Huffman code");
    sorted_.reserve(index);
    for (unsigned l = 1; l <= max_bits; ++l) {
      for (size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] == l) sorted_.push_back(static_cast<uint32_t>(s));
      }
    }
    // A code of length l <= kTableBits owns every table slot whose low l
    // bits are its (bit-reversed) codeword.  The code is prefix-free, so
    // no two codes claim the same slot.
    table_.fill(Entry{});
    for (unsigned l = 1; l <= std::min(max_bits, kTableBits); ++l) {
      for (uint32_t i = 0; i < count_[l]; ++i) {
        const uint32_t rev = bit_reverse(first_code_[l] + i, l);
        const Entry e{static_cast<uint16_t>(sorted_[first_index_[l] + i]),
                      static_cast<uint8_t>(l)};
        for (uint32_t slot = rev; slot < table_.size(); slot += 1u << l) {
          table_[slot] = e;
        }
      }
    }
  }

  uint32_t decode(LsbBitReader& r) const {
    const uint64_t bits = r.peek(kMaxLitBits);
    const Entry e = table_[bits & (table_.size() - 1)];
    if (e.len != 0) {
      r.consume(e.len);
      return e.sym;
    }
    return decode_walk(r, bits);
  }

 private:
  static constexpr unsigned kTableBits = 10;

  struct Entry {
    uint16_t sym = 0;
    uint8_t len = 0;  ///< 0: no code of <= kTableBits bits matches
  };

  // Bit-at-a-time canonical decode over `bits`, the next kMaxLitBits
  // stream bits (zero past the end).  consume() throws if the code found
  // runs past the end, and a pattern no code matches throws as "exhausted"
  // when the stream ended first, just as reading bit by bit would.
  uint32_t decode_walk(LsbBitReader& r, uint64_t bits) const {
    uint32_t code = 0;
    for (unsigned len = 1; len <= max_bits_; ++len) {
      code = (code << 1) | static_cast<uint32_t>((bits >> (len - 1)) & 1);
      if (count_[len] != 0 && code - first_code_[len] < count_[len]) {
        r.consume(len);
        return sorted_[first_index_[len] + (code - first_code_[len])];
      }
    }
    SZSEC_CHECK_FORMAT(r.bits_remaining() >= max_bits_, "bitstream exhausted");
    throw CorruptError("corrupt: invalid Huffman code in stream");
  }

  unsigned max_bits_;
  std::vector<uint32_t> count_, first_code_, first_index_;
  std::vector<uint32_t> sorted_;
  std::array<Entry, size_t{1} << kTableBits> table_;
};

// The fixed-code decoders, built once.
const CanonicalDecoder& fixed_lit_decoder() {
  static const CanonicalDecoder d(fixed_codes().lit_len, kMaxLitBits);
  return d;
}

const CanonicalDecoder& fixed_dist_decoder() {
  static const CanonicalDecoder d(fixed_codes().dist_len, kMaxLitBits);
  return d;
}

// Inflate output cursor over `out`: the vector's size is the writable
// extent and `n_` the bytes produced.  Every write first checks the
// max_size cap, and growth reserves exactly, never past max_size, so a
// stream that claims more output than the cap allows throws before
// anything beyond the cap is allocated.  The destructor trims `out` to
// what was produced, also when decoding throws.
class Output {
 public:
  Output(Bytes& out, size_t max_size) : out_(out), max_(max_size) {
    out_.clear();
  }
  ~Output() { out_.resize(n_); }
  Output(const Output&) = delete;
  Output& operator=(const Output&) = delete;

  size_t size() const { return n_; }

  void append(BytesView raw) {
    std::copy(raw.begin(), raw.end(), claim(raw.size()));
    n_ += raw.size();
  }

  void put(uint8_t byte) {
    *claim(1) = byte;
    ++n_;
  }

  /// Appends the `len` bytes that start `d` bytes back (d <= size()).
  void copy_match(size_t d, size_t len) {
    uint8_t* dst = claim(len);
    const uint8_t* src = dst - d;
    if (d >= len) {
      std::memcpy(dst, src, len);
    } else if (d == 1) {
      std::memset(dst, *src, len);
    } else {
      // Overlapping: later source bytes are ones this copy writes.  An
      // 8-byte step reads only bytes already written when d >= 8.
      size_t i = 0;
      if (d >= 8) {
        for (; i + 8 <= len; i += 8) std::memcpy(dst + i, src + i, 8);
      }
      for (; i < len; ++i) dst[i] = src[i];
    }
    n_ += len;
  }

 private:
  // Room for `len` more bytes at the returned pointer.
  uint8_t* claim(size_t len) {
    SZSEC_CHECK_FORMAT(max_ == 0 || len <= max_ - n_,
                       "inflated output exceeds declared size cap");
    if (len > out_.size() - n_) grow(len);
    return out_.data() + n_;
  }

  // Capacity grows geometrically; the writable extent (which resize()
  // zero-fills, making its pages resident) runs at most kSlack past
  // what has been asked for.
  void grow(size_t len) {
    static constexpr size_t kSlack = 32 * 1024;
    const size_t need = n_ + len;
    if (need > out_.capacity()) {
      size_t cap = std::max({need, 2 * out_.capacity(), size_t{4096}});
      if (max_ != 0) cap = std::min(cap, max_);
      out_.reserve(cap);
    }
    out_.resize(std::min(out_.capacity(), need + kSlack));
  }

  Bytes& out_;
  size_t max_;
  size_t n_ = 0;
};

void inflate_tokens(LsbBitReader& r, const CanonicalDecoder& lit,
                    const CanonicalDecoder& dist, Output& out) {
  while (true) {
    const uint32_t sym = lit.decode(r);
    if (sym < 256) {
      out.put(static_cast<uint8_t>(sym));
    } else if (sym == kEob) {
      return;
    } else {
      SZSEC_CHECK_FORMAT(sym - 257 < 29, "bad length code");
      const int lc = static_cast<int>(sym - 257);
      const size_t len =
          kLenBase[lc] + static_cast<size_t>(r.get_bits(kLenExtra[lc]));
      const uint32_t dsym = dist.decode(r);
      SZSEC_CHECK_FORMAT(dsym < 30, "bad distance code");
      const size_t d =
          kDistBase[dsym] + static_cast<size_t>(r.get_bits(kDistExtra[dsym]));
      SZSEC_CHECK_FORMAT(d <= out.size(), "distance beyond output start");
      out.copy_match(d, len);
    }
  }
}

}  // namespace

Bytes deflate(BytesView data, Level level) {
  LsbBitWriter w;
  if (data.empty()) {
    // One empty stored final block.
    emit_stored(w, data, true);
    return w.finish();
  }
  if (level == Level::kStored) {
    emit_stored(w, data, true);
    return w.finish();
  }

  // Chunked compression: one block per kChunk of input bytes, so dynamic
  // Huffman codes adapt to local statistics (as zlib does).
  constexpr size_t kChunk = 256 * 1024;
  Matcher matcher(data, level);
  std::vector<Token> tokens;
  for (size_t off = 0; off < data.size(); off += kChunk) {
    const size_t end = std::min(data.size(), off + kChunk);
    tokens.clear();
    matcher.tokenize(off, end, tokens);
    emit_block(w, data.subspan(off, end - off), tokens,
               /*final_block=*/end == data.size());
  }
  return w.finish();
}

Bytes inflate(BytesView data, size_t size_hint, size_t max_size) {
  Bytes out;
  inflate_into(data, out, size_hint, max_size);
  return out;
}

void inflate_into(BytesView data, Bytes& out, size_t size_hint,
                  size_t max_size) {
  LsbBitReader r(data);
  Output o(out, max_size);
  const size_t want = max_size != 0 ? std::min(size_hint, max_size)
                                    : size_hint;
  if (want > out.capacity()) out.reserve(want);
  bool final_block = false;
  do {
    final_block = r.get_bit() != 0;
    const uint64_t btype = r.get_bits(2);
    if (btype == 0) {
      r.align_to_byte();
      const uint64_t len = r.get_bits(16);
      const uint64_t nlen = r.get_bits(16);
      SZSEC_CHECK_FORMAT((len ^ nlen) == 0xFFFF, "stored block LEN mismatch");
      o.append(r.get_bytes(static_cast<size_t>(len)));
    } else if (btype == 1) {
      inflate_tokens(r, fixed_lit_decoder(), fixed_dist_decoder(), o);
    } else if (btype == 2) {
      const int nlit = static_cast<int>(r.get_bits(5)) + 257;
      const int ndist = static_cast<int>(r.get_bits(5)) + 1;
      const int ncl = static_cast<int>(r.get_bits(4)) + 4;
      SZSEC_CHECK_FORMAT(nlit <= kNumLitCodes + 2 && ndist <= kNumDistCodes + 2,
                         "bad code counts");
      std::vector<uint8_t> cl_len(kNumClCodes, 0);
      for (int i = 0; i < ncl; ++i) {
        cl_len[kClOrder[i]] = static_cast<uint8_t>(r.get_bits(3));
      }
      const CanonicalDecoder cl(cl_len, kMaxClBits);
      std::vector<uint8_t> lengths;
      lengths.reserve(static_cast<size_t>(nlit + ndist));
      while (lengths.size() < static_cast<size_t>(nlit + ndist)) {
        const uint32_t s = cl.decode(r);
        if (s < 16) {
          lengths.push_back(static_cast<uint8_t>(s));
        } else if (s == 16) {
          SZSEC_CHECK_FORMAT(!lengths.empty(), "repeat with no previous");
          const uint8_t prev = lengths.back();
          const uint64_t n = 3 + r.get_bits(2);
          lengths.insert(lengths.end(), static_cast<size_t>(n), prev);
        } else if (s == 17) {
          const uint64_t n = 3 + r.get_bits(3);
          lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
        } else {
          const uint64_t n = 11 + r.get_bits(7);
          lengths.insert(lengths.end(), static_cast<size_t>(n), 0);
        }
      }
      SZSEC_CHECK_FORMAT(lengths.size() == static_cast<size_t>(nlit + ndist),
                         "code length overrun");
      const std::span<const uint8_t> lit_span(lengths.data(),
                                              static_cast<size_t>(nlit));
      const std::span<const uint8_t> dist_span(
          lengths.data() + nlit, static_cast<size_t>(ndist));
      const CanonicalDecoder lit(lit_span, kMaxLitBits);
      const CanonicalDecoder dist(dist_span, kMaxLitBits);
      inflate_tokens(r, lit, dist, o);
    } else {
      throw CorruptError("corrupt: reserved block type");
    }
  } while (!final_block);
}

}  // namespace szsec::zlite
