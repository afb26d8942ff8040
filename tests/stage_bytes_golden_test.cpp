// Byte pins for stage 3 (Huffman packing) and stage 4 (zlite deflate) at
// sizes golden_container_test never reaches.  Its 12x16x20 field fits in
// one zlite block, never wraps the 32 KiB window and never walks a hash
// chain to its kMaxChain limit; every input here is at least 600 KiB, so
// each one crosses the 256 KiB block boundary, wraps the window many
// times over, and (for the short-period stream) exhausts the chain.
//
// The digests were captured from the bit-at-a-time BitWriter/LsbBitReader
// and the scan-based zlite matcher, before either was rewritten to work a
// machine word at a time.  The word-at-a-time implementation must emit the
// same bytes, so any change to match selection, block-type choice, code
// construction or bit packing fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "common/hex.h"
#include "core/codec.h"
#include "crypto/sha256.h"
#include "data/fieldgen.h"
#include "huffman/huffman.h"
#include "sz/pipeline.h"
#include "zlite/zlite.h"

namespace szsec {
namespace {

constexpr size_t kMinPinBytes = 600 * 1024;

std::string digest(BytesView bytes) {
  const auto d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d));
}

// The exact bytes stage 4 receives for `field` under Scheme::kNone: the
// Huffman-coded quantization array, unpredictable values and side info.
Bytes stage4_payload(const std::vector<float>& field, const Dims& dims,
                     double abs_error_bound) {
  sz::Params params;
  params.abs_error_bound = abs_error_bound;
  const sz::QuantizedField q =
      sz::predict_quantize(std::span<const float>(field), dims, params);
  const sz::EncodedQuant enc = sz::huffman_encode_codes(q);
  core::codec::PayloadView pv;
  pv.tree_or_cipher = BytesView(enc.tree);
  pv.codewords = BytesView(enc.codewords);
  pv.symbol_count = enc.symbol_count;
  pv.unpredictable = BytesView(q.unpredictable);
  pv.unpredictable_count = q.unpredictable_count;
  pv.side_info = BytesView(q.side_info);
  return core::codec::assemble_payload(core::Scheme::kNone, pv);
}

// Smooth structure plus noise near the error bound (the T/Nyx regime).
Bytes smooth_payload() {
  const Dims dims{96, 128, 128};
  std::vector<float> f = data::smooth_noise(dims, 101, 6);
  const std::vector<float> n = data::white_noise(dims, 102);
  for (size_t i = 0; i < f.size(); ++i) f[i] = 10.0f * f[i] + 2e-3f * n[i];
  return stage4_payload(f, dims, 1e-3);
}

// Sparse plume: squared excess of smooth noise over its 82nd percentile,
// exact zeros elsewhere (the CLOUDf48/QI regime).
Bytes sparse_payload() {
  const Dims dims{64, 128, 128};
  std::vector<float> f = data::smooth_noise(dims, 201, 4);
  std::vector<float> sorted = f;
  const size_t q = sorted.size() * 82 / 100;
  std::nth_element(sorted.begin(), sorted.begin() + q, sorted.end());
  const float cut = sorted[q];
  for (float& v : f) v = v > cut ? 1e3f * (v - cut) * (v - cut) : 0.0f;
  return stage4_payload(f, dims, 1e-6);
}

// Runs of zeros, text-like bytes, 512-back repeats and noise (the
// zlib_interop_test generator).
Bytes mixed_payload(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes data(n);
  size_t i = 0;
  while (i < n) {
    const int kind = rng() % 4;
    const size_t run = 1 + rng() % 200;
    for (size_t j = 0; j < run && i < n; ++j, ++i) {
      switch (kind) {
        case 0:
          data[i] = 0;
          break;
        case 1:
          data[i] = static_cast<uint8_t>('a' + rng() % 26);
          break;
        case 2:
          data[i] = data[i > 512 ? i - 512 : 0];
          break;
        default:
          data[i] = static_cast<uint8_t>(rng());
      }
    }
  }
  return data;
}

// A period-7 pattern with about one byte in 16 replaced: every position
// has hundreds of same-hash candidates and none reaches the 258-byte
// cap, so every search walks the full kMaxChain.
Bytes short_period_payload(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  static constexpr uint8_t kPattern[7] = {'s', 'z', 's', 'e', 'c', 0, 0xFF};
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = rng() % 16 == 0 ? static_cast<uint8_t>(rng() % 4)
                              : kPattern[i % 7];
  }
  return data;
}

struct DeflatePins {
  const char* stored;
  const char* fast;
  const char* lazy;
};

void expect_deflate_pins(const Bytes& input, const DeflatePins& pins) {
  ASSERT_GE(input.size(), kMinPinBytes);
  const BytesView in(input);
  EXPECT_EQ(digest(BytesView(zlite::deflate(in, zlite::Level::kStored))),
            pins.stored);
  EXPECT_EQ(digest(BytesView(zlite::deflate(in, zlite::Level::kFast))),
            pins.fast);
  const Bytes packed = zlite::deflate(in, zlite::Level::kDefault);
  EXPECT_EQ(digest(BytesView(packed)), pins.lazy);
  EXPECT_EQ(zlite::inflate(BytesView(packed), 0, input.size()), input);
}

TEST(StageBytesGolden, DeflateSmoothPayload) {
  const Bytes input = smooth_payload();
  EXPECT_EQ(digest(BytesView(input)),
            "b24f908ca2421131caf3287a2138826f5d670057cffed89fe6f424774c21edd3");
  expect_deflate_pins(
      input,
      {"76b4f13ea2976e381769bf6ad881a5c3d4fb7f8fb8ff2a4925c70953305c6844",
       "1b20e76978161c2d21878e668467ee579ed169a55520c3921d2132444ebb95b1",
       "9e34eacc17dd80da83147286a29f622f53629f85d4a907e685da87b0a2ebd3af"});
}

TEST(StageBytesGolden, DeflateSparsePayload) {
  const Bytes input = sparse_payload();
  EXPECT_EQ(digest(BytesView(input)),
            "cd7a7dfbb95e6af73d3a72f36a80f58c2a1cab9d6697fe8ba2fcb5f3b371a965");
  expect_deflate_pins(
      input,
      {"5cf18ebb320f17a5df99a118c2998c4f45eb47c1b7761a3a4f4735733fc9b76c",
       "2ffa8ebce3aa0781d4e8eca768df2c4060112815db041674c92df54748cdcd99",
       "49f7fc9c7b8e6839dbe81d1414227b55babb3676a5467aeacef386f82207f7d9"});
}

TEST(StageBytesGolden, DeflateMixedStream) {
  expect_deflate_pins(
      mixed_payload(700 * 1024, 13),
      {"c2466b319022251a3ac638217420c20ff4ec80c9485d172bdf89e162da95957e",
       "82acb9619408e19a7f19dca94f7107f4945fc95774630b34cb548cb7d0c413ee",
       "07f325cc30703b756c9bdcade894e6762c2b43ab02a408c813ab4af22901d20e"});
}

TEST(StageBytesGolden, DeflateShortPeriodStream) {
  expect_deflate_pins(
      short_period_payload(640 * 1024, 29),
      {"a0b8ff025f826137abf26b3d9e6612f0ad67c7195c3af1c2e94b40fc2543cb63",
       "42a4dcd012f56619017114b0421478250f3784d999053e158aa39b66f99c0bd0",
       "84d41afdaf145a3562144d7472d867a1dc34cd6a80e365cbc6d24b98eaf177cd"});
}

TEST(StageBytesGolden, HuffmanEncodeSymbolStream) {
  // Geometric-ish spread around a centre bin, as quantization codes are,
  // plus a sprinkling of rare far bins for long codewords.
  // The trailing-zero count of a uniform word is geometric with p = 1/2
  // on every standard library, unlike std::geometric_distribution.
  std::mt19937_64 rng(61);
  const auto geo = [&rng] {
    return static_cast<uint32_t>(std::countr_zero(rng() | (1ull << 40)));
  };
  std::vector<uint32_t> symbols(1 << 20);
  for (auto& s : symbols) {
    if (rng() % 512 == 0) {
      s = static_cast<uint32_t>(rng() % 65536);
    } else {
      s = rng() & 1 ? 32768 + geo() : 32768 - geo();
    }
  }
  std::vector<uint64_t> freq(65536, 0);
  for (uint32_t s : symbols) ++freq[s];
  const huffman::CodeTable table = huffman::build_code_table(freq);
  const Bytes bits = huffman::encode(table, symbols);
  EXPECT_EQ(digest(BytesView(bits)),
            "ed2d78980a2297bfcafc6383a9dce3ae369b453a53352af3accb7ccce608a004");
  EXPECT_EQ(huffman::decode(table, BytesView(bits), symbols.size()), symbols);
}

}  // namespace
}  // namespace szsec
