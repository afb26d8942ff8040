// zlite (DEFLATE-style codec) tests: round trips across data regimes and
// sizes, compression-effectiveness sanity, the random-data behaviour that
// drives the paper's Encr-Quant results, and corrupt-stream handling
// (every truncation of a mixed-block stream, the max_size bomb cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "zlite/zlite.h"

namespace szsec::zlite {
namespace {

void expect_round_trip(const Bytes& data, Level level = Level::kDefault) {
  const Bytes compressed = deflate(BytesView(data), level);
  const Bytes restored = inflate(BytesView(compressed), data.size());
  ASSERT_EQ(restored.size(), data.size());
  EXPECT_EQ(restored, data);
}

TEST(Zlite, EmptyInput) { expect_round_trip({}); }

TEST(Zlite, SingleByte) { expect_round_trip({0x42}); }

TEST(Zlite, ShortLiteralRun) {
  expect_round_trip({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
}

TEST(Zlite, AllLevels) {
  Bytes data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  expect_round_trip(data, Level::kStored);
  expect_round_trip(data, Level::kFast);
  expect_round_trip(data, Level::kDefault);
}

TEST(Zlite, HighlyRepetitiveCompressesHard) {
  const Bytes data(100000, 0x55);
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 100);
  expect_round_trip(data);
}

TEST(Zlite, PeriodicPatternUsesMatches) {
  Bytes data;
  const std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  while (data.size() < 50000) {
    data.insert(data.end(), phrase.begin(), phrase.end());
  }
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 10);
  expect_round_trip(data);
}

TEST(Zlite, RandomDataDoesNotExplode) {
  // Encrypted/random input must cost at most a few bytes per 64 KiB —
  // this is the property Encr-Quant leans on (its ciphertext passes
  // through this codec).
  crypto::CtrDrbg drbg(2024);
  const Bytes data = drbg.generate(256 * 1024);
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() + data.size() / 1000 + 64);
  expect_round_trip(data);
}

TEST(Zlite, MatchAcrossChunkBoundary) {
  // A repeat that spans the encoder's 256 KiB chunking must still decode.
  Bytes data(300 * 1024);
  std::mt19937_64 rng(7);
  for (size_t i = 0; i < 1024; ++i) data[i] = static_cast<uint8_t>(rng());
  for (size_t i = 1024; i < data.size(); ++i) data[i] = data[i - 1024];
  const Bytes compressed = deflate(BytesView(data));
  EXPECT_LT(compressed.size(), data.size() / 20);
  expect_round_trip(data);
}

TEST(Zlite, OverlappingMatchDistanceOne) {
  // dist=1, len>1 overlap copies are the classic inflate edge case.
  Bytes data = {'a'};
  data.insert(data.end(), 500, 'a');
  expect_round_trip(data);
}

TEST(Zlite, LongMatchesCapAt258) {
  Bytes data(5000, 'x');
  data[0] = 'y';
  expect_round_trip(data);
}

class ZliteSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZliteSizeTest, MixedContentRoundTrip) {
  std::mt19937_64 rng(GetParam());
  Bytes data(GetParam());
  // Mixture: runs, text-like bytes, and noise.
  size_t i = 0;
  while (i < data.size()) {
    const int kind = rng() % 3;
    const size_t run = 1 + rng() % 100;
    for (size_t j = 0; j < run && i < data.size(); ++j, ++i) {
      switch (kind) {
        case 0:
          data[i] = 0;
          break;
        case 1:
          data[i] = static_cast<uint8_t>('a' + rng() % 26);
          break;
        default:
          data[i] = static_cast<uint8_t>(rng());
      }
    }
  }
  expect_round_trip(data, Level::kFast);
  expect_round_trip(data, Level::kDefault);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZliteSizeTest,
                         ::testing::Values(1, 2, 100, 4095, 65535, 65536,
                                           65537, 262144, 1000000));

TEST(Zlite, StoredLevelIsByteExactOverhead) {
  const Bytes data(65535, 0xAA);
  const Bytes compressed = deflate(BytesView(data), Level::kStored);
  // One stored block: 1 byte header + 4 bytes LEN/NLEN.
  EXPECT_EQ(compressed.size(), data.size() + 5);
}

TEST(Zlite, TruncatedStreamThrows) {
  Bytes data(10000);
  std::mt19937_64 rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 7);
  const Bytes compressed = deflate(BytesView(data));
  for (size_t cut : {size_t{0}, size_t{1}, compressed.size() / 2,
                     compressed.size() - 1}) {
    EXPECT_THROW(inflate(BytesView(compressed).subspan(0, cut)), Error)
        << "cut=" << cut;
  }
}

TEST(Zlite, CorruptBlockTypeThrows) {
  Bytes stream = {0x07};  // BFINAL=1, BTYPE=11 (reserved)
  EXPECT_THROW(inflate(BytesView(stream)), CorruptError);
}

TEST(Zlite, StoredLenMismatchThrows) {
  // BFINAL=1 BTYPE=00, then LEN != ~NLEN.
  Bytes stream = {0x01, 0x05, 0x00, 0x00, 0x00};
  EXPECT_THROW(inflate(BytesView(stream)), CorruptError);
}

TEST(Zlite, BitflipEitherFailsOrChangesOutput) {
  // Flipping any bit of a compressed stream must never produce the
  // original data "successfully" — it throws or yields different bytes.
  Bytes data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 7) % 100);
  }
  const Bytes compressed = deflate(BytesView(data));
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes tampered = compressed;
    tampered[rng() % tampered.size()] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    try {
      const Bytes out = inflate(BytesView(tampered));
      EXPECT_NE(out, data) << "bit flip decoded to the original data";
    } catch (const Error&) {
      SUCCEED();
    }
  }
}

TEST(Zlite, MatchAtExactWindowDistance) {
  // A repeat exactly 32 KiB back sits on the window boundary.
  Bytes data;
  std::mt19937_64 rng(31);
  for (int i = 0; i < 512; ++i) data.push_back(static_cast<uint8_t>(rng()));
  data.resize(32 * 1024, 0x7E);
  for (int i = 0; i < 512; ++i) data.push_back(data[i]);  // dist = 32768
  expect_round_trip(data);
}

TEST(Zlite, RepeatJustBeyondWindowStillRoundTrips) {
  // The matcher cannot reference past 32 KiB; output is larger but must
  // stay correct.
  Bytes data;
  std::mt19937_64 rng(37);
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<uint8_t>(rng()));
  data.resize(33 * 1024, 0x00);
  for (int i = 0; i < 256; ++i) data.push_back(data[i]);
  expect_round_trip(data);
}

TEST(Zlite, MaxDistanceCodesDecodable) {
  // Hand-built stream exercise: all 30 distance codes via synthetic data
  // with matches at geometrically growing distances.
  Bytes data;
  std::mt19937_64 rng(41);
  const Bytes phrase = [&] {
    Bytes p(64);
    for (auto& b : p) b = static_cast<uint8_t>(rng());
    return p;
  }();
  for (size_t gap : {1u, 5u, 33u, 257u, 1025u, 4097u, 16385u, 24577u}) {
    data.insert(data.end(), phrase.begin(), phrase.end());
    for (size_t i = 0; i < gap; ++i) {
      data.push_back(static_cast<uint8_t>(rng()));
    }
    data.insert(data.end(), phrase.begin(), phrase.end());
  }
  expect_round_trip(data);
}

TEST(Zlite, DeflateIsDeterministic) {
  Bytes data(50000);
  std::mt19937_64 rng(17);
  for (auto& b : data) b = static_cast<uint8_t>(rng() % 31);
  EXPECT_EQ(deflate(BytesView(data)), deflate(BytesView(data)));
}

// Decompression-bomb guard: a stream expanding past max_size must throw
// before allocating the full output, for every block type.
TEST(Zlite, InflateMaxSizeCapsOutput) {
  Bytes data(100000, 0x41);  // hugely compressible -> match-heavy stream
  for (size_t i = 0; i < data.size(); i += 997) {
    data[i] = static_cast<uint8_t>(i);
  }
  for (Level level : {Level::kStored, Level::kFast, Level::kDefault}) {
    const Bytes packed = deflate(BytesView(data), level);
    EXPECT_EQ(inflate(BytesView(packed), 0, data.size()), data);
    EXPECT_EQ(inflate(BytesView(packed), 0, data.size() + 1), data);
    EXPECT_THROW(inflate(BytesView(packed), 0, data.size() - 1),
                 CorruptError);
    EXPECT_THROW(inflate(BytesView(packed), 0, 1), CorruptError);
  }
  // max_size = 0 stays unlimited.
  const Bytes packed = deflate(BytesView(data));
  EXPECT_EQ(inflate(BytesView(packed)), data);
}

// A valid three-block stream, one block of each type: a hand-assembled
// fixed block, a stored block, then zlite's own output for `tail` (a
// final dynamic block, which starts on the byte boundary the stored
// block leaves).  `expected` receives the stream's decoded bytes.
Bytes multi_block_stream(Bytes& expected) {
  LsbBitWriter w;
  // Huffman codes go out most significant bit first.
  const auto put_code = [&w](uint32_t code, unsigned len) {
    for (unsigned i = len; i-- > 0;) w.put_bits(code >> i, 1);
  };
  const std::string word = "zlite";
  w.put_bits(0, 1);  // BFINAL=0
  w.put_bits(1, 2);  // BTYPE=01 fixed
  for (char ch : word) put_code(0x30 + static_cast<uint8_t>(ch), 8);
  put_code(260 - 256, 7);  // length 6: code 260, no extra bits
  put_code(4, 5);          // distance 5: code 4 ...
  w.put_bits(0, 1);        // ... plus one extra bit
  put_code(0, 7);          // end of block
  expected.assign(word.begin(), word.end());
  for (int i = 0; i < 6; ++i) expected.push_back(expected[expected.size() - 5]);

  Bytes raw(300);
  std::mt19937_64 rng(53);
  for (auto& b : raw) b = static_cast<uint8_t>(rng());
  w.put_bits(0, 1);  // BFINAL=0
  w.put_bits(0, 2);  // BTYPE=00 stored
  w.align_to_byte();
  w.put_bits(raw.size(), 16);
  w.put_bits(~raw.size(), 16);
  w.put_bytes(BytesView(raw));
  expected.insert(expected.end(), raw.begin(), raw.end());

  Bytes tail;
  const std::string phrase = "stage four sees this phrase again and again; ";
  while (tail.size() < 4000) {
    tail.insert(tail.end(), phrase.begin(), phrase.end());
    tail.push_back(static_cast<uint8_t>(rng() % 64));
  }
  const Bytes packed_tail = deflate(BytesView(tail));
  EXPECT_EQ(packed_tail[0] & 7, 0b101) << "tail is not one final dynamic block";
  expected.insert(expected.end(), tail.begin(), tail.end());

  Bytes stream = w.finish();
  stream.insert(stream.end(), packed_tail.begin(), packed_tail.end());
  return stream;
}

TEST(Zlite, MixedBlockStreamEveryStrictPrefixThrows) {
  Bytes expected;
  const Bytes stream = multi_block_stream(expected);
  ASSERT_EQ(inflate(BytesView(stream)), expected);
  // The final block's end-of-block code ends in the last byte, so every
  // strict prefix ends mid-stream; the zeros a buffered reader sees past
  // the end must never decode as stream bits.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    const BytesView prefix = BytesView(stream).subspan(0, cut);
    EXPECT_THROW(inflate(prefix), CorruptError) << "cut=" << cut;
    EXPECT_THROW(inflate(prefix, 0, expected.size()), CorruptError)
        << "cut=" << cut;
  }
}

// inflate_into() must never hold more than max_size bytes of capacity
// beyond what the caller's buffer already had, whether the stream fits
// the cap or is a bomb that exceeds it.
TEST(Zlite, InflateIntoNeverAllocatesPastMaxSize) {
  Bytes data(200000, 0x41);
  for (size_t i = 0; i < data.size(); i += 1009) {
    data[i] = static_cast<uint8_t>(i);
  }
  Bytes mixed_out;
  Bytes mixed = multi_block_stream(mixed_out);
  std::vector<std::pair<Bytes, size_t>> streams;
  streams.emplace_back(std::move(mixed), mixed_out.size());
  for (Level level : {Level::kStored, Level::kFast, Level::kDefault}) {
    streams.emplace_back(deflate(BytesView(data), level), data.size());
  }
  for (const auto& [stream, size] : streams) {
    for (size_t max_size : {size_t{1}, size_t{4095}, size / 3, size - 1, size,
                            size + 1, 3 * size}) {
      for (size_t entry_cap : {size_t{0}, size_t{100}, size / 2, 2 * size}) {
        for (size_t hint : {size_t{0}, size, 4 * size}) {
          Bytes out;
          out.reserve(entry_cap);
          const size_t cap0 = out.capacity();
          try {
            inflate_into(BytesView(stream), out, hint, max_size);
            EXPECT_EQ(out.size(), size);
          } catch (const CorruptError&) {
            EXPECT_LT(max_size, size);
          }
          EXPECT_LE(out.capacity(), std::max(max_size, cap0))
              << "max_size=" << max_size << " entry_cap=" << entry_cap
              << " hint=" << hint;
        }
      }
    }
  }
}

TEST(Zlite, LazyBeatsOrMatchesGreedyOnText) {
  Bytes data;
  const std::string phrase =
      "compression and encryption are natural companions; ";
  std::mt19937_64 rng(23);
  while (data.size() < 200000) {
    data.insert(data.end(), phrase.begin(), phrase.end());
    data.push_back(static_cast<uint8_t>(rng()));  // break exact periodicity
  }
  const size_t lazy = deflate(BytesView(data), Level::kDefault).size();
  const size_t greedy = deflate(BytesView(data), Level::kFast).size();
  EXPECT_LE(lazy, greedy + greedy / 100);
}

}  // namespace
}  // namespace szsec::zlite
