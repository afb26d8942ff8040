// SeekableReader subsystem: the oracle differential over the required
// config grid (4 schemes x f32/f64 x threads {1,4} x 3 chunk counts),
// open paths (memory / path / FILE*), typed rejection of non-seekable
// sources and wrong keys, footer-damage behavior (strict decode and
// verify unaffected; the seekable open fails closed on a forged footer
// and falls back to the prelude index when the trailer signature is
// gone), and the touched-bytes contract for small reads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "archive/seekable.h"
#include "archive/verify.h"
#include "testing/oracle.h"

namespace szsec::archive {
namespace {

namespace fs = std::filesystem;

using core::Scheme;

const Bytes kKey = {0, 1, 2,  3,  4,  5,  6,  7,
                    8, 9, 10, 11, 12, 13, 14, 15};
const Bytes kWrongKey = {9, 9, 2,  3,  4,  5,  6,  7,
                         8, 9, 10, 11, 12, 13, 14, 9};
const Dims kDims{24, 12, 10};

testing::SampledConfig make_config(Scheme scheme, sz::DType dtype,
                                   unsigned threads, size_t chunks) {
  testing::SampledConfig cfg;
  cfg.seed = 0x5EEC0000ull ^ (static_cast<uint64_t>(scheme) << 16) ^
             (static_cast<uint64_t>(dtype) << 12) ^ (threads << 8) ^ chunks;
  cfg.params.abs_error_bound = 1e-4;
  cfg.scheme = scheme;
  cfg.dtype = dtype;
  cfg.field = testing::FieldKind::kSmooth;
  cfg.dims = kDims;
  cfg.key = scheme == Scheme::kNone ? Bytes{} : kKey;
  cfg.chunks = chunks;
  cfg.threads = threads;
  return cfg;
}

std::vector<float> smooth_field(const testing::SampledConfig& cfg) {
  return testing::synthesize_f32(cfg);
}

ChunkedCompressResult compress_f32(const testing::SampledConfig& cfg,
                                   bool seek_table = true) {
  const std::vector<float> f = smooth_field(cfg);
  ChunkedConfig ccfg;
  ccfg.threads = cfg.threads;
  ccfg.chunks = cfg.chunks;
  ccfg.seek_table = seek_table;
  crypto::CtrDrbg drbg(cfg.seed + 7);
  return compress_chunked(std::span<const float>(f), cfg.dims, cfg.params,
                          cfg.scheme, BytesView(cfg.key), core::CipherSpec{},
                          ccfg, &drbg);
}

// ---------------------------------------------------------------------
// The oracle differential across the acceptance grid.

// gtest prints a parameter without a PrintTo as its raw bytes, and
// ctest names each test after that dump.  `reserved` fills what would
// be padding, so every byte is a set value and the names are the same in
// every build.  (A PrintTo would read better, but would rename all 48
// cases.)
struct GridPoint {
  Scheme scheme;
  sz::DType dtype;
  uint16_t reserved = 0;
  unsigned threads;
  size_t chunks;
};
static_assert(sizeof(GridPoint) == 2 + sizeof(uint16_t) + sizeof(unsigned) +
                                       sizeof(size_t),
              "GridPoint must have no padding bytes");

class SeekableDifferential : public ::testing::TestWithParam<GridPoint> {};

TEST_P(SeekableDifferential, RangeAndRoiMatchFullDecodeSlices) {
  const GridPoint g = GetParam();
  const auto cfg = make_config(g.scheme, g.dtype, g.threads, g.chunks);
  const std::vector<std::string> violations = testing::check_seekable(cfg);
  for (const std::string& v : violations) {
    ADD_FAILURE() << v;
  }
}

std::vector<GridPoint> grid() {
  std::vector<GridPoint> points;
  for (Scheme scheme : {Scheme::kNone, Scheme::kCmprEncr,
                        Scheme::kEncrQuant, Scheme::kEncrHuffman}) {
    for (sz::DType dtype : {sz::DType::kFloat32, sz::DType::kFloat64}) {
      for (unsigned threads : {1u, 4u}) {
        for (size_t chunks : {1, 4, 11}) {
          points.push_back(GridPoint{.scheme = scheme,
                                     .dtype = dtype,
                                     .threads = threads,
                                     .chunks = chunks});
        }
      }
    }
  }
  return points;
}

std::string grid_name(const ::testing::TestParamInfo<GridPoint>& info) {
  const GridPoint& g = info.param;
  std::string name = std::string(core::scheme_name(g.scheme)) +
                     (g.dtype == sz::DType::kFloat32 ? "_f32_" : "_f64_") +
                     "t" + std::to_string(g.threads) + "_c" +
                     std::to_string(g.chunks);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, SeekableDifferential,
                         ::testing::ValuesIn(grid()), grid_name);

// ---------------------------------------------------------------------
// Open paths and typed errors.

TEST(SeekableReader, OpensFromPathAndFile) {
  const auto cfg =
      make_config(Scheme::kEncrHuffman, sz::DType::kFloat32, 2, 4);
  const auto r = compress_f32(cfg);
  const std::vector<float> full =
      decompress_chunked_f32(BytesView(r.archive), BytesView(kKey));

  const fs::path path =
      fs::path(::testing::TempDir()) / "szsec_seekable_open.szs";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(r.archive.data()),
              static_cast<std::streamsize>(r.archive.size()));
  }

  const auto by_path =
      SeekableReader::open(path.string(), BytesView(kKey));
  EXPECT_TRUE(by_path->from_footer());
  EXPECT_EQ(by_path->dims(), kDims);
  EXPECT_EQ(by_path->dtype(), sz::DType::kFloat32);
  std::vector<float> got(120);
  by_path->read_range(600, 720, std::span<float>(got));
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], full[600 + i]) << i;
  }
  // The read touched one chunk + table, not the archive.
  EXPECT_LT(by_path->bytes_read(), r.archive.size());

  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  {
    const auto by_file = SeekableReader::open(f, BytesView(kKey));
    std::vector<float> one(1);
    by_file->read_range(0, 1, std::span<float>(one));
    EXPECT_EQ(one[0], full[0]);
  }
  std::fclose(f);
  fs::remove(path);
}

TEST(SeekableReader, PipeSourceFailsWithTypedIoError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  try {
    SeekableReader::open(std::make_unique<FdSource>(fds[0]), BytesView(kKey));
    FAIL() << "open over a pipe should throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ESPIPE);
    EXPECT_FALSE(e.transient());
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SeekableReader, WrongKeyIsRejectedNotGarbage) {
  const auto cfg =
      make_config(Scheme::kCmprEncr, sz::DType::kFloat32, 1, 4);
  const auto r = compress_f32(cfg);
  const auto reader =
      SeekableReader::open(BytesView(r.archive), BytesView(kWrongKey));
  std::vector<float> out(kDims.count());
  EXPECT_THROW(reader->read_range(0, kDims.count(), std::span<float>(out)),
               Error);
}

TEST(SeekableReader, DtypeAndBoundsArePreconditions) {
  const auto cfg = make_config(Scheme::kNone, sz::DType::kFloat32, 1, 3);
  const auto r = compress_f32(cfg);
  const auto reader = SeekableReader::open(BytesView(r.archive), BytesView{});
  std::vector<double> wrong(10);
  EXPECT_THROW(reader->read_range(0, 10, std::span<double>(wrong)), Error);
  std::vector<float> out(10);
  EXPECT_THROW(
      reader->read_range(10, 10, std::span<float>(out)), Error);
  EXPECT_THROW(reader->read_range(0, kDims.count() + 1,
                                  std::span<float>(out)),
               Error);
  const size_t origin[2] = {0, 0};
  const size_t extent[2] = {2, 5};
  EXPECT_THROW(reader->read_roi(std::span<const size_t>(origin, 2),
                                std::span<const size_t>(extent, 2),
                                std::span<float>(out)),
               Error);  // rank 2 request against a rank-3 field
}

// ---------------------------------------------------------------------
// Footer damage: old readers unaffected, seekable open fails closed on
// forgery and falls back when the trailer signature is gone.

TEST(SeekableFooter, DamageConfinedToFooterLeavesStrictDecodeIntact) {
  const auto cfg =
      make_config(Scheme::kEncrHuffman, sz::DType::kFloat32, 2, 5);
  const auto with = compress_f32(cfg, true);
  const auto without = compress_f32(cfg, false);
  ASSERT_GT(with.archive.size(), without.archive.size());
  // The footer is a pure suffix on otherwise identical bytes.
  ASSERT_TRUE(std::equal(without.archive.begin(), without.archive.end(),
                         with.archive.begin()));

  const std::vector<float> expect =
      decompress_chunked_f32(BytesView(without.archive), BytesView(kKey));

  // Every cut or flip inside the footer region: strict decode still
  // succeeds bit-identically and verify stays clean (the footer is
  // trailing bytes to the v3 index path).
  for (size_t cut : {with.archive.size() - 1, without.archive.size() + 1}) {
    Bytes truncated(with.archive.begin(),
                    with.archive.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::vector<float> got =
        decompress_chunked_f32(BytesView(truncated), BytesView(kKey));
    EXPECT_EQ(got, expect) << "cut at " << cut;
  }
  Bytes flipped = with.archive;
  flipped[without.archive.size() + 3] ^= 0x40;
  EXPECT_EQ(decompress_chunked_f32(BytesView(flipped), BytesView(kKey)),
            expect);
  const VerifyReport vr =
      verify_archive(BytesView(flipped), BytesView(kKey));
  EXPECT_TRUE(vr.clean());

  // A flipped footer byte with the trailer intact is a forged footer:
  // the seekable open fails closed rather than trusting it.
  EXPECT_THROW(SeekableReader::open(BytesView(flipped), BytesView(kKey)),
               CorruptError);

  // Trailer signature gone (truncated mid-footer): the open falls back
  // to the prelude index and still serves correct ranges.
  Bytes no_trailer(
      with.archive.begin(),
      with.archive.begin() +
          static_cast<std::ptrdiff_t>(with.archive.size() - 3));
  const auto fallback =
      SeekableReader::open(BytesView(no_trailer), BytesView(kKey));
  EXPECT_FALSE(fallback->from_footer());
  EXPECT_EQ(fallback->dtype(), sz::DType::kFloat32);
  std::vector<float> got(expect.size());
  fallback->read_range(0, expect.size(), std::span<float>(got));
  EXPECT_EQ(got, expect);
}

TEST(SeekableFooter, FooteredArchiveRoundTripsThroughStreamingDecode) {
  const auto cfg =
      make_config(Scheme::kEncrQuant, sz::DType::kFloat32, 2, 4);
  const auto r = compress_f32(cfg, true);
  const std::vector<float> expect =
      decompress_chunked_f32(BytesView(r.archive), BytesView(kKey));

  MemorySource src(BytesView(r.archive));
  MemorySink sink;
  const ChunkedStreamDecodeResult sr =
      decompress_chunked_stream(src, sink, BytesView(kKey));
  EXPECT_EQ(sr.dims, kDims);
  ASSERT_EQ(sink.bytes().size(), expect.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(sink.bytes().data(), expect.data(),
                        sink.bytes().size()),
            0);
}

}  // namespace
}  // namespace szsec::archive
