#include "testing/replay.h"

#include <cstdlib>
#include <optional>

#include "archive/chunked.h"
#include "archive/seekable.h"
#include "common/crc32.h"
#include "core/sansio.h"
#include "core/secure_compressor.h"
#include "crypto/cipher.h"
#include "huffman/huffman.h"
#include "parallel/slab.h"
#include "zlite/zlite.h"

namespace szsec::testing {

Bytes replay_key(size_t n) {
  Bytes k(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<uint8_t>(0x5A ^ (7 * i + 9));
  }
  return k;
}

namespace {

template <typename T>
Bytes raw_bytes(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  return Bytes(p, p + v.size() * sizeof(T));
}

/// Decodes `input` through a threads=1 sans-io decoder Context, feeding
/// and pulling at split points derived from the input bytes (mostly 1-8
/// bytes, sometimes up to 4 KiB).  nullopt when the Context rejects the
/// input with a szsec::Error; any other exception, or a machine wanting
/// input after finish(), aborts.
std::optional<Bytes> context_decode(BytesView input, BytesView key,
                                    bool salvage) {
  uint32_t x = crc32(input) | 1;  // xorshift32 state: never zero
  const auto split = [&]() -> size_t {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return (x & 3) != 0 ? 1 + x % 8 : 1 + (x >> 2) % 4096;
  };
  try {
    sansio::DecoderConfig dc;
    dc.key.assign(key.begin(), key.end());
    dc.salvage = salvage;
    dc.fill = archive::FallbackFill::kZeros;
    const auto ctx = sansio::Context::decoder(dc);
    Bytes out;
    uint8_t buf[4096];
    size_t fed = 0, n = 0;
    bool finished = false;
    for (sansio::Status st = ctx->status(); st != sansio::Status::kDone;) {
      if (st == sansio::Status::kHaveOutput) {
        st = ctx->pull(std::span<uint8_t>(buf, split()), n);
        out.insert(out.end(), buf, buf + n);
      } else if (fed < input.size()) {
        st = ctx->feed(input.subspan(fed).first(
                           std::min(split(), input.size() - fed)),
                       n);
        fed += n;
      } else if (!finished) {
        finished = true;
        st = ctx->finish();
      } else {
        std::abort();
      }
    }
    return out;
  } catch (const Error&) {
    return std::nullopt;
  } catch (...) {
    std::abort();
  }
}

/// Where a one-shot decode produced `want`, strict and salvage Contexts
/// must both reproduce it byte for byte.
void check_contexts(BytesView input, BytesView key,
                    const std::optional<Bytes>& want) {
  for (const bool salvage : {false, true}) {
    const std::optional<Bytes> got = context_decode(input, key, salvage);
    if (want && got != want) std::abort();
  }
}

/// v1 slab archives: the slab decoder, then the same Context
/// differential.
void replay_slabs(BytesView input) {
  const Bytes key = replay_key(16);
  std::optional<Bytes> want;
  try {
    const parallel::SlabDecodeResult r = parallel::decompress_slabs(
        input, BytesView(key), parallel::SlabConfig{.threads = 1});
    const BytesView field = core::element_bytes(r.field);
    want = Bytes(field.begin(), field.end());
  } catch (const Error&) {
  }
  check_contexts(input, BytesView(key), want);
}

}  // namespace

void replay_decode(BytesView input) {
  if (input.size() >= 4 &&
      ByteReader(input).get_u32() == parallel::kArchiveMagic) {
    return replay_slabs(input);
  }
  core::Header h;
  try {
    h = core::peek_header(input);
  } catch (const Error&) {
    return;
  }
  core::CipherSpec spec;
  spec.kind = h.cipher_kind;
  spec.mode = h.cipher_mode;
  spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
  const Bytes key = replay_key(crypto::cipher_key_size(h.cipher_kind));
  const BytesView k =
      h.scheme == core::Scheme::kNone ? BytesView{} : BytesView(key);
  std::optional<Bytes> want;
  try {
    const core::SecureCompressor c(sz::Params{}, h.scheme, k, spec);
    const core::DecompressResult r = c.decompress(input);
    want = r.dtype == sz::DType::kFloat32 ? raw_bytes(r.f32)
                                          : raw_bytes(r.f64);
  } catch (const Error&) {
  }
  check_contexts(input, k, want);
}

void replay_huffman(BytesView input) {
  if (input.size() < 4) return;
  const size_t count = input[0] | (size_t{input[1]} << 8);
  size_t tree_len = input[2] | (size_t{input[3]} << 8);
  const BytesView rest = input.subspan(4);
  if (tree_len > rest.size()) tree_len = rest.size();
  try {
    const huffman::CodeTable table =
        huffman::deserialize_table(rest.subspan(0, tree_len));
    (void)huffman::decode(table, rest.subspan(tree_len), count);
  } catch (const Error&) {
  }
}

void replay_zlite(BytesView input) {
  Bytes plain;
  try {
    plain = zlite::inflate(input);
  } catch (const Error&) {
    return;
  }
  // Whatever inflates must survive our own deflate/inflate round trip
  // bit-identically; abort (so the fuzzer records it) if not.
  const Bytes re = zlite::deflate(BytesView(plain));
  if (zlite::inflate(BytesView(re)) != plain) std::abort();
}

void replay_chunked(BytesView input) {
  const Bytes key = replay_key(16);
  archive::ChunkedConfig cfg;
  cfg.threads = 1;
  try {
    (void)archive::read_chunk_index(input);
  } catch (const Error&) {
  }
  std::optional<Bytes> want;
  try {
    want = raw_bytes(archive::decompress_chunked_f32(input, BytesView(key),
                                                     cfg));
  } catch (const Error&) {
  }
  try {
    want = raw_bytes(archive::decompress_chunked_f64(input, BytesView(key),
                                                     cfg));
  } catch (const Error&) {
  }
  check_contexts(input, BytesView(key), want);
  archive::SalvageOptions opts;
  opts.threads = 1;
  try {
    (void)archive::decompress_salvage(input, BytesView(key), opts);
  } catch (const Error&) {
  }
  // Seek-table surface: footer/trailer parse, then a random-access open
  // plus a one-element read at each end.  Anything other than a typed
  // Error on arbitrary bytes is a finding.
  try {
    (void)archive::read_seek_table(input);
  } catch (const Error&) {
  }
  try {
    archive::SeekableOptions sopt;
    sopt.threads = 1;
    const auto reader =
        archive::SeekableReader::open(input, BytesView(key), sopt);
    const uint64_t n = reader->elements();
    if (n > 0) {
      if (reader->dtype() == sz::DType::kFloat32) {
        std::vector<float> out(1);
        reader->read_range(0, 1, std::span<float>(out));
        reader->read_range(n - 1, n, std::span<float>(out));
      } else {
        std::vector<double> out(1);
        reader->read_range(0, 1, std::span<double>(out));
        reader->read_range(n - 1, n, std::span<double>(out));
      }
    }
  } catch (const Error&) {
  }
}

void replay_family(const std::string& family, BytesView input) {
  if (family == "decode") {
    replay_decode(input);
  } else if (family == "huffman") {
    replay_huffman(input);
  } else if (family == "zlite") {
    replay_zlite(input);
  } else if (family == "chunked") {
    replay_chunked(input);
  } else {
    replay_decode(input);
    replay_huffman(input);
    replay_zlite(input);
    replay_chunked(input);
  }
}

}  // namespace szsec::testing
