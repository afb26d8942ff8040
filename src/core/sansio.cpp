#include "core/sansio.h"

#include <cstring>
#include <deque>

#include "core/container.h"
#include "parallel/slab.h"

namespace szsec::sansio {
namespace {

/// Largest input slice one engine call digests before feed() re-checks
/// the output backlog.
constexpr size_t kFeedSlice = size_t{1} << 20;
/// feed() stops accepting input once this much output awaits pull().
constexpr size_t kOutputHighWater = size_t{1} << 20;

/// Output not yet pulled, as a FIFO of fixed-size blocks: growing it
/// never copies what is already queued (a finishing v3 encoder queues
/// its whole archive while its staged frames are freed one by one), and
/// drained blocks are reused, so steady-state output touches the same
/// pages.  A one-shot decode's result can follow the blocks uncopied.
class OutputQueue final : public ByteSink {
 public:
  void write(BytesView data) override {
    while (!data.empty()) {
      if (blocks_.empty() || blocks_.back().size() == kBlock) {
        Bytes block;
        if (!spare_.empty()) {
          block = std::move(spare_.back());
          spare_.pop_back();
        }
        block.reserve(kBlock);
        blocks_.push_back(std::move(block));
      }
      Bytes& b = blocks_.back();
      const size_t n = std::min(data.size(), kBlock - b.size());
      b.insert(b.end(), data.begin(), data.begin() + n);
      data = data.subspan(n);
      in_blocks_ += n;
    }
  }

  /// Queues a one-shot decode's elements behind the pending bytes
  /// without copying them; they are the context's last output and are
  /// freed once pulled.
  void adopt(core::DecompressResult&& r) {
    tail_ = std::move(r);
    tail_left_ = core::element_bytes(tail_);
  }

  uint64_t pending() const { return in_blocks_ - head_ + tail_left_.size(); }

  size_t read(std::span<uint8_t> out) {
    size_t n = 0;
    while (n < out.size() && !blocks_.empty()) {
      Bytes& b = blocks_.front();
      const size_t k = std::min(out.size() - n, b.size() - head_);
      std::memcpy(out.data() + n, b.data() + head_, k);
      n += k;
      head_ += k;
      if (head_ < b.size()) break;
      in_blocks_ -= b.size();
      head_ = 0;
      b.clear();
      if (spare_.size() < kSpareBlocks) spare_.push_back(std::move(b));
      blocks_.pop_front();
    }
    const size_t m = std::min(out.size() - n, tail_left_.size());
    if (m > 0) std::memcpy(out.data() + n, tail_left_.data(), m);
    tail_left_ = tail_left_.subspan(m);
    if (m > 0 && tail_left_.empty()) tail_ = {};
    return n + m;
  }

 private:
  static constexpr size_t kBlock = size_t{1} << 20;
  /// Drained blocks kept for reuse (a few chunks' rows in flight).
  static constexpr size_t kSpareBlocks = 8;
  std::deque<Bytes> blocks_;
  std::vector<Bytes> spare_;
  uint64_t in_blocks_ = 0;  ///< bytes in blocks_, pulled ones included
  size_t head_ = 0;         ///< bytes of the front block already pulled
  core::DecompressResult tail_;
  BytesView tail_left_;  ///< the part of tail_ not yet pulled
};

}  // namespace

// The machine drives the codec's push engines inline on the caller's
// thread: v3 encode/decode/salvage run through archive::ChunkedEncoder /
// ChunkedDecoder / ChunkedSalvager (the same engines behind the blocking
// streaming APIs), v2/v1 buffer the whole container and run the
// one-shot codec at finish().  No byte ever touches a file descriptor.
struct Context::Impl {
  bool is_encoder = false;
  EncoderConfig enc;
  DecoderConfig dec;

  uint64_t expected_in = 0;  ///< encoder: declared field byte count
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  bool finished = false;  ///< finish() was called
  bool done = false;      ///< the codec finished; output may remain
  bool dead = false;      ///< an error already surfaced
  Result result;

  OutputQueue out;
  std::optional<crypto::CtrDrbg> drbg;  ///< encoder's seeded IV source
  /// v1/v2 input, and a decoder's first bytes until the magic is known.
  Bytes buffered;
  // Declared after everything they write into, so they are destroyed
  // (draining any chunk still on a pool worker) first.
  std::unique_ptr<archive::ChunkedEncoder> encoder;
  std::unique_ptr<archive::ChunkedDecoder> decoder;
  std::unique_ptr<archive::ChunkedSalvager> salvager;

  void check_alive() const {
    if (dead) {
      throw StateError(
          "context already failed or was misused; create a new one");
    }
  }

  /// Runs one step of the machine; an escaping error kills the context.
  template <typename Fn>
  Status step(Fn&& fn) {
    check_alive();
    try {
      // Harvest chunks the decoder's pool finished meanwhile, while the
      // output backlog is low.
      while (decoder && out.pending() < kOutputHighWater && decoder->poll()) {
      }
      fn();
      if (finished && !done) settle();
      return status_now();
    } catch (...) {
      dead = true;
      throw;
    }
  }

  /// After finish(): completes the run.  A v3 decoder drains its
  /// outstanding chunks only while the output backlog is low, so pulls
  /// pace the drain instead of every chunk's rows piling up at once.
  void settle() {
    if (decoder) {
      while (out.pending() < kOutputHighWater && decoder->poll(true)) {
      }
      if (out.pending() >= kOutputHighWater) return;
    }
    if (is_encoder) {
      finish_encode();
    } else {
      finish_decode();
    }
    done = true;
  }

  Status status_now() const {
    if (out.pending() > 0) return Status::kHaveOutput;
    if (done) return Status::kDone;
    return Status::kNeedInput;
  }

  void push(BytesView in);
  void start_v3_decoder();
  void finish_encode();
  void finish_decode();
};

void Context::Impl::push(BytesView in) {
  if (encoder) return encoder->feed(in);
  if (decoder) return decoder->feed(in);
  if (salvager) return salvager->feed(in);
  buffered.insert(buffered.end(), in.begin(), in.end());
  if (!is_encoder && buffered.size() >= sizeof(uint32_t) &&
      buffered.size() - in.size() < sizeof(uint32_t)) {
    uint32_t magic = 0;
    std::memcpy(&magic, buffered.data(), sizeof(magic));
    if (magic == archive::kChunkedMagic) start_v3_decoder();
  }
}

void Context::Impl::start_v3_decoder() {
  result.container = Container::kV3Chunked;
  if (dec.salvage) {
    archive::SalvageOptions so;
    so.fill = dec.fill;
    so.threads = dec.threads;
    salvager = std::make_unique<archive::ChunkedSalvager>(out, dec.key, so);
    salvager->feed(buffered);
  } else {
    archive::ChunkedConfig cc;
    cc.threads = dec.threads;
    cc.metrics = &result.times;
    decoder = std::make_unique<archive::ChunkedDecoder>(out, dec.key, cc);
    decoder->feed(buffered);
  }
  buffered = Bytes{};
}

void Context::Impl::finish_encode() {
  Result& r = result;
  r.container = enc.container;
  r.dtype = enc.dtype;
  r.dims = enc.dims;
  r.elements = enc.dims.count();
  if (encoder) {
    const archive::ChunkedStreamResult res = encoder->finish();
    r.chunk_count = res.chunk_count;
    r.stats = res.stats;
    r.times = res.times;
    return;
  }

  // v2 / v1 are one-shot formats: the whole field is buffered (and
  // freed here, once encoded).
  const Bytes field_bytes = std::move(buffered);
  if (field_bytes.size() < expected_in) {
    throw IoError("input ended after " +
                  std::to_string(field_bytes.size()) + " of " +
                  std::to_string(expected_in) + " field bytes");
  }
  crypto::CtrDrbg* iv = drbg ? &*drbg : nullptr;
  const auto with_field = [&](auto encode) {
    const size_t n = enc.dims.count();
    return enc.dtype == sz::DType::kFloat32
               ? encode(std::span<const float>(
                     reinterpret_cast<const float*>(field_bytes.data()), n))
               : encode(std::span<const double>(
                     reinterpret_cast<const double*>(field_bytes.data()), n));
  };
  if (enc.container == Container::kV2Single) {
    const core::codec::CodecRuntime rt(enc.params, enc.scheme, enc.key,
                                       enc.spec);
    const core::CompressResult res = with_field([&](auto field) {
      return core::codec::encode_payload_to(rt.config(), out, field,
                                            enc.dims, iv);
    });
    r.stats = res.stats;
    r.times = res.times;
    return;
  }

  parallel::SlabConfig sc;
  sc.threads = enc.threads;
  sc.slabs = enc.chunks;
  const parallel::SlabCompressResult res = with_field([&](auto field) {
    return parallel::compress_slabs_to(out, field, enc.dims, enc.params,
                                       enc.scheme, enc.key, enc.spec, sc,
                                       iv);
  });
  r.chunk_count = res.slab_count;
  r.stats = res.stats;
}

void Context::Impl::finish_decode() {
  Result& r = result;
  if (decoder) {
    const archive::ChunkedStreamDecodeResult res = decoder->finish();
    r.dims = res.dims;
    r.dtype = res.dtype;
    r.elements = res.elements;
    r.chunk_count = res.chunk_count;
    return;
  }
  if (salvager) {
    const archive::ChunkedStreamSalvageResult res = salvager->finish();
    r.dims = res.dims;
    r.dtype = res.dtype;
    r.elements = res.dims.rank() > 0 ? res.dims.count() : 0;
    r.chunk_count = res.report.chunks_expected;
    r.salvage = res.report;
    return;
  }

  // One-shot formats: the whole container is in hand.  It is freed
  // here; the decoded field is queued without a copy.
  const Bytes whole = std::move(buffered);
  if (whole.size() < sizeof(uint32_t)) {
    throw CorruptError("input too short for a container magic");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, whole.data(), sizeof(magic));

  if (magic == core::kMagic) {
    const core::Header h = core::peek_header(whole);
    const core::CipherSpec spec{
        h.cipher_kind, h.cipher_mode,
        (h.flags & core::kFlagAuthenticated) != 0};
    const core::codec::CodecRuntime rt(h.params, h.scheme, dec.key, spec);
    core::DecompressResult res =
        core::codec::decode_payload(rt.config(), whole);
    r.container = Container::kV2Single;
    r.dims = res.dims;
    r.dtype = res.dtype;
    r.elements = res.dims.count();
    r.times = res.times;
    out.adopt(std::move(res));
    return;
  }

  if (magic == parallel::kArchiveMagic) {
    parallel::SlabConfig sc;
    sc.threads = dec.threads;
    parallel::SlabDecodeResult res =
        parallel::decompress_slabs(whole, dec.key, sc);
    r.container = Container::kV1Slab;
    r.dims = res.field.dims;
    r.dtype = res.field.dtype;
    r.elements = res.field.dims.count();
    r.chunk_count = res.slab_count;
    out.adopt(std::move(res.field));
    return;
  }

  throw CorruptError("unknown container magic");
}

Context::Context(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Context::~Context() = default;

std::unique_ptr<Context> Context::encoder(EncoderConfig config) {
  SZSEC_REQUIRE(config.dims.rank() >= 1, "encoder requires field dims");
  // Validate key/scheme/spec now, exactly as every other entry point
  // does — a misconfigured context must never accept a byte.
  const core::codec::CodecRuntime probe(config.params, config.scheme,
                                        config.key, config.spec);
  (void)probe;
  auto impl = std::make_unique<Impl>();
  Impl& s = *impl;
  s.is_encoder = true;
  s.enc = std::move(config);
  s.expected_in = s.enc.dims.count() * sz::dtype_size(s.enc.dtype);
  if (s.enc.drbg_seed) s.drbg.emplace(*s.enc.drbg_seed);
  if (s.enc.container == Container::kV3Chunked) {
    archive::ChunkedConfig cc;
    cc.threads = s.enc.threads;
    cc.chunks = s.enc.chunks;
    // A temp-file spool would be a library-initiated syscall; the
    // sans-io contract forbids it, so frames stage in memory.
    cc.spool = FrameSpool::Backing::kMemory;
    cc.seek_table = s.enc.seek_table;
    s.encoder = std::make_unique<archive::ChunkedEncoder>(
        s.out, s.enc.dtype, s.enc.dims, s.enc.params, s.enc.scheme,
        s.enc.key, s.enc.spec, cc, s.drbg ? &*s.drbg : nullptr);
  }
  return std::unique_ptr<Context>(new Context(std::move(impl)));
}

std::unique_ptr<Context> Context::decoder(DecoderConfig config) {
  SZSEC_REQUIRE(
      !(config.salvage && config.fill == archive::FallbackFill::kMean),
      "streaming salvage cannot use the mean fill; use zeros or NaN");
  auto impl = std::make_unique<Impl>();
  impl->is_encoder = false;
  impl->dec = std::move(config);
  return std::unique_ptr<Context>(new Context(std::move(impl)));
}

Status Context::feed(BytesView in, size_t& consumed) {
  Impl& s = *impl_;
  consumed = 0;
  s.check_alive();
  if (s.finished) throw StateError("feed after finish()");
  return s.step([&] {
    // Encoder surplus input is a caller bug flagged at the feed that
    // crosses the declared field length.  Decoders instead tolerate
    // trailing bytes (a v3 seek footer is legitimate trailing input to
    // the strict stream decoder, exactly as with the streaming CLI).
    if (s.is_encoder && s.bytes_in + in.size() > s.expected_in) {
      throw Error("trailing input: " +
                  std::to_string(s.bytes_in + in.size() - s.expected_in) +
                  " bytes fed beyond the declared field");
    }
    while (consumed < in.size() && s.out.pending() < kOutputHighWater) {
      const BytesView slice =
          in.subspan(consumed, std::min(kFeedSlice, in.size() - consumed));
      s.push(slice);
      consumed += slice.size();
      s.bytes_in += slice.size();
    }
  });
}

Status Context::pull(std::span<uint8_t> out, size_t& produced) {
  Impl& s = *impl_;
  produced = 0;
  return s.step([&] {
    produced = s.out.read(out);
    s.bytes_out += produced;
  });
}

Status Context::finish() {
  Impl& s = *impl_;
  s.check_alive();
  if (s.finished) throw StateError("finish() called twice");
  s.finished = true;
  return s.step([] {});
}

Status Context::status() {
  return impl_->step([] {});
}

const Result& Context::result() const {
  Impl& s = *impl_;
  if (s.dead) throw StateError("context failed; no result");
  if (!s.done || s.out.pending() > 0) {
    throw StateError("result() before the context is done");
  }
  s.result.bytes_in = s.bytes_in;
  s.result.bytes_out = s.bytes_out;
  return s.result;
}

}  // namespace szsec::sansio
