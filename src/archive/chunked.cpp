#include "archive/chunked.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/bufpool.h"
#include "common/crc32.h"
#include "core/codec.h"
#include "parallel/chunk_scheduler.h"

namespace szsec::archive {

namespace {

using core::codec::CodecRuntime;
using core::codec::RuntimeCache;
using parallel::ChunkSchedulerConfig;
using parallel::ParallelChunkScheduler;
using parallel::SlabConfig;
using parallel::SlabPlan;

constexpr size_t kMarkerSize = sizeof(uint64_t);

template <typename T>
constexpr sz::DType dtype_of() {
  return std::is_same_v<T, float> ? sz::DType::kFloat32
                                  : sz::DType::kFloat64;
}

Bytes make_frame(uint64_t chunk_id, uint64_t row_start, uint64_t row_extent,
                 const Bytes& container) {
  ByteWriter w(container.size() + 32);
  w.put_u64(kResyncMarker);
  w.put_varint(chunk_id);
  w.put_varint(row_start);
  w.put_varint(row_extent);
  w.put_varint(container.size());
  w.put_u32(crc32(BytesView(container)));
  w.put_bytes(BytesView(container));
  return w.take();
}

/// A frame's fields up to its container bytes.
struct FrameHead {
  uint64_t chunk_id = 0;
  uint64_t row_start = 0;
  uint64_t row_extent = 0;
  uint64_t container_len = 0;
  uint32_t crc = 0;
  size_t head_len = 0;  ///< marker byte 0 .. container byte 0
};

/// Parses the frame header whose marker starts `v`; nullopt when the
/// bytes are truncated, malformed or implausible.  What counts as a frame
/// header is defined here once, for parse_frame and the salvage scan.
std::optional<FrameHead> parse_frame_head(BytesView v) {
  try {
    ByteReader r(v);
    if (r.get_u64() != kResyncMarker) return std::nullopt;
    FrameHead h;
    h.chunk_id = r.get_varint();
    h.row_start = r.get_varint();
    h.row_extent = r.get_varint();
    h.container_len = r.get_varint();
    h.crc = r.get_u32();
    h.head_len = r.pos();
    if (h.chunk_id > Dims::kMaxExtent || h.row_start > Dims::kMaxExtent ||
        h.row_extent == 0 || h.row_extent > Dims::kMaxExtent) {
      return std::nullopt;
    }
    return h;
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Finds the next resync marker at or after `pos` (byte-wise search).
size_t find_marker(BytesView archive, size_t pos) {
  uint8_t pattern[kMarkerSize];
  std::memcpy(pattern, &kResyncMarker, kMarkerSize);
  while (pos + kMarkerSize <= archive.size()) {
    const auto* hit = static_cast<const uint8_t*>(
        std::memchr(archive.data() + pos, pattern[0], archive.size() - pos));
    if (hit == nullptr) break;
    pos = static_cast<size_t>(hit - archive.data());
    if (pos + kMarkerSize > archive.size()) break;
    if (std::memcmp(archive.data() + pos, pattern, kMarkerSize) == 0) {
      return pos;
    }
    ++pos;
  }
  return archive.size();
}

/// A chunk's rank and plane (non-slowest) dims against the field's:
/// the failure reason, or empty.
std::string check_plane(const Dims& chunk, const Dims& field) {
  if (chunk.rank() != field.rank()) return "rank mismatch";
  for (size_t i = 1; i < chunk.rank(); ++i) {
    if (chunk[i] != field[i]) return "plane dims mismatch";
  }
  return {};
}

}  // namespace

std::string check_chunk_header(const core::Header& h, uint64_t frame_rows,
                               const std::optional<Dims>& field_dims,
                               std::optional<sz::DType> dtype) {
  if (h.dims[0] != frame_rows) return "container rows != frame rows";
  if (field_dims) {
    std::string bad = check_plane(h.dims, *field_dims);
    if (!bad.empty()) return bad;
  }
  if (dtype && h.dtype != *dtype) return "container dtype mismatch";
  return {};
}

ChunkDecode decode_chunk(BytesView container, uint64_t frame_rows,
                         const std::optional<Dims>& field_dims,
                         std::optional<sz::DType> dtype,
                         RuntimeCache& runtimes,
                         const core::codec::DecodeOptions& opts) {
  ChunkDecode d;
  const auto reason = [&]() -> std::string {
    const core::Header h = core::peek_header(container);
    std::string bad = check_chunk_header(h, frame_rows, field_dims, dtype);
    if (!bad.empty()) return bad;
    core::CipherSpec spec{h.cipher_kind, h.cipher_mode};
    spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
    const CodecRuntime& runtime = runtimes.get(h.params, h.scheme, spec);
    const size_t into = h.dtype == sz::DType::kFloat32
                            ? opts.into_f32.size()
                            : opts.into_f64.size();
    if (into != 0 && into != h.dims.count()) return "decoded size mismatch";
    d.r = core::codec::decode_payload(runtime.config(), container, opts);
    return {};
  };
  try {
    d.error = reason();
  } catch (const CryptoError& e) {
    d.crypto = true;
    d.error = e.what();
  } catch (const Error& e) {
    d.error = e.what();
  }
  return d;
}

namespace {

/// Scan-only salvage report (no index): each recovered chunk in id
/// order as kRelocated, preceded by a kMissing entry for any row gap
/// before it.  `get` maps a `placed` value to its row_start /
/// row_extent / frame_len.
template <typename Map, typename Get>
void report_scan_only(SalvageReport& rep, const Map& placed, Get get) {
  uint64_t next_gap_id = 0;
  uint64_t row = 0;
  for (const auto& [id, value] : placed) {
    const auto& p = get(value);
    if (p.row_start > row) {
      rep.chunks.push_back(ChunkReport{
          next_gap_id, ChunkStatus::kMissing, row, p.row_start - row, 0,
          "no frame found for these rows"});
    }
    rep.chunks.push_back(ChunkReport{id, ChunkStatus::kRelocated,
                                     p.row_start, p.row_extent, p.frame_len,
                                     {}});
    next_gap_id = id + 1;
    row = p.row_start + p.row_extent;
  }
  rep.chunks_expected = rep.chunks.size();
}

}  // namespace

std::optional<FrameInfo> parse_frame(BytesView archive, size_t pos) {
  // subspan(pos) with pos past the end is UB, and callers hand us
  // offsets derived from untrusted index varints — bound it here so
  // every parse site is safe by construction.
  if (pos > archive.size()) return std::nullopt;
  const std::optional<FrameHead> h = parse_frame_head(archive.subspan(pos));
  if (!h || h->container_len > archive.size() - pos - h->head_len) {
    return std::nullopt;
  }
  FrameInfo f;
  f.chunk_id = h->chunk_id;
  f.row_start = h->row_start;
  f.row_extent = h->row_extent;
  f.offset = pos;
  f.frame_len = h->head_len + static_cast<size_t>(h->container_len);
  f.container = archive.subspan(pos + h->head_len,
                                static_cast<size_t>(h->container_len));
  f.crc_ok = crc32(f.container) == h->crc;
  return f;
}

const char* to_string(ChunkStatus s) {
  switch (s) {
    case ChunkStatus::kOk:
      return "ok";
    case ChunkStatus::kRelocated:
      return "relocated";
    case ChunkStatus::kCorrupt:
      return "corrupt";
    default:
      return "missing";
  }
}

/// The one v3 compressor: cuts pushed element bytes into chunks on the
/// pushing thread, in index order, encodes chunks on the scheduler,
/// stages committed frames in a FrameSpool, then emits prelude + frames
/// (+ seek footer) at finish().  Peak memory is the scheduler window
/// times one chunk's input + frame, plus the staged frames (see
/// ChunkedConfig::spool) — never the whole field.
struct ChunkedEncoder::Impl {
  struct ChunkProduct {
    Bytes frame;
    core::CompressStats stats;
    PipelineMetrics times;
  };

  Impl(ByteSink& sink, sz::DType dtype, const Dims& dims,
       const sz::Params& params, core::Scheme scheme, BytesView key,
       const core::CipherSpec& spec, const ChunkedConfig& config,
       crypto::CtrDrbg* seed_drbg)
      : out(sink),
        dtype(dtype),
        dims(dims),
        seek_table(config.seek_table),
        sched(ChunkSchedulerConfig{config.threads, config.max_in_flight}),
        plan(parallel::plan_slabs(dims, SlabConfig{config.threads,
                                                   config.chunks},
                                  sched.thread_count())),
        runtime(params, scheme, key, spec),
        cfg(runtime.config()),
        spool(config.spool),
        frame_len(plan.count, 0),
        left(dims.count() * sz::dtype_size(dtype)),
        run(
            sched,
            [this](size_t, size_t i, Bytes&& raw) {
              return produce(i, std::move(raw));
            },
            [this](size_t i, ChunkProduct&& p) { commit(i, std::move(p)); }) {
    // Per-chunk DRBGs are derived serially from the master BEFORE
    // fan-out, so chunk i's IV depends only on its index and the seed —
    // the archive bytes are identical for every thread count.
    crypto::CtrDrbg& master =
        seed_drbg != nullptr ? *seed_drbg : crypto::global_drbg();
    drbgs.reserve(plan.count);
    for (size_t i = 0; i < plan.count; ++i) {
      drbgs.emplace_back(BytesView(master.generate(32)));
    }
    res.chunk_count = plan.count;
  }

  ChunkProduct produce(size_t i, Bytes&& raw) {
    const auto encode = [&](const auto* elems) {
      return core::codec::encode_payload(
          cfg, std::span(elems, raw.size() / sizeof(*elems)),
          parallel::slab_dims(dims, plan.extent[i]), &drbgs[i]);
    };
    core::CompressResult r =
        dtype == sz::DType::kFloat32
            ? encode(reinterpret_cast<const float*>(raw.data()))
            : encode(reinterpret_cast<const double*>(raw.data()));
    ChunkProduct p{make_frame(i, plan.start[i], plan.extent[i], r.container),
                   r.stats, std::move(r.times)};
    input_pool.release(std::move(raw));
    return p;
  }

  void commit(size_t i, ChunkProduct&& p) {
    frame_len[i] = p.frame.size();
    spool.write(BytesView(p.frame));
    stats.add(p.stats);
    res.times.merge(p.times);
  }

  /// The unfilled tail of the chunk being filled (left > 0).  Raw chunk
  /// buffers are recycled through a pool: this thread acquires, the
  /// worker releases after encoding, so steady state allocates nothing
  /// per chunk however many chunks stream by.
  std::span<uint8_t> space() {
    if (pending.empty()) {
      const size_t i = run.pushed();
      const size_t bytes =
          plan.extent[i] * plan.plane * sz::dtype_size(dtype);
      pending = input_pool.acquire(bytes);
      pending.resize(bytes);
    }
    return std::span<uint8_t>(pending).subspan(filled);
  }

  /// Accounts `n` bytes just written into space(); a full chunk goes to
  /// the scheduler.
  void fill(size_t n) {
    filled += n;
    left -= n;
    if (filled == pending.size()) {
      run.push(std::exchange(pending, Bytes{}));
      filled = 0;
      run.commit_ready();
    }
  }

  void feed(BytesView in) {
    SZSEC_REQUIRE(in.size() <= left, "more field bytes than dims declare");
    while (!in.empty()) {
      const std::span<uint8_t> to = space();
      const size_t n = std::min(to.size(), in.size());
      std::memcpy(to.data(), in.data(), n);
      in = in.subspan(n);
      fill(n);
    }
  }

  size_t feed_from(ByteSource& src) {
    if (left == 0) return 0;
    const std::span<uint8_t> to = space();
    const size_t n = src.read(
        to.first(static_cast<size_t>(std::min<uint64_t>(to.size(), left))));
    fill(n);
    return n;
  }

  ChunkedStreamResult finish() {
    if (run.pushed() < plan.count) {
      throw IoError("input stream ended mid-field (chunk " +
                    std::to_string(run.pushed()) + ")");
    }
    run.finish();
    res.stats = stats.total();

    ByteWriter w;
    w.put_u32(kChunkedMagic);
    w.put_u8(kChunkedVersion);
    w.put_u8(static_cast<uint8_t>(dims.rank()));
    for (size_t i = 0; i < dims.rank(); ++i) w.put_varint(dims[i]);
    w.put_varint(plan.count);
    uint64_t rel = 0;
    for (size_t i = 0; i < plan.count; ++i) {
      w.put_varint(rel);
      w.put_varint(frame_len[i]);
      w.put_varint(plan.start[i]);
      w.put_varint(plan.extent[i]);
      rel += frame_len[i];
    }
    w.put_u32(crc32(BytesView(w.bytes())));

    CountingSink counted(&out);
    const Bytes prelude = w.take();
    counted.write(BytesView(prelude));
    spool.replay(counted);
    if (seek_table) {
      // Footer offsets are ABSOLUTE (prelude + relative frame offset), so
      // a seekable reader needs no prelude parse at all; elem ranges are
      // redundant with rows x plane by construction — the parser
      // cross-checks them, which is what makes a forged footer detectable.
      const size_t plane = dims.count() / dims[0];
      ByteWriter fw;
      fw.put_u32(kSeekFooterMagic);
      fw.put_u8(kSeekFooterVersion);
      fw.put_u8(dtype == sz::DType::kFloat32 ? 0 : 1);
      fw.put_u8(static_cast<uint8_t>(dims.rank()));
      for (size_t i = 0; i < dims.rank(); ++i) fw.put_varint(dims[i]);
      fw.put_varint(plan.count);
      uint64_t abs = prelude.size();
      for (size_t i = 0; i < plan.count; ++i) {
        fw.put_varint(abs);
        fw.put_varint(frame_len[i]);
        fw.put_varint(plan.start[i]);
        fw.put_varint(plan.extent[i]);
        fw.put_varint(plan.start[i] * plane);
        fw.put_varint(plan.extent[i] * plane);
        abs += frame_len[i];
      }
      fw.put_u32(crc32(BytesView(fw.bytes())));
      const size_t footer_len = fw.bytes().size();
      SZSEC_REQUIRE(footer_len <= std::numeric_limits<uint32_t>::max(),
                    "seek-table footer too large");
      fw.put_u32(static_cast<uint32_t>(footer_len));
      fw.put_u32(kSeekTrailerMagic);
      const Bytes footer = fw.take();
      counted.write(BytesView(footer));
    }
    out.flush();
    res.archive_bytes = counted.count();
    res.stats.container_bytes = counted.count();
    return res;
  }

  ByteSink& out;
  const sz::DType dtype;
  const Dims dims;
  const bool seek_table;
  ParallelChunkScheduler sched;
  const SlabPlan plan;
  std::vector<crypto::CtrDrbg> drbgs;
  // One runtime (key schedule + MAC key) shared by every chunk; the
  // codec config is immutable, so workers share it freely.
  const CodecRuntime runtime;
  const core::codec::CodecConfig cfg;
  FrameSpool spool;
  BufferPool input_pool;
  Bytes pending;  ///< the chunk being filled, sized to the chunk
  size_t filled = 0;  ///< bytes of `pending` written so far
  std::vector<uint64_t> frame_len;
  uint64_t left;  ///< field bytes not yet fed
  ChunkedStreamResult res;
  core::StatsSum stats;
  /// Last member: destroyed first, draining any chunk still on a worker
  /// while everything it touches is alive.
  ParallelChunkScheduler::OrderedRun<Bytes, ChunkProduct> run;
};

ChunkedEncoder::ChunkedEncoder(ByteSink& out, sz::DType dtype,
                               const Dims& dims, const sz::Params& params,
                               core::Scheme scheme, BytesView key,
                               const core::CipherSpec& spec,
                               const ChunkedConfig& config,
                               crypto::CtrDrbg* seed_drbg)
    : impl_(std::make_unique<Impl>(out, dtype, dims, params, scheme, key,
                                   spec, config, seed_drbg)) {}

ChunkedEncoder::~ChunkedEncoder() = default;

void ChunkedEncoder::feed(BytesView in) { impl_->feed(in); }

size_t ChunkedEncoder::feed_from(ByteSource& in) {
  return impl_->feed_from(in);
}

ChunkedStreamResult ChunkedEncoder::finish() { return impl_->finish(); }

ChunkedStreamResult compress_chunked_stream(
    ByteSource& in, ByteSink& out, sz::DType dtype, const Dims& dims,
    const sz::Params& params, core::Scheme scheme, BytesView key,
    const core::CipherSpec& spec, const ChunkedConfig& config,
    crypto::CtrDrbg* seed_drbg) {
  ChunkedEncoder enc(out, dtype, dims, params, scheme, key, spec, config,
                     seed_drbg);
  while (enc.feed_from(in) > 0) {
  }
  return enc.finish();
}

namespace {

template <typename T>
ChunkedCompressResult compress_chunked_impl(std::span<const T> data,
                                            const Dims& dims,
                                            const sz::Params& params,
                                            core::Scheme scheme,
                                            BytesView key,
                                            const core::CipherSpec& spec,
                                            const ChunkedConfig& config,
                                            crypto::CtrDrbg* seed_drbg) {
  SZSEC_REQUIRE(data.size() == dims.count(), "data size mismatch");
  MemorySink sink;
  ChunkedConfig mem_config = config;
  mem_config.spool = FrameSpool::Backing::kMemory;
  ChunkedEncoder enc(sink, dtype_of<T>(), dims, params, scheme, key, spec,
                     mem_config, seed_drbg);
  enc.feed(BytesView(reinterpret_cast<const uint8_t*>(data.data()),
                     data.size() * sizeof(T)));
  ChunkedStreamResult r = enc.finish();
  ChunkedCompressResult out;
  out.archive = sink.take();
  out.chunk_count = r.chunk_count;
  out.stats = r.stats;
  out.times = std::move(r.times);
  return out;
}

}  // namespace

ChunkedCompressResult compress_chunked(std::span<const float> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_chunked_impl(data, dims, params, scheme, key, spec,
                               config, seed_drbg);
}

ChunkedCompressResult compress_chunked(std::span<const double> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const ChunkedConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  return compress_chunked_impl(data, dims, params, scheme, key, spec,
                               config, seed_drbg);
}

namespace {

/// Thrown by a partial IndexMemReader whose bytes end before the prelude
/// does: more input may complete it.  Deliberately not an Error, so no
/// corruption handler can mistake "not yet" for "damaged".  `more` is a
/// lower bound on the bytes still missing, so a reader can fetch them
/// without ever reading past a valid prelude.
struct NeedMoreInput {
  uint64_t more;
};

/// The prelude reader: ByteReader getters over buffered bytes, plus
/// crc_to_here() — the CRC-32 of every byte consumed so far, evaluated
/// immediately before the declared index CRC is read.  A `partial`
/// reader serves push-fed decoders: running out of bytes throws
/// NeedMoreInput, while every other failure is still CorruptError.
struct IndexMemReader {
  explicit IndexMemReader(BytesView a, bool partial = false)
      : r(a), archive(a), partial(partial) {}
  ByteReader r;
  BytesView archive;
  bool partial;
  uint64_t floor_end = 0;  ///< no valid prelude ends before this offset

  void need(size_t n) const {
    if (partial && r.remaining() < n) {
      const uint64_t floor =
          floor_end > archive.size() ? floor_end - archive.size() : 0;
      throw NeedMoreInput{std::max<uint64_t>(n - r.remaining(), floor)};
    }
  }
  uint8_t get_u8() {
    need(1);
    return r.get_u8();
  }
  uint32_t get_u32() {
    need(sizeof(uint32_t));
    return r.get_u32();
  }
  uint64_t get_varint() {
    if (partial) {
      // ByteReader reports truncation only when every remaining byte —
      // fewer than a varint's 10 — continues the varint.
      const size_t rem = std::min<size_t>(r.remaining(), 10);
      size_t i = 0;
      while (i < rem && (archive[r.pos() + i] & 0x80) != 0) ++i;
      if (i == r.remaining() && i < 10) need(i + 1);
    }
    return r.get_varint();
  }
  size_t pos() const { return r.pos(); }
  uint32_t crc_to_here() const { return crc32(archive.subspan(0, r.pos())); }
};

/// The one v3 prelude parser, shared by the in-memory and push-fed
/// decoders.  Entry offsets stay RELATIVE to body_start here;
/// read_chunk_index absolutizes them for its callers.
ChunkIndex parse_chunk_index(IndexMemReader& r) {
  SZSEC_CHECK_FORMAT(r.get_u32() == kChunkedMagic, "bad archive magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kChunkedVersion,
                     "unsupported archive version");
  ChunkIndex out;
  out.dims = read_dims(r);
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible chunk count");
  uint64_t expect_rel = 0;
  uint64_t expect_row = 0;
  for (uint64_t i = 0; i < count; ++i) {
    // Every entry left is four varints of at least a byte each, then the
    // CRC: a push-fed parse waits for that much before it retries, so a
    // huge index is re-parsed O(log count) times, not once per push.
    r.floor_end = r.pos() + 4 * (count - i) + sizeof(uint32_t);
    ChunkEntry e;
    e.offset = r.get_varint();  // relative until body_start is known
    e.frame_len = r.get_varint();
    e.row_start = r.get_varint();
    e.row_extent = r.get_varint();
    SZSEC_CHECK_FORMAT(e.offset == expect_rel, "index offsets not dense");
    SZSEC_CHECK_FORMAT(e.frame_len > 0, "empty frame");
    // row_extent is an unbounded varint here; phrase the bound
    // subtractively so row_start + row_extent can never wrap uint64_t
    // (row_start == expect_row <= dims[0] by induction).
    SZSEC_CHECK_FORMAT(e.row_start == expect_row &&
                           e.row_extent >= 1 &&
                           e.row_extent <= out.dims[0] - e.row_start,
                       "index rows inconsistent");
    expect_rel += e.frame_len;
    expect_row += e.row_extent;
    out.entries.push_back(e);
  }
  SZSEC_CHECK_FORMAT(expect_row == out.dims[0],
                     "chunks do not cover the field");
  const uint32_t computed = r.crc_to_here();
  const uint32_t declared = r.get_u32();
  SZSEC_CHECK_FORMAT(computed == declared, "index CRC mismatch");
  out.body_start = r.pos();
  return out;
}

}  // namespace

ChunkIndex read_chunk_index(BytesView archive) {
  IndexMemReader r(archive);
  ChunkIndex out = parse_chunk_index(r);
  for (ChunkEntry& e : out.entries) e.offset += out.body_start;
  return out;
}


Dims chunked_dims(BytesView archive) {
  return read_chunk_index(archive).dims;
}

std::optional<uint64_t> parse_seek_trailer(BytesView trailer,
                                           uint64_t archive_size) {
  if (trailer.size() != kSeekTrailerSize) return std::nullopt;
  ByteReader r(trailer);
  const uint32_t footer_len = r.get_u32();
  if (r.get_u32() != kSeekTrailerMagic) return std::nullopt;
  // The magic IS present: from here every inconsistency is corruption of
  // a footer that once existed, not "no footer".
  SZSEC_CHECK_FORMAT(archive_size >= kSeekTrailerSize &&
                         footer_len <= archive_size - kSeekTrailerSize,
                     "seek footer length exceeds archive");
  return footer_len;
}

SeekTable parse_seek_footer(BytesView footer, uint64_t archive_size) {
  SZSEC_CHECK_FORMAT(archive_size >= footer.size() + kSeekTrailerSize,
                     "seek footer larger than archive");
  // Frames live strictly before the footer; a footer entry pointing into
  // the footer itself (or past the end) is forged.
  const uint64_t frame_region_end =
      archive_size - kSeekTrailerSize - footer.size();
  ByteReader r(footer);
  SZSEC_CHECK_FORMAT(r.get_u32() == kSeekFooterMagic,
                     "bad seek footer magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kSeekFooterVersion,
                     "unsupported seek footer version");
  const uint8_t dtype_byte = r.get_u8();
  SZSEC_CHECK_FORMAT(dtype_byte <= 1, "bad seek footer dtype");
  SeekTable out;
  out.dims = read_dims(r);
  out.dtype = dtype_byte == 0 ? sz::DType::kFloat32 : sz::DType::kFloat64;
  out.from_footer = true;
  out.plane = out.dims.count() / out.dims[0];
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible chunk count");
  uint64_t expect_off = 0;  // 0 = first entry (any prelude size)
  uint64_t expect_row = 0;
  for (uint64_t i = 0; i < count; ++i) {
    SeekEntry e;
    e.offset = r.get_varint();
    e.frame_len = r.get_varint();
    e.row_start = r.get_varint();
    e.row_extent = r.get_varint();
    e.elem_start = r.get_varint();
    e.elem_count = r.get_varint();
    SZSEC_CHECK_FORMAT(e.frame_len > 0, "empty frame");
    // Subtractive: offset and frame_len are untrusted varints whose sum
    // can wrap uint64_t (same idiom as the prelude index parse).
    SZSEC_CHECK_FORMAT(e.offset <= frame_region_end &&
                           e.frame_len <= frame_region_end - e.offset,
                       "seek entry extends past the frame region");
    SZSEC_CHECK_FORMAT(i == 0 || e.offset == expect_off,
                       "seek entry offsets not dense");
    SZSEC_CHECK_FORMAT(e.row_start == expect_row && e.row_extent >= 1 &&
                           e.row_extent <= out.dims[0] - e.row_start,
                       "seek entry rows inconsistent");
    // The element range is redundant with rows x plane; requiring exact
    // agreement is what catches a forged overlap/gap/overflow here (the
    // products cannot wrap: rows are bounded by dims[0] above, so both
    // sides are <= dims.count() <= kMaxElements).
    SZSEC_CHECK_FORMAT(e.elem_start == e.row_start * out.plane &&
                           e.elem_count == e.row_extent * out.plane,
                       "seek entry element range disagrees with rows");
    expect_off = e.offset + e.frame_len;
    expect_row += e.row_extent;
    out.entries.push_back(e);
  }
  SZSEC_CHECK_FORMAT(expect_row == out.dims[0],
                     "chunks do not cover the field");
  const uint32_t computed = crc32(footer.subspan(0, r.pos()));
  const uint32_t declared = r.get_u32();
  SZSEC_CHECK_FORMAT(computed == declared, "seek footer CRC mismatch");
  SZSEC_CHECK_FORMAT(r.pos() == footer.size(),
                     "seek footer has trailing bytes");
  return out;
}

uint64_t seek_footer_suffix_bytes(BytesView archive) noexcept {
  // Structural probe only: trailer framing plus the footer's leading
  // magic + version.  The salvage path calls this on damaged archives
  // where a full parse_seek_footer would rightly fail (frames dropped
  // or shifted out from under the footer's offsets), yet the footer
  // bytes themselves are still not field data and must not be counted
  // as unexplained damage.
  if (archive.size() < kSeekTrailerSize + 6) return 0;
  ByteReader t(archive.subspan(archive.size() - kSeekTrailerSize));
  uint32_t footer_len = 0;
  try {
    footer_len = t.get_u32();
    if (t.get_u32() != kSeekTrailerMagic) return 0;
  } catch (const Error&) {
    return 0;
  }
  if (footer_len < 6 ||
      footer_len > archive.size() - kSeekTrailerSize) {
    return 0;
  }
  ByteReader f(archive.subspan(
      archive.size() - kSeekTrailerSize - footer_len, footer_len));
  try {
    if (f.get_u32() != kSeekFooterMagic ||
        f.get_u8() != kSeekFooterVersion) {
      return 0;
    }
  } catch (const Error&) {
    return 0;
  }
  return footer_len + kSeekTrailerSize;
}

SeekTable seek_table_from_index(const ChunkIndex& index) {
  SeekTable out;
  out.dims = index.dims;
  out.from_footer = false;
  out.plane = index.dims.count() / index.dims[0];
  out.entries.reserve(index.entries.size());
  for (const ChunkEntry& e : index.entries) {
    out.entries.push_back(SeekEntry{e.offset, e.frame_len, e.row_start,
                                    e.row_extent, e.row_start * out.plane,
                                    e.row_extent * out.plane});
  }
  return out;
}

SeekTable read_seek_table(BytesView archive) {
  if (archive.size() >= kSeekTrailerSize) {
    const BytesView trailer =
        archive.subspan(archive.size() - kSeekTrailerSize);
    if (const std::optional<uint64_t> footer_len =
            parse_seek_trailer(trailer, archive.size())) {
      const size_t footer_start = archive.size() - kSeekTrailerSize -
                                  static_cast<size_t>(*footer_len);
      return parse_seek_footer(
          archive.subspan(footer_start,
                          static_cast<size_t>(*footer_len)),
          archive.size());
    }
  }
  return seek_table_from_index(read_chunk_index(archive));
}

std::vector<std::unique_ptr<WorkerState>> make_worker_states(size_t count,
                                                             BytesView key) {
  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    states.push_back(std::make_unique<WorkerState>(key));
  }
  return states;
}

namespace {

/// The strict decoder's framing check: chunk i's frame must parse, agree
/// with its index entry and pass its CRC.
FrameInfo indexed_frame(BytesView frame, size_t i, const ChunkEntry& e) {
  const std::optional<FrameInfo> f = parse_frame(frame, 0);
  SZSEC_CHECK_FORMAT(f.has_value(), "unparseable chunk frame");
  SZSEC_CHECK_FORMAT(f->chunk_id == i && f->row_start == e.row_start &&
                         f->row_extent == e.row_extent &&
                         f->frame_len == e.frame_len,
                     "frame disagrees with index");
  SZSEC_CHECK_FORMAT(f->crc_ok, "chunk CRC mismatch");
  return *f;
}

/// Turns a failed chunk decode into the strict decoders' typed error.
[[noreturn]] void throw_chunk_error(size_t i, const ChunkDecode& d) {
  const std::string msg = "chunk " + std::to_string(i) + ": " + d.error;
  if (d.crypto) throw CryptoError(msg);
  throw CorruptError(msg);
}

}  // namespace

/// The one strict v3 decoder (in-memory, streaming and sans-io): buffers
/// pushed bytes until the prelude parses, then cuts frames densely in
/// index order (their lengths come from the index) and decodes them on
/// the scheduler, writing each chunk's rows to the sink as it commits.
/// Bytes after the last indexed frame (a seek footer) are ignored.
struct ChunkedDecoder::Impl {
  Impl(ByteSink& sink, BytesView key, const ChunkedConfig& config)
      : out(sink),
        metrics(config.metrics),
        sched(ChunkSchedulerConfig{config.threads, config.max_in_flight}),
        workers(make_worker_states(sched.thread_count(), key)),
        run(
            sched,
            [this](size_t worker, size_t i, Bytes&& frame) {
              return produce(worker, i, std::move(frame));
            },
            [this](size_t i, ChunkDecode&& d) { commit(i, std::move(d)); }) {}

  ChunkDecode produce(size_t worker, size_t i, Bytes&& frame) {
    const FrameInfo f = indexed_frame(BytesView(frame), i, index->entries[i]);
    // Decode failures are error *values*: the commit turns them into
    // "chunk i: reason" in index order.  The dtype is checked at commit,
    // against the first chunk's.
    core::codec::DecodeOptions opts;
    opts.pool = &workers[worker]->scratch;
    ChunkDecode d = decode_chunk(f.container, f.row_extent, index->dims,
                                 std::nullopt, workers[worker]->runtimes,
                                 opts);
    frame_pool.release(std::move(frame));
    return d;
  }

  void commit(size_t i, ChunkDecode&& d) {
    if (!d.error.empty()) throw_chunk_error(i, d);
    if (!dtype_set) {
      res.dtype = d.r.dtype;
      dtype_set = true;
    } else if (d.r.dtype != res.dtype) {
      throw CorruptError("chunk " + std::to_string(i) +
                         ": container dtype mismatch");
    }
    const BytesView rows = core::element_bytes(d.r);
    out.write(rows);
    res.elements += rows.size() / sz::dtype_size(d.r.dtype);
    res.element_bytes += rows.size();
    if (metrics != nullptr) metrics->merge(d.r.times);
  }

  uint64_t wanted() const {
    if (!index) return prelude_ready_at - prelude.size();
    return run.pushed() < index->entries.size() ? body_left : 0;
  }

  /// Room for up to `n` more input bytes at the end of the buffer they
  /// belong to: the prelude until the index parses, then the frame being
  /// cut.  Never past wanted(), so whatever follows the last indexed
  /// frame (a seek footer, the next message) is left to the caller.
  std::span<uint8_t> space(size_t n) {
    // frame_len is an untrusted varint (only > 0 at index parse) and a
    // stream has no known total size to bound it against: never
    // allocate it upfront — a forged index naming ~2^64 would turn the
    // allocation into an untyped std::length_error/bad_alloc.  Buffers
    // grow by at most kGrowCap at a time, and only as bytes arrive.
    constexpr uint64_t kGrowCap = uint64_t{4} << 20;
    uint64_t room = wanted();
    Bytes* buf = &prelude;
    if (index) {
      const uint64_t len = index->entries[run.pushed()].frame_len;
      if (frame.empty()) {
        frame = frame_pool.acquire(
            static_cast<size_t>(std::min<uint64_t>(len, kGrowCap)));
      }
      room = len - frame.size();
      buf = &frame;
    }
    const size_t have = buf->size();
    buf->resize(have + static_cast<size_t>(std::min<uint64_t>(
                           {room, uint64_t{n}, kGrowCap})));
    return std::span<uint8_t>(*buf).subspan(have);
  }

  /// Keeps the first `n` bytes of the last space(), then parses the
  /// prelude or hands a completed frame to the scheduler.
  void took(std::span<uint8_t> to, size_t n) {
    Bytes& buf = index ? frame : prelude;
    buf.resize(buf.size() - (to.size() - n));
    if (index) {
      body_left -= n;
      if (frame.size() == index->entries[run.pushed()].frame_len) {
        run.push(std::exchange(frame, Bytes{}));
      }
    } else if (prelude.size() == prelude_ready_at) {
      parse_prelude();
    }
  }

  void parse_prelude() {
    try {
      IndexMemReader r(BytesView(prelude), /*partial=*/true);
      index = parse_chunk_index(r);
    } catch (const NeedMoreInput& e) {
      prelude_ready_at = prelude.size() + e.more;
      return;
    }
    // prelude_ready_at never passes the prelude's end (NeedMoreInput is
    // a lower bound), so the buffer held exactly the prelude.
    prelude = Bytes{};
    res.dims = index->dims;
    res.chunk_count = index->entries.size();
    // Frames are dense: the archive's indexed bytes end after the sum of
    // the (untrusted, so saturating) frame lengths.
    for (const ChunkEntry& e : index->entries) {
      body_left = e.frame_len > ~uint64_t{0} - body_left
                      ? ~uint64_t{0}
                      : body_left + e.frame_len;
    }
  }

  void feed(BytesView in) {
    while (!in.empty() && wanted() > 0) {
      const std::span<uint8_t> to = space(in.size());
      std::memcpy(to.data(), in.data(), to.size());
      in = in.subspan(to.size());
      took(to, to.size());
    }
  }

  size_t feed_from(ByteSource& src) {
    if (wanted() == 0) return 0;
    const std::span<uint8_t> to = space(std::numeric_limits<size_t>::max());
    const size_t n = src.read(to);
    took(to, n);
    return n;
  }

  ChunkedStreamDecodeResult finish() {
    if (!index) {
      // The last feeds may have stopped short of the next parse attempt:
      // damage in the bytes that did arrive still reports as itself.
      try {
        IndexMemReader r(BytesView(prelude), /*partial=*/true);
        parse_chunk_index(r);
      } catch (const NeedMoreInput&) {
      }
      SZSEC_CHECK_FORMAT(false, "truncated archive prelude");
    }
    run.finish();
    SZSEC_CHECK_FORMAT(run.pushed() == index->entries.size(),
                       "frame extends past archive end");
    out.flush();
    return res;
  }

  ByteSink& out;
  PipelineMetrics* metrics;
  ParallelChunkScheduler sched;
  const std::vector<std::unique_ptr<WorkerState>> workers;
  BufferPool frame_pool;
  Bytes prelude;  ///< pushed bytes buffered until the index parses
  uint64_t prelude_ready_at = sizeof(uint32_t);  ///< next parse attempt
  std::optional<ChunkIndex> index;
  uint64_t body_left = 0;  ///< indexed frame bytes not yet pushed
  Bytes frame;  ///< the frame being cut
  ChunkedStreamDecodeResult res;
  bool dtype_set = false;
  /// Last member: destroyed first (see ChunkedEncoder::Impl::run).
  ParallelChunkScheduler::OrderedRun<Bytes, ChunkDecode> run;
};

ChunkedDecoder::ChunkedDecoder(ByteSink& out, BytesView key,
                               const ChunkedConfig& config)
    : impl_(std::make_unique<Impl>(out, key, config)) {}

ChunkedDecoder::~ChunkedDecoder() = default;

uint64_t ChunkedDecoder::wanted() const { return impl_->wanted(); }

void ChunkedDecoder::feed(BytesView in) { impl_->feed(in); }

size_t ChunkedDecoder::feed_from(ByteSource& in) {
  return impl_->feed_from(in);
}

bool ChunkedDecoder::poll(bool wait) { return impl_->run.commit_one(wait); }

ChunkedStreamDecodeResult ChunkedDecoder::finish() { return impl_->finish(); }

ChunkedStreamDecodeResult decompress_chunked_stream(
    ByteSource& in, ByteSink& out, BytesView key,
    const ChunkedConfig& config) {
  ChunkedDecoder dec(out, key, config);
  while (dec.feed_from(in) > 0) {
    while (dec.poll()) {
    }
  }
  return dec.finish();
}

namespace {

/// Collects a decode's rows in a vector that grows as chunks commit:
/// nothing is sized from the dims the archive claims.
template <typename T>
struct ElementSink final : ByteSink {
  void write(BytesView data) override {
    const size_t at = bytes;
    bytes += data.size();
    elements.resize((bytes + sizeof(T) - 1) / sizeof(T));
    std::memcpy(reinterpret_cast<uint8_t*>(elements.data()) + at,
                data.data(), data.size());
  }
  std::vector<T> elements;
  size_t bytes = 0;
};

template <typename T>
std::vector<T> decompress_chunked_as(BytesView archive, BytesView key,
                                     const ChunkedConfig& config) {
  MemorySource in(archive);
  ElementSink<T> sink;
  const ChunkedStreamDecodeResult r =
      decompress_chunked_stream(in, sink, key, config);
  SZSEC_CHECK_FORMAT(r.dtype == dtype_of<T>(),
                     "chunk 0: container dtype mismatch");
  return std::move(sink.elements);
}

}  // namespace

std::vector<float> decompress_chunked_f32(BytesView archive, BytesView key,
                                          const ChunkedConfig& config) {
  return decompress_chunked_as<float>(archive, key, config);
}

std::vector<double> decompress_chunked_f64(BytesView archive, BytesView key,
                                           const ChunkedConfig& config) {
  return decompress_chunked_as<double>(archive, key, config);
}

namespace {

/// The f32 or f64 element vector of a SalvageResult / DecompressResult.
template <typename T, typename R>
std::vector<T>& salvage_field(R& out) {
  if constexpr (std::is_same_v<T, float>) {
    return out.f32;
  } else {
    return out.f64;
  }
}

template <typename T>
SalvageResult salvage_impl(BytesView archive, BytesView key,
                           const SalvageOptions& opts) {
  SalvageResult out;
  out.dtype = dtype_of<T>();
  std::vector<T>& field = salvage_field<T>(out);
  SalvageReport& rep = out.report;

  std::optional<ChunkIndex> index;
  try {
    index = read_chunk_index(archive);
  } catch (const Error&) {
  }
  rep.index_intact = index.has_value();

  // A trailing seek-table footer is framing, not field data: an indexed
  // offset landing in it means the frame is gone (truncated/dropped),
  // not corrupt, and its bytes are not unexplained damage.  The resync
  // scan below still covers the full archive, so a forged trailer can
  // never hide a recoverable frame.
  const uint64_t footer_suffix = seek_footer_suffix_bytes(archive);
  const uint64_t frame_region_end = archive.size() - footer_suffix;

  // Phase 1: locate a CRC-valid frame per chunk id.  With an intact
  // index, first try each chunk exactly where the index says (kOk); a
  // full resync scan then rescues chunks whose offsets no longer hold
  // (insertion, deletion, reordering) or, without an index, finds
  // everything we will ever know about.
  std::map<uint64_t, FrameInfo> found;          // id -> CRC-valid frame
  std::map<uint64_t, bool> relocated;       // id -> found via scan
  std::map<uint64_t, std::string> failure;  // id -> latest reason
  std::map<uint64_t, uint64_t> located_bad; // id -> damaged frame's length
  size_t resolved_at_index = 0;

  if (index) {
    for (size_t i = 0; i < index->entries.size(); ++i) {
      const ChunkEntry& e = index->entries[i];
      if (e.offset >= frame_region_end) {
        failure[i] = "frame offset past the frame region (truncated?)";
        continue;
      }
      const std::optional<FrameInfo> f = parse_frame(archive, e.offset);
      if (!f) {
        failure[i] = "no valid frame at indexed offset";
        located_bad[i] = e.frame_len;
        continue;
      }
      if (f->chunk_id != i || f->row_start != e.row_start ||
          f->row_extent != e.row_extent) {
        failure[i] = "frame fields disagree with index";
        // A CRC-valid frame here belongs to a *different* chunk (offsets
        // shifted by deletion/insertion) — chunk i itself may be gone,
        // so don't claim a damaged frame was located for it.
        if (!f->crc_ok) located_bad[i] = e.frame_len;
        continue;
      }
      if (!f->crc_ok) {
        failure[i] = "chunk CRC mismatch";
        located_bad[i] = e.frame_len;
        continue;
      }
      found.emplace(i, *f);
      relocated[i] = false;
      ++resolved_at_index;
    }
  }

  const bool need_scan =
      !index || resolved_at_index < index->entries.size();
  if (need_scan) {
    for (size_t pos = find_marker(archive, 0); pos < archive.size();
         pos = find_marker(archive, pos)) {
      const std::optional<FrameInfo> f = parse_frame(archive, pos);
      if (!f || !f->crc_ok) {
        ++pos;  // false positive or damaged frame: keep scanning
        continue;
      }
      if (index) {
        // The CRC-protected index is authoritative: a scanned frame may
        // only stand in for the chunk id it claims, at that id's rows.
        const bool known = f->chunk_id < index->entries.size();
        if (!known ||
            index->entries[f->chunk_id].row_start != f->row_start ||
            index->entries[f->chunk_id].row_extent != f->row_extent) {
          pos += kMarkerSize;
          continue;
        }
      }
      if (found.emplace(f->chunk_id, *f).second) {
        relocated[f->chunk_id] = true;
      }
      pos = f->offset + f->frame_len;
    }
  }

  // Phase 2: decode every located frame; learn field dims from the index
  // or from the first decodable chunk.
  std::optional<Dims> field_dims;
  if (index) field_dims = index->dims;

  struct Decoded {
    uint64_t chunk_id;
    uint64_t row_start;
    uint64_t row_extent;
    size_t frame_len;
    std::vector<T> data;
  };
  // Chunk decodes fan out across workers (each with its own runtime
  // cache + scratch pool); a corrupt chunk is an error *value*, never an
  // exception, so one bad worker result cannot abort the salvage.
  // Commits arrive in chunk-id order, keeping the report and the
  // first-come row-claiming below deterministic.
  std::vector<std::pair<uint64_t, const FrameInfo*>> jobs;
  jobs.reserve(found.size());
  for (auto& [id, f] : found) jobs.emplace_back(id, &f);

  ParallelChunkScheduler sched(ChunkSchedulerConfig{opts.threads, 0});
  const auto workers = make_worker_states(sched.thread_count(), key);
  std::vector<Decoded> decoded;
  uint64_t max_row_end = 0;
  // With an intact index the field dims are known before fan-out and
  // every worker validates against them; scan-only recovery learns them
  // from the first decodable chunk at commit time instead (plane checks
  // for later chunks then happen in the commit).
  const std::optional<Dims> produce_dims = field_dims;
  sched.run_ordered<ChunkDecode>(
      jobs.size(),
      [&](size_t worker, size_t j) {
        core::codec::DecodeOptions dopts;
        dopts.pool = &workers[worker]->scratch;
        return decode_chunk(jobs[j].second->container,
                            jobs[j].second->row_extent, produce_dims,
                            dtype_of<T>(), workers[worker]->runtimes, dopts);
      },
      [&](size_t j, ChunkDecode&& d) {
        const uint64_t id = jobs[j].first;
        const FrameInfo& f = *jobs[j].second;
        if (d.error.empty() && !produce_dims && field_dims) {
          d.error = check_plane(d.r.dims, *field_dims);
        }
        if (!d.error.empty()) {
          failure[id] = d.error;
          return;
        }
        if (!field_dims) {
          // Scan-only recovery: plane dims come from the chunk itself;
          // the slowest extent is completed below from row coverage.
          field_dims = d.r.dims;
        }
        max_row_end = std::max(max_row_end, f.row_start + f.row_extent);
        std::vector<T>& data = salvage_field<T>(d.r);
        decoded.push_back(Decoded{id, f.row_start, f.row_extent,
                                  f.frame_len, std::move(data)});
      });

  if (!field_dims) {
    // Nothing decodable at all: report whatever we know and bail out.
    rep.chunks_expected = index ? index->entries.size() : 0;
    rep.bytes_skipped = archive.size();
    if (index) {
      rep.elements_total = index->dims.count();
      for (size_t i = 0; i < index->entries.size(); ++i) {
        const ChunkEntry& e = index->entries[i];
        const bool located = found.count(i) || located_bad.count(i);
        rep.chunks.push_back(ChunkReport{
            i, located ? ChunkStatus::kCorrupt : ChunkStatus::kMissing,
            e.row_start, e.row_extent,
            found.count(i) ? found[i].frame_len
                           : (located_bad.count(i) ? located_bad[i] : 0),
            failure.count(i) ? failure[i] : "undecodable"});
      }
      out.dims = index->dims;
      field.assign(out.dims.count(),
                   opts.fill == FallbackFill::kNaN
                       ? std::numeric_limits<T>::quiet_NaN()
                       : T{0});
    }
    return out;
  }

  const uint64_t total_rows = index ? index->dims[0] : max_row_end;
  out.dims = parallel::slab_dims(*field_dims,
                                 static_cast<size_t>(total_rows));
  const size_t plane = out.dims.count() / out.dims[0];
  rep.elements_total = out.dims.count();

  // Phase 3: assemble.  Rows are claimed first-come (decoded is in
  // chunk-id order), so a duplicated or adversarially overlapping frame
  // cannot overwrite data a legitimate chunk already recovered.
  std::vector<uint8_t> row_claimed(out.dims[0], 0);
  field.assign(out.dims.count(), T{0});
  double mean_acc = 0;
  uint64_t mean_n = 0;
  uint64_t frame_bytes_recovered = 0;
  std::map<uint64_t, Decoded*> placed;
  for (Decoded& d : decoded) {
    if (d.row_start + d.row_extent > out.dims[0]) {
      failure[d.chunk_id] = "rows outside the field";
      continue;
    }
    bool overlap = false;
    for (uint64_t rw = d.row_start; rw < d.row_start + d.row_extent; ++rw) {
      if (row_claimed[rw]) overlap = true;
    }
    if (overlap) {
      failure[d.chunk_id] = "rows overlap an already-recovered chunk";
      continue;
    }
    for (uint64_t rw = d.row_start; rw < d.row_start + d.row_extent; ++rw) {
      row_claimed[rw] = 1;
    }
    std::copy(d.data.begin(), d.data.end(),
              field.begin() +
                  static_cast<std::ptrdiff_t>(d.row_start * plane));
    for (T v : d.data) mean_acc += v;
    mean_n += d.data.size();
    frame_bytes_recovered += d.frame_len;
    placed.emplace(d.chunk_id, &d);
  }

  // Fallback fill for unclaimed rows.
  T fill = T{0};
  if (opts.fill == FallbackFill::kNaN) {
    fill = std::numeric_limits<T>::quiet_NaN();
  } else if (opts.fill == FallbackFill::kMean && mean_n > 0) {
    fill = static_cast<T>(mean_acc / static_cast<double>(mean_n));
  }
  for (size_t rw = 0; rw < out.dims[0]; ++rw) {
    if (row_claimed[rw]) continue;
    std::fill_n(field.begin() + static_cast<std::ptrdiff_t>(rw * plane),
                plane, fill);
  }

  // Phase 4: the report, one entry per expected chunk in id order.  With
  // no index the expectation is reconstructed from the recovered frames:
  // row gaps between them are attributed to missing ids.
  rep.elements_recovered = mean_n;
  rep.chunks_recovered = placed.size();
  if (index) {
    rep.chunks_expected = index->entries.size();
    for (size_t i = 0; i < index->entries.size(); ++i) {
      const ChunkEntry& e = index->entries[i];
      ChunkReport cr;
      cr.chunk_id = i;
      cr.row_start = e.row_start;
      cr.row_extent = e.row_extent;
      if (auto it = placed.find(i); it != placed.end()) {
        cr.status = relocated[i] ? ChunkStatus::kRelocated : ChunkStatus::kOk;
        cr.frame_bytes = it->second->frame_len;
      } else if (found.count(i) || located_bad.count(i)) {
        cr.status = ChunkStatus::kCorrupt;
        cr.detail = failure.count(i) ? failure[i] : "undecodable";
        cr.frame_bytes = found.count(i) ? found[i].frame_len : located_bad[i];
      } else {
        cr.status = ChunkStatus::kMissing;
        cr.detail = failure.count(i) ? failure[i] : "no frame found";
      }
      rep.chunks.push_back(std::move(cr));
    }
    const uint64_t accounted =
        frame_bytes_recovered + index->body_start + footer_suffix;
    rep.bytes_skipped =
        archive.size() > accounted ? archive.size() - accounted : 0;
  } else {
    report_scan_only(rep, placed,
                     [](const Decoded* d) -> const Decoded& { return *d; });
    const uint64_t accounted = frame_bytes_recovered + footer_suffix;
    rep.bytes_skipped =
        archive.size() > accounted ? archive.size() - accounted : 0;
  }
  return out;
}

}  // namespace

SalvageResult decompress_salvage(BytesView archive, BytesView key,
                                 const SalvageOptions& opts) {
  return salvage_impl<float>(archive, key, opts);
}

SalvageResult decompress_salvage_f64(BytesView archive, BytesView key,
                                     const SalvageOptions& opts) {
  return salvage_impl<double>(archive, key, opts);
}

namespace {

/// Sliding window over pushed archive bytes for the single-pass salvage
/// scan: bytes are retained from `start()` (absolute stream offset) to
/// `end()`; the scanner drops everything behind its position, so the
/// window holds at most one frame plus scan slack beyond one push.
class ScanWindow {
 public:
  void append(BytesView in) { buf_.insert(buf_.end(), in.begin(), in.end()); }
  void close() { eof_ = true; }

  /// True when the window covers absolute offsets up to `abs_end`.  A
  /// scan step that is short of bytes before end-of-input suspends and
  /// resumes at the same position once more bytes arrive.
  bool ensure(uint64_t abs_end) const { return abs_end <= end(); }

  BytesView view() const { return BytesView(buf_).subspan(head_); }
  uint64_t start() const { return start_; }
  uint64_t end() const { return start_ + (buf_.size() - head_); }
  bool eof() const { return eof_; }

  /// Forgets window bytes before absolute offset `abs`.  The storage is
  /// compacted only once the forgotten prefix outweighs the rest, so a
  /// push holding many small frames costs linear time, not quadratic.
  void drop_before(uint64_t abs) {
    if (abs <= start_) return;
    const size_t n = std::min(static_cast<size_t>(abs - start_),
                              buf_.size() - head_);
    head_ += n;
    start_ += n;
    if (head_ > buf_.size() / 2) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  Bytes buf_;
  size_t head_ = 0;  ///< buf_ bytes already dropped
  uint64_t start_ = 0;
  bool eof_ = false;
};

/// Marker + varint fields + CRC: the longest possible frame header.
constexpr size_t kFrameHeadMax = kMarkerSize + 4 * 10 + sizeof(uint32_t);
/// A scanned frame claiming a container longer than this is treated as
/// a marker false-positive — the window (and therefore RSS) never grows
/// past one such cap during salvage.
constexpr uint64_t kMaxStreamContainer = uint64_t{1} << 31;
/// The prelude parse gives up past this many bytes; a (legitimate)
/// index larger than this degrades to scan-only recovery.
constexpr size_t kMaxStreamPrelude = size_t{16} << 20;
/// Read-ahead block of the blocking salvage loop.
constexpr size_t kScanBlock = size_t{256} << 10;

}  // namespace

/// The one streaming salvage: a resumable scan over pushed bytes.  Every
/// decision depends only on the bytes up to the scan position (plus a
/// bounded look-ahead that is awaited, not guessed), so the outcome is
/// the same however the input is split into pushes.
struct ChunkedSalvager::Impl {
  struct Placed {
    ChunkStatus status;
    uint64_t row_start;
    uint64_t row_extent;
    uint64_t frame_len;
  };

  Impl(ByteSink& sink, BytesView key, const SalvageOptions& opts)
      : out(sink), opts(opts), runtimes(key) {
    SZSEC_REQUIRE(opts.fill != FallbackFill::kMean,
                  "streaming salvage cannot compute a mean fill in one "
                  "pass; use kZeros or kNaN");
  }

  void build_fill_row() {
    fill_row.assign(plane * elem_size, 0);
    if (opts.fill == FallbackFill::kNaN) {
      if (res.dtype == sz::DType::kFloat32) {
        const float v = std::numeric_limits<float>::quiet_NaN();
        for (size_t i = 0; i < plane; ++i) {
          std::memcpy(fill_row.data() + i * sizeof(v), &v, sizeof(v));
        }
      } else {
        const double v = std::numeric_limits<double>::quiet_NaN();
        for (size_t i = 0; i < plane; ++i) {
          std::memcpy(fill_row.data() + i * sizeof(v), &v, sizeof(v));
        }
      }
    }
  }

  void emit_fill_rows(uint64_t rows) {
    for (uint64_t i = 0; i < rows; ++i) out.write(BytesView(fill_row));
  }

  /// Attempts a strict prelude parse over the buffered bytes: running
  /// out of bytes waits for more (up to kMaxStreamPrelude or the end of
  /// input), genuine corruption falls through to scan-only recovery at
  /// once (the buffered bytes stay in the window, so no frame hiding in
  /// a damaged prelude is lost).  Returns false while waiting.
  bool parse_prelude() {
    const BytesView v = win.view();
    if (!win.eof() && v.size() < prelude_ready_at) return false;
    try {
      IndexMemReader r(v.first(std::min(v.size(), kMaxStreamPrelude)),
                       /*partial=*/true);
      ChunkIndex idx = parse_chunk_index(r);
      for (ChunkEntry& e : idx.entries) e.offset += idx.body_start;
      index = std::move(idx);
    } catch (const NeedMoreInput& e) {
      prelude_ready_at = std::min<uint64_t>(v.size() + e.more,
                                            kMaxStreamPrelude);
      if (!win.eof() && v.size() < kMaxStreamPrelude) return false;
    } catch (const Error&) {
    }
    prelude_done = true;
    res.report.index_intact = index.has_value();
    if (index) {
      field_dims = index->dims;
      plane = index->dims.count() / index->dims[0];
      pos = index->body_start;
      win.drop_before(pos);
    }
    return true;
  }

  /// Runs the scan as far as the buffered bytes allow (to the end once
  /// the input is closed).
  void scan() {
    if (!prelude_done && !parse_prelude()) return;
    while (true) {
      // Hunt for the next marker.  Short of one before end-of-input:
      // keep only a marker-sized tail of unmatched bytes and suspend.
      const size_t rel =
          find_marker(win.view(), static_cast<size_t>(pos - win.start()));
      if (win.start() + rel >= win.end()) {
        if (win.eof()) return;  // input exhausted
        if (win.end() >= kMarkerSize) {
          pos = std::max(pos, win.end() - (kMarkerSize - 1));
        }
        win.drop_before(pos);
        return;
      }
      pos = win.start() + rel;
      if (!win.ensure(pos + kFrameHeadMax) && !win.eof()) {
        win.drop_before(pos);
        return;
      }
      const std::optional<FrameHead> fh =
          parse_frame_head(win.view().subspan(
              static_cast<size_t>(pos - win.start())));
      if (!fh || fh->container_len > kMaxStreamContainer) {
        ++pos;
        continue;
      }
      if (index) {
        // The CRC-protected index is authoritative: a scanned frame may
        // only stand in for the chunk id it claims, at that id's rows.
        if (fh->chunk_id >= index->entries.size() ||
            index->entries[fh->chunk_id].row_start != fh->row_start ||
            index->entries[fh->chunk_id].row_extent != fh->row_extent) {
          pos += kMarkerSize;
          continue;
        }
      }
      const uint64_t frame_len = fh->head_len + fh->container_len;
      if (!win.ensure(pos + frame_len)) {
        if (!win.eof()) {
          win.drop_before(pos);
          return;
        }
        ++pos;  // input ends inside this frame: scan what remains
        continue;
      }
      const BytesView container = win.view().subspan(
          static_cast<size_t>(pos - win.start()) + fh->head_len,
          static_cast<size_t>(fh->container_len));
      if (crc32(container) != fh->crc) {
        ++pos;  // damaged frame: keep scanning inside it
        continue;
      }
      if (placed.count(fh->chunk_id) == 0) take_frame(*fh, container);
      // Recovered, rejected, or a duplicate of an already-recovered
      // chunk: the scan resumes after the CRC-valid frame either way.
      pos += frame_len;
      win.drop_before(pos);
    }
  }

  /// A CRC-valid frame for a new chunk: decode, then emit in order.
  void take_frame(const FrameHead& fh, BytesView container) {
    const uint64_t frame_len = fh.head_len + fh.container_len;
    core::codec::DecodeOptions dopts;
    dopts.pool = &scratch;
    ChunkDecode d = decode_chunk(
        container, fh.row_extent, field_dims,
        have_dtype ? std::optional<sz::DType>(res.dtype) : std::nullopt,
        runtimes, dopts);
    if (d.error.empty() && fh.row_start < rows_done) {
      d.error = "rows precede already-emitted rows (single-pass order)";
    }
    if (!d.error.empty()) {
      failure[fh.chunk_id] = d.error;
      return;
    }
    if (!have_dtype) {
      res.dtype = d.r.dtype;
      elem_size = sz::dtype_size(d.r.dtype);
      have_dtype = true;
      if (!field_dims) {
        // Scan-only recovery: plane dims come from the chunk itself; the
        // slowest extent is completed from row coverage at the end.
        field_dims = d.r.dims;
        plane = field_dims->count() / (*field_dims)[0];
      }
      build_fill_row();
    }
    emit_fill_rows(fh.row_start - rows_done);
    const BytesView rows = core::element_bytes(d.r);
    out.write(rows);
    res.report.elements_recovered += rows.size() / elem_size;
    rows_done = fh.row_start + fh.row_extent;
    frame_bytes_recovered += frame_len;
    ChunkStatus status = ChunkStatus::kRelocated;
    if (index && pos == index->entries[fh.chunk_id].offset) {
      status = ChunkStatus::kOk;
    }
    placed.emplace(fh.chunk_id,
                   Placed{status, fh.row_start, fh.row_extent, frame_len});
  }

  ChunkedStreamSalvageResult finish() {
    win.close();
    scan();
    SalvageReport& rep = res.report;
    // Tail fill + report.
    if (index) {
      if (have_dtype && rows_done < index->dims[0]) {
        emit_fill_rows(index->dims[0] - rows_done);
        rows_done = index->dims[0];
      }
      res.dims = index->dims;
      rep.elements_total = index->dims.count();
      rep.chunks_expected = index->entries.size();
      for (size_t i = 0; i < index->entries.size(); ++i) {
        const ChunkEntry& e = index->entries[i];
        ChunkReport cr;
        cr.chunk_id = i;
        cr.row_start = e.row_start;
        cr.row_extent = e.row_extent;
        if (auto it = placed.find(i); it != placed.end()) {
          cr.status = it->second.status;
          cr.frame_bytes = it->second.frame_len;
        } else if (failure.count(i) != 0) {
          cr.status = ChunkStatus::kCorrupt;
          cr.detail = failure[i];
        } else {
          cr.status = ChunkStatus::kMissing;
          cr.detail = "no frame found";
        }
        rep.chunks.push_back(std::move(cr));
      }
      // Single-pass accounting: a trailing seek-table footer cannot be
      // recognized without look-ahead, so unlike the in-memory salvage its
      // bytes count as skipped here — an over-, never under-estimate.
      const uint64_t accounted =
          frame_bytes_recovered + index->body_start;
      rep.bytes_skipped =
          win.end() > accounted ? win.end() - accounted : 0;
    } else {
      if (field_dims) {
        res.dims = parallel::slab_dims(*field_dims,
                                       static_cast<size_t>(rows_done));
        rep.elements_total = res.dims.count();
      }
      report_scan_only(rep, placed,
                       [](const Placed& p) -> const Placed& { return p; });
      rep.bytes_skipped = win.end() > frame_bytes_recovered
                              ? win.end() - frame_bytes_recovered
                              : 0;
    }
    rep.chunks_recovered = placed.size();
    out.flush();
    return res;
  }

  ByteSink& out;
  const SalvageOptions opts;
  // Serial decode state: one runtime cache + scratch pool (the pass is
  // single-threaded by design — ordered emission is the whole point).
  RuntimeCache runtimes;
  BufferPool scratch;
  ScanWindow win;
  bool prelude_done = false;
  uint64_t prelude_ready_at = 0;  ///< window size for the next parse try
  std::optional<ChunkIndex> index;
  uint64_t pos = 0;  ///< absolute scan position
  std::map<uint64_t, Placed> placed;
  std::map<uint64_t, std::string> failure;
  uint64_t rows_done = 0;
  uint64_t frame_bytes_recovered = 0;
  bool have_dtype = false;
  size_t elem_size = 0;
  std::optional<Dims> field_dims;
  size_t plane = 0;
  Bytes fill_row;  ///< one row of fill values, built when dtype is known
  ChunkedStreamSalvageResult res;
};

ChunkedSalvager::ChunkedSalvager(ByteSink& out, BytesView key,
                                 const SalvageOptions& opts)
    : impl_(std::make_unique<Impl>(out, key, opts)) {}

ChunkedSalvager::~ChunkedSalvager() = default;

void ChunkedSalvager::feed(BytesView in) {
  impl_->win.append(in);
  impl_->scan();
}

ChunkedStreamSalvageResult ChunkedSalvager::finish() {
  return impl_->finish();
}

ChunkedStreamSalvageResult salvage_chunked_stream(ByteSource& in,
                                                  ByteSink& out,
                                                  BytesView key,
                                                  const SalvageOptions& opts) {
  ChunkedSalvager salvager(out, key, opts);
  Bytes block(kScanBlock);
  while (true) {
    const size_t n = in.read(std::span<uint8_t>(block));
    if (n == 0) break;
    salvager.feed(BytesView(block.data(), n));
  }
  return salvager.finish();
}

}  // namespace szsec::archive
