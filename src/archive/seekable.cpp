#include "archive/seekable.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bufpool.h"
#include "core/container.h"
#include "parallel/chunk_scheduler.h"

namespace szsec::archive {

namespace {

using core::codec::RuntimeCache;
using parallel::ChunkSchedulerConfig;
using parallel::ParallelChunkScheduler;

template <typename T>
constexpr sz::DType dtype_of() {
  return std::is_same_v<T, float> ? sz::DType::kFloat32
                                  : sz::DType::kFloat64;
}

/// The prelude-fallback parse stops growing its window here, matching
/// the streaming salvage bound.
constexpr size_t kMaxSeekPrelude = size_t{16} << 20;

/// The per-worker ROI decode scratch of element type T.
template <typename T>
std::vector<std::vector<T>>& roi_scratch(
    std::vector<std::vector<float>>& f32,
    std::vector<std::vector<double>>& f64) {
  if constexpr (std::is_same_v<T, float>) {
    return f32;
  } else {
    return f64;
  }
}

/// Decode options reconstructing straight into `into`.
template <typename T>
core::codec::DecodeOptions decode_into(BufferPool* pool, std::span<T> into) {
  core::codec::DecodeOptions opts;
  opts.pool = pool;
  if constexpr (std::is_same_v<T, float>) {
    opts.into_f32 = into;
  } else {
    opts.into_f64 = into;
  }
  return opts;
}

/// Copies the ROI's intersection with one decoded chunk (global rows
/// [g_lo, g_hi), already clamped to both the chunk and the ROI) from
/// the chunk's row-major elements into the ROI-major output span.  The
/// innermost axis is copied as one contiguous run per middle-axis
/// coordinate.
template <typename T>
void gather_rows(const Dims& dims, std::span<const size_t> origin,
                 std::span<const size_t> extent, uint64_t chunk_row0,
                 std::span<const T> chunk, uint64_t g_lo, uint64_t g_hi,
                 std::span<T> out) {
  const size_t r = dims.rank();
  if (r == 1) {
    std::copy_n(chunk.begin() + static_cast<size_t>(g_lo - chunk_row0),
                static_cast<size_t>(g_hi - g_lo),
                out.begin() + static_cast<size_t>(g_lo - origin[0]));
    return;
  }
  size_t fstride[Dims::kMaxRank];  // field element stride per axis
  size_t ostride[Dims::kMaxRank];  // ROI element stride per axis
  fstride[r - 1] = 1;
  ostride[r - 1] = 1;
  for (size_t i = r - 1; i-- > 0;) {
    fstride[i] = fstride[i + 1] * dims[i + 1];
    ostride[i] = ostride[i + 1] * extent[i + 1];
  }
  const size_t run = extent[r - 1];
  for (uint64_t g = g_lo; g < g_hi; ++g) {
    const size_t cbase =
        static_cast<size_t>(g - chunk_row0) * fstride[0];
    const size_t obase = static_cast<size_t>(g - origin[0]) * ostride[0];
    size_t idx[Dims::kMaxRank] = {};  // middle-axis odometer
    while (true) {
      size_t coff = cbase + origin[r - 1];
      size_t ooff = obase;
      for (size_t a = 1; a + 1 < r; ++a) {
        coff += (origin[a] + idx[a]) * fstride[a];
        ooff += idx[a] * ostride[a];
      }
      std::copy_n(chunk.begin() + coff, run, out.begin() + ooff);
      if (r == 2) break;  // no middle axes: one run per row
      size_t a = r - 2;
      while (true) {
        if (++idx[a] < extent[a]) break;
        idx[a] = 0;
        if (a == 1) break;
        --a;
      }
      if (idx[1] == 0 && a == 1) break;  // odometer wrapped around
    }
  }
}

}  // namespace

SeekableReader::SeekableReader(std::unique_ptr<ByteSource> src,
                               BytesView key, const Options& options)
    : src_(std::move(src)),
      key_(key.begin(), key.end()),
      options_(options),
      runtimes_(key) {
  // size() is the capability probe: a pipe throws the typed IoError
  // (ESPIPE) right here, before any bytes move.
  archive_size_ = src_->size();

  // Trailer first: two positioned reads resolve the whole table when
  // the footer is present.
  std::optional<uint64_t> footer_len;
  if (archive_size_ >= kSeekTrailerSize) {
    uint8_t trailer[kSeekTrailerSize];
    const size_t got = pread_full(*src_, archive_size_ - kSeekTrailerSize,
                                  std::span<uint8_t>(trailer));
    bytes_read_ += got;
    SZSEC_CHECK_FORMAT(got == kSeekTrailerSize, "truncated archive");
    footer_len = parse_seek_trailer(
        BytesView(trailer, kSeekTrailerSize), archive_size_);
  }

  if (footer_len) {
    Bytes footer(static_cast<size_t>(*footer_len));
    const uint64_t start =
        archive_size_ - kSeekTrailerSize - *footer_len;
    const size_t got = pread_full(*src_, start, std::span<uint8_t>(footer));
    bytes_read_ += got;
    SZSEC_CHECK_FORMAT(got == footer.size(), "truncated seek footer");
    table_ = parse_seek_footer(BytesView(footer), archive_size_);
    dtype_ = *table_.dtype;
  } else {
    // Footer-less archive: strict-parse the prelude index over a
    // growing window (truncation retries with more bytes; genuine
    // corruption keeps failing and is rethrown).
    for (size_t want = 4096;; want *= 2) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(want, archive_size_));
      Bytes prefix(n);
      SZSEC_CHECK_FORMAT(
          pread_full(*src_, 0, std::span<uint8_t>(prefix)) == n,
          "truncated archive");
      try {
        table_ = seek_table_from_index(read_chunk_index(BytesView(prefix)));
        bytes_read_ += n;
        break;
      } catch (const Error&) {
        if (n == archive_size_ || want >= kMaxSeekPrelude) throw;
      }
    }
    // The index predates the footer and stores no dtype: peek the first
    // chunk's container header (frame head + container prefix).
    const SeekEntry& e0 = table_.entries.front();
    Bytes head(static_cast<size_t>(std::min<uint64_t>(e0.frame_len, 4096)));
    const size_t got =
        pread_full(*src_, e0.offset, std::span<uint8_t>(head));
    bytes_read_ += got;
    ByteReader r(BytesView(head.data(), got));
    SZSEC_CHECK_FORMAT(r.get_u64() == kResyncMarker,
                       "no frame at indexed offset");
    r.get_varint();  // chunk_id
    r.get_varint();  // row_start
    r.get_varint();  // row_extent
    r.get_varint();  // container_len
    r.get_u32();     // container_crc
    // The head window may truncate the container, so a full header
    // parse (which validates payload_size against the view) cannot run
    // here; the fixed container prefix up to the dtype byte is enough,
    // and every touched chunk revalidates its complete header when it
    // is actually decoded.
    SZSEC_CHECK_FORMAT(r.get_u32() == core::kMagic,
                       "no container at indexed offset");
    SZSEC_CHECK_FORMAT(r.get_u8() == core::kVersion,
                       "unsupported container version");
    r.get_u8();  // scheme
    r.get_u8();  // flags
    r.get_u8();  // cipher kind
    r.get_u8();  // cipher mode
    const uint8_t dt = r.get_u8();
    SZSEC_CHECK_FORMAT(dt <= 1, "unknown dtype");
    dtype_ = static_cast<sz::DType>(dt);
    table_.dtype = dtype_;
  }

  // Whichever path built the table, its frame spans must fit the actual
  // archive (a truncated footer-less file passes the prelude parse).
  for (const SeekEntry& e : table_.entries) {
    SZSEC_CHECK_FORMAT(e.offset <= archive_size_ &&
                           e.frame_len <= archive_size_ - e.offset,
                       "frame extends past archive end");
  }
}

SeekableReader::~SeekableReader() = default;

ParallelChunkScheduler& SeekableReader::pool() {
  if (!sched_) {
    sched_ = std::make_unique<ParallelChunkScheduler>(
        ChunkSchedulerConfig{options_.threads, options_.max_in_flight});
    workers_ = make_worker_states(sched_->thread_count(), BytesView(key_));
  }
  return *sched_;
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    std::unique_ptr<ByteSource> src, BytesView key,
    const Options& options) {
  SZSEC_REQUIRE(src != nullptr, "null source");
  return std::unique_ptr<SeekableReader>(
      new SeekableReader(std::move(src), key, options));
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    const std::string& path, BytesView key, const Options& options) {
  return open(std::make_unique<FileSource>(path), key, options);
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    std::FILE* file, BytesView key, const Options& options) {
  SZSEC_REQUIRE(file != nullptr, "null stream");
  return open(std::make_unique<FileSource>(file), key, options);
}

std::unique_ptr<SeekableReader> SeekableReader::open(
    BytesView archive, BytesView key, const Options& options) {
  return open(std::make_unique<MemorySource>(archive), key, options);
}

FrameInfo SeekableReader::fetch_frame(size_t i, Bytes& buf) {
  const SeekEntry& e = table_.entries[i];
  buf.resize(static_cast<size_t>(e.frame_len));
  const size_t got = pread_full(*src_, e.offset, std::span<uint8_t>(buf));
  bytes_read_ += got;
  SZSEC_CHECK_FORMAT(got == buf.size(), "frame extends past archive end");
  const std::optional<FrameInfo> f = parse_frame(BytesView(buf), 0);
  SZSEC_CHECK_FORMAT(f.has_value(), "unparseable chunk frame");
  SZSEC_CHECK_FORMAT(f->chunk_id == i && f->row_start == e.row_start &&
                         f->row_extent == e.row_extent &&
                         f->frame_len == e.frame_len,
                     "frame disagrees with seek table");
  SZSEC_CHECK_FORMAT(f->crc_ok, "chunk CRC mismatch");
  return *f;
}

template <typename T>
void SeekableReader::read_range_impl(uint64_t elem_lo, uint64_t elem_hi,
                                     std::span<T> out) {
  SZSEC_REQUIRE(dtype_ == dtype_of<T>(),
                "archive element type does not match the requested span");
  SZSEC_REQUIRE(elem_lo < elem_hi && elem_hi <= elements(),
                "element range out of bounds");
  SZSEC_REQUIRE(out.size() == elem_hi - elem_lo,
                "output span does not match the element range");

  // Chunks are sorted by elem_start and partition [0, elements()).
  const auto& entries = table_.entries;
  size_t c0 = 0;
  while (entries[c0].elem_start + entries[c0].elem_count <= elem_lo) ++c0;
  size_t c1 = c0;
  while (c1 < entries.size() && entries[c1].elem_start < elem_hi) ++c1;
  const size_t n = c1 - c0;

  struct Input {
    Bytes buf;
    FrameInfo frame;
  };
  struct Decoded {
    std::string error;
    std::vector<T> partial;  ///< boundary chunks only
  };

  const auto decode_one = [&](size_t chunk, const FrameInfo& f,
                              RuntimeCache& rc, BufferPool* pool,
                              Decoded& d) {
    const SeekEntry& e = entries[chunk];
    const bool full =
        e.elem_start >= elem_lo && e.elem_start + e.elem_count <= elem_hi;
    if (full) {
      const std::span<T> into = out.subspan(
          static_cast<size_t>(e.elem_start - elem_lo),
          static_cast<size_t>(e.elem_count));
      d.error = decode_chunk(f.container, f.row_extent, table_.dims,
                             dtype_of<T>(), rc, decode_into(pool, into))
                    .error;
    } else {
      d.partial.resize(static_cast<size_t>(e.elem_count));
      d.error = decode_chunk(f.container, f.row_extent, table_.dims,
                             dtype_of<T>(), rc,
                             decode_into(pool, std::span<T>(d.partial)))
                    .error;
    }
  };
  const auto commit_one = [&](size_t chunk, Decoded&& d) {
    if (!d.error.empty()) {
      throw CorruptError("chunk " + std::to_string(chunk) + ": " +
                         d.error);
    }
    if (d.partial.empty()) return;
    const SeekEntry& e = entries[chunk];
    const uint64_t lo = std::max(elem_lo, e.elem_start);
    const uint64_t hi = std::min(elem_hi, e.elem_start + e.elem_count);
    std::copy_n(d.partial.begin() + static_cast<size_t>(lo - e.elem_start),
                static_cast<size_t>(hi - lo),
                out.begin() + static_cast<size_t>(lo - elem_lo));
  };

  if (n == 1) {
    Bytes buf;
    const FrameInfo f = fetch_frame(c0, buf);
    Decoded d;
    decode_one(c0, f, runtimes_, &scratch_, d);
    commit_one(c0, std::move(d));
    return;
  }
  pool().run_ordered_fed<Input, Decoded>(
      n,
      [&](size_t j) {
        Input in;
        in.frame = fetch_frame(c0 + j, in.buf);
        return in;
      },
      [&](size_t worker, size_t j, Input&& in) {
        // Fully covered chunks write disjoint slices of `out` directly
        // on the worker; only boundary chunks go through a temporary.
        Decoded d;
        decode_one(c0 + j, in.frame, workers_[worker]->runtimes,
                   &workers_[worker]->scratch, d);
        return d;
      },
      [&](size_t j, Decoded&& d) { commit_one(c0 + j, std::move(d)); });
}

template <typename T>
void SeekableReader::read_roi_impl(std::span<const size_t> origin,
                                   std::span<const size_t> extent,
                                   std::span<T> out) {
  SZSEC_REQUIRE(dtype_ == dtype_of<T>(),
                "archive element type does not match the requested span");
  const size_t r = table_.dims.rank();
  SZSEC_REQUIRE(origin.size() == r && extent.size() == r,
                "ROI rank does not match the field rank");
  uint64_t roi_elems = 1;
  for (size_t i = 0; i < r; ++i) {
    SZSEC_REQUIRE(extent[i] >= 1 && origin[i] <= table_.dims[i] &&
                      extent[i] <= table_.dims[i] - origin[i],
                  "ROI exceeds the field extents");
    roi_elems *= extent[i];  // bounded by dims.count(), cannot wrap
  }
  SZSEC_REQUIRE(out.size() == roi_elems,
                "output span does not match the ROI extents");

  const uint64_t row_lo = origin[0];
  const uint64_t row_hi = origin[0] + extent[0];
  const auto& entries = table_.entries;
  size_t c0 = 0;
  while (entries[c0].row_start + entries[c0].row_extent <= row_lo) ++c0;
  size_t c1 = c0;
  while (c1 < entries.size() && entries[c1].row_start < row_hi) ++c1;
  const size_t n = c1 - c0;

  struct Input {
    Bytes buf;
    FrameInfo frame;
  };
  struct Decoded {
    std::string error;
  };

  // Decode the whole chunk into scratch, then gather the hyperslab
  // rows it owns.  Chunks own disjoint row ranges, so the gathered out
  // regions are disjoint too — gathering on the worker is safe.
  const auto decode_and_gather = [&](size_t chunk, const FrameInfo& f,
                                     RuntimeCache& rc, BufferPool* pool,
                                     std::vector<T>& scratch,
                                     Decoded& d) {
    const SeekEntry& e = entries[chunk];
    scratch.resize(static_cast<size_t>(e.elem_count));
    d.error = decode_chunk(f.container, f.row_extent, table_.dims,
                           dtype_of<T>(), rc,
                           decode_into(pool, std::span<T>(scratch)))
                  .error;
    if (!d.error.empty()) return;
    const uint64_t g_lo = std::max<uint64_t>(row_lo, e.row_start);
    const uint64_t g_hi =
        std::min<uint64_t>(row_hi, e.row_start + e.row_extent);
    gather_rows<T>(table_.dims, origin, extent, e.row_start,
                   std::span<const T>(scratch), g_lo, g_hi, out);
  };

  if (n == 1) {
    Bytes buf;
    const FrameInfo f = fetch_frame(c0, buf);
    std::vector<T> scratch;
    Decoded d;
    decode_and_gather(c0, f, runtimes_, &scratch_, scratch, d);
    if (!d.error.empty()) {
      throw CorruptError("chunk " + std::to_string(c0) + ": " + d.error);
    }
    return;
  }
  ParallelChunkScheduler& sched = pool();
  std::vector<std::vector<T>>& scratch = roi_scratch<T>(roi_f32_, roi_f64_);
  scratch.resize(sched.thread_count());
  sched.run_ordered_fed<Input, Decoded>(
      n,
      [&](size_t j) {
        Input in;
        in.frame = fetch_frame(c0 + j, in.buf);
        return in;
      },
      [&](size_t worker, size_t j, Input&& in) {
        Decoded d;
        decode_and_gather(c0 + j, in.frame, workers_[worker]->runtimes,
                          &workers_[worker]->scratch, scratch[worker], d);
        return d;
      },
      [&](size_t j, Decoded&& d) {
        if (!d.error.empty()) {
          throw CorruptError("chunk " + std::to_string(c0 + j) + ": " +
                             d.error);
        }
      });
}

void SeekableReader::read_range(uint64_t elem_lo, uint64_t elem_hi,
                                std::span<float> out) {
  read_range_impl<float>(elem_lo, elem_hi, out);
}

void SeekableReader::read_range(uint64_t elem_lo, uint64_t elem_hi,
                                std::span<double> out) {
  read_range_impl<double>(elem_lo, elem_hi, out);
}

void SeekableReader::read_roi(std::span<const size_t> origin,
                              std::span<const size_t> extent,
                              std::span<float> out) {
  read_roi_impl<float>(origin, extent, out);
}

void SeekableReader::read_roi(std::span<const size_t> origin,
                              std::span<const size_t> extent,
                              std::span<double> out) {
  read_roi_impl<double>(origin, extent, out);
}

}  // namespace szsec::archive
