#include "parallel/slab.h"

#include <algorithm>

#include "common/bufpool.h"
#include "core/codec.h"
#include "parallel/chunk_scheduler.h"

namespace szsec::parallel {

Dims slab_dims(const Dims& dims, size_t slab_extent) {
  switch (dims.rank()) {
    case 1:
      return Dims{slab_extent};
    case 2:
      return Dims{slab_extent, dims[1]};
    case 3:
      return Dims{slab_extent, dims[1], dims[2]};
    default:
      return Dims{slab_extent, dims[1], dims[2], dims[3]};
  }
}

SlabPlan plan_slabs(const Dims& dims, const SlabConfig& config,
                    size_t threads) {
  SlabPlan plan;
  size_t want = config.slabs != 0 ? config.slabs : 2 * threads;
  want = std::clamp<size_t>(want, 1, dims[0]);
  plan.count = want;
  plan.plane = dims.count() / dims[0];
  const size_t base = dims[0] / want;
  const size_t extra = dims[0] % want;
  size_t pos = 0;
  for (size_t i = 0; i < want; ++i) {
    const size_t e = base + (i < extra ? 1 : 0);
    plan.start.push_back(pos);
    plan.extent.push_back(e);
    pos += e;
  }
  return plan;
}

namespace {

template <typename T>
SlabCompressResult compress_slabs_impl(ByteSink& sink,
                                       std::span<const T> data,
                                       const Dims& dims,
                                       const sz::Params& params,
                                       core::Scheme scheme, BytesView key,
                                       const core::CipherSpec& spec,
                                       const SlabConfig& config,
                                       crypto::CtrDrbg* seed_drbg) {
  SZSEC_REQUIRE(data.size() == dims.count(), "data size mismatch");
  ParallelChunkScheduler sched(ChunkSchedulerConfig{config.threads, 0});
  const SlabPlan plan = plan_slabs(dims, config, sched.thread_count());

  // Derive per-slab DRBGs up front so IV generation is race-free and
  // deterministic for a seeded master DRBG.
  crypto::CtrDrbg& master =
      seed_drbg != nullptr ? *seed_drbg : crypto::global_drbg();
  std::vector<crypto::CtrDrbg> drbgs;
  drbgs.reserve(plan.count);
  for (size_t i = 0; i < plan.count; ++i) {
    drbgs.emplace_back(BytesView(master.generate(32)));
  }

  // One runtime (key schedule + MAC key) shared by every slab worker.
  const core::codec::CodecRuntime runtime(params, scheme, key, spec);
  const core::codec::CodecConfig cfg = runtime.config();

  std::vector<core::CompressResult> results(plan.count);
  sched.run_ordered<core::CompressResult>(
      plan.count,
      [&](size_t, size_t i) {
        const std::span<const T> slab =
            data.subspan(plan.start[i] * plan.plane,
                         plan.extent[i] * plan.plane);
        return core::codec::encode_payload(
            cfg, slab, slab_dims(dims, plan.extent[i]), &drbgs[i]);
      },
      [&](size_t i, core::CompressResult&& r) { results[i] = std::move(r); });

  // The prelude is tiny; everything after it streams slab by slab
  // through the sink (v1's length-before-container layout needs no
  // backpatching, unlike the v3 index).
  CountingSink counted(&sink);
  SlabCompressResult out;
  out.slab_count = plan.count;
  {
    ByteWriter w;
    w.put_u32(kArchiveMagic);
    w.put_u8(kArchiveVersion);
    w.put_u8(static_cast<uint8_t>(dims.rank()));
    for (size_t i = 0; i < dims.rank(); ++i) w.put_varint(dims[i]);
    w.put_varint(plan.count);
    const Bytes prelude = w.take();
    counted.write(BytesView(prelude));
  }
  double weighted_predictable = 0;
  for (const core::CompressResult& r : results) {
    ByteWriter len;
    len.put_varint(r.container.size());
    const Bytes len_bytes = len.take();
    counted.write(BytesView(len_bytes));
    counted.write(BytesView(r.container));
    out.stats.raw_bytes += r.stats.raw_bytes;
    out.stats.payload_bytes += r.stats.payload_bytes;
    out.stats.tree_bytes += r.stats.tree_bytes;
    out.stats.codeword_bytes += r.stats.codeword_bytes;
    out.stats.unpredictable_bytes += r.stats.unpredictable_bytes;
    out.stats.unpredictable_count += r.stats.unpredictable_count;
    out.stats.element_count += r.stats.element_count;
    out.stats.encrypted_bytes += r.stats.encrypted_bytes;
    weighted_predictable +=
        r.stats.predictable_fraction * r.stats.element_count;
  }
  out.stats.predictable_fraction =
      out.stats.element_count == 0
          ? 0
          : weighted_predictable / out.stats.element_count;
  sink.flush();
  out.stats.container_bytes = counted.count();
  return out;
}

template <typename T>
SlabCompressResult compress_slabs_mem(std::span<const T> data,
                                      const Dims& dims,
                                      const sz::Params& params,
                                      core::Scheme scheme, BytesView key,
                                      const core::CipherSpec& spec,
                                      const SlabConfig& config,
                                      crypto::CtrDrbg* seed_drbg) {
  MemorySink mem;
  SlabCompressResult out = compress_slabs_impl(
      mem, data, dims, params, scheme, key, spec, config, seed_drbg);
  out.archive = mem.take();
  return out;
}

}  // namespace

SlabCompressResult compress_slabs(std::span<const float> data,
                                  const Dims& dims,
                                  const sz::Params& params,
                                  core::Scheme scheme, BytesView key,
                                  const core::CipherSpec& spec,
                                  const SlabConfig& config,
                                  crypto::CtrDrbg* seed_drbg) {
  return compress_slabs_mem(data, dims, params, scheme, key, spec, config,
                            seed_drbg);
}

SlabCompressResult compress_slabs(std::span<const double> data,
                                  const Dims& dims,
                                  const sz::Params& params,
                                  core::Scheme scheme, BytesView key,
                                  const core::CipherSpec& spec,
                                  const SlabConfig& config,
                                  crypto::CtrDrbg* seed_drbg) {
  return compress_slabs_mem(data, dims, params, scheme, key, spec, config,
                            seed_drbg);
}

SlabCompressResult compress_slabs_to(ByteSink& out,
                                     std::span<const float> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec,
                                     const SlabConfig& config,
                                     crypto::CtrDrbg* seed_drbg) {
  return compress_slabs_impl(out, data, dims, params, scheme, key, spec,
                             config, seed_drbg);
}

SlabCompressResult compress_slabs_to(ByteSink& out,
                                     std::span<const double> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec,
                                     const SlabConfig& config,
                                     crypto::CtrDrbg* seed_drbg) {
  return compress_slabs_impl(out, data, dims, params, scheme, key, spec,
                             config, seed_drbg);
}

namespace {

struct ParsedArchive {
  Dims dims;
  std::vector<BytesView> slabs;
};

ParsedArchive parse_archive(BytesView archive) {
  ByteReader r(archive);
  SZSEC_CHECK_FORMAT(r.get_u32() == kArchiveMagic, "bad archive magic");
  SZSEC_CHECK_FORMAT(r.get_u8() == kArchiveVersion,
                     "unsupported archive version");
  const uint8_t rank = r.get_u8();
  SZSEC_CHECK_FORMAT(rank >= 1 && rank <= Dims::kMaxRank, "bad rank");
  size_t extents[Dims::kMaxRank] = {};
  for (size_t i = 0; i < rank; ++i) {
    const uint64_t e = r.get_varint();
    SZSEC_CHECK_FORMAT(e > 0 && e <= Dims::kMaxExtent, "bad extent");
    extents[i] = static_cast<size_t>(e);
  }
  checked_field_elements(extents, rank);
  ParsedArchive out;
  switch (rank) {
    case 1:
      out.dims = Dims{extents[0]};
      break;
    case 2:
      out.dims = Dims{extents[0], extents[1]};
      break;
    case 3:
      out.dims = Dims{extents[0], extents[1], extents[2]};
      break;
    default:
      out.dims = Dims{extents[0], extents[1], extents[2], extents[3]};
  }
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible slab count");
  for (uint64_t i = 0; i < count; ++i) out.slabs.push_back(r.get_blob());
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after archive");
  return out;
}

template <typename T>
std::vector<T> decompress_slabs_impl(BytesView archive, BytesView key,
                                     const SlabConfig& config) {
  const ParsedArchive parsed = parse_archive(archive);
  std::vector<T> out(parsed.dims.count());
  const size_t plane = parsed.dims.count() / parsed.dims[0];
  constexpr sz::DType kWant = std::is_same_v<T, float>
                                  ? sz::DType::kFloat32
                                  : sz::DType::kFloat64;

  // Peek every header up front to learn slab extents and validate the
  // archive is internally consistent.
  std::vector<size_t> offsets;
  std::vector<core::Header> headers;
  size_t pos = 0;
  for (BytesView slab : parsed.slabs) {
    const core::Header h = core::peek_header(slab);
    SZSEC_CHECK_FORMAT(h.dims.rank() == parsed.dims.rank(),
                       "slab rank mismatch");
    SZSEC_CHECK_FORMAT(h.dims.count() % plane == 0, "slab extent mismatch");
    SZSEC_CHECK_FORMAT(h.dtype == kWant, "slab dtype mismatch");
    offsets.push_back(pos);
    headers.push_back(h);
    pos += h.dims[0];
  }
  SZSEC_CHECK_FORMAT(pos == parsed.dims[0],
                     "slab extents do not cover the field");

  // Key schedules are cached across slabs; each slab reconstructs
  // straight into its slice of `out` with pooled inflate scratch.
  core::codec::RuntimeCache runtimes(key);
  BufferPool scratch;
  ParallelChunkScheduler sched(ChunkSchedulerConfig{config.threads, 0});
  sched.run_ordered<bool>(parsed.slabs.size(), [&](size_t, size_t i) {
    const core::Header& h = headers[i];
    core::CipherSpec spec{h.cipher_kind, h.cipher_mode};
    spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
    const core::codec::CodecRuntime& runtime =
        runtimes.get(h.params, h.scheme, spec);
    core::codec::DecodeOptions opts;
    opts.pool = &scratch;
    const std::span<T> slice =
        std::span<T>(out).subspan(offsets[i] * plane, h.dims.count());
    if constexpr (std::is_same_v<T, float>) {
      opts.into_f32 = slice;
    } else {
      opts.into_f64 = slice;
    }
    (void)core::codec::decode_payload(runtime.config(), parsed.slabs[i],
                                      opts);
    return true;
  }, [](size_t, bool&&) {});
  return out;
}

}  // namespace

Dims archive_dims(BytesView archive) { return parse_archive(archive).dims; }

std::vector<float> decompress_slabs_f32(BytesView archive, BytesView key,
                                        const SlabConfig& config) {
  return decompress_slabs_impl<float>(archive, key, config);
}

std::vector<double> decompress_slabs_f64(BytesView archive, BytesView key,
                                         const SlabConfig& config) {
  return decompress_slabs_impl<double>(archive, key, config);
}

}  // namespace szsec::parallel
