#include "parallel/slab.h"

#include <algorithm>
#include <optional>

#include "common/bufpool.h"
#include "core/codec.h"
#include "parallel/chunk_scheduler.h"

namespace szsec::parallel {

Dims slab_dims(const Dims& dims, size_t slab_extent) {
  size_t extents[Dims::kMaxRank] = {slab_extent};
  for (size_t i = 1; i < dims.rank(); ++i) extents[i] = dims[i];
  return Dims::from_extents(extents, dims.rank());
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

  // v1 puts each slab's length right before its container, so the
  // prelude goes out first and every slab as it commits: memory is the
  // scheduler's in-flight window, never the whole archive.
  CountingSink counted(&sink);
  ByteWriter w;
  w.put_u32(kArchiveMagic);
  w.put_u8(kArchiveVersion);
  w.put_u8(static_cast<uint8_t>(dims.rank()));
  for (size_t i = 0; i < dims.rank(); ++i) w.put_varint(dims[i]);
  w.put_varint(plan.count);
  counted.write(BytesView(w.take()));
  core::StatsSum stats;
  sched.run_ordered<core::CompressResult>(
      plan.count,
      [&](size_t, size_t i) {
        const std::span<const T> slab =
            data.subspan(plan.start[i] * plan.plane,
                         plan.extent[i] * plan.plane);
        return core::codec::encode_payload(
            cfg, slab, slab_dims(dims, plan.extent[i]), &drbgs[i]);
      },
      [&](size_t, core::CompressResult&& r) {
        ByteWriter len;
        len.put_varint(r.container.size());
        counted.write(BytesView(len.take()));
        counted.write(BytesView(r.container));
        stats.add(r.stats);
      });
  sink.flush();
  SlabCompressResult out;
  out.slab_count = plan.count;
  out.stats = stats.total();
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
  ParsedArchive out;
  out.dims = read_dims(r);
  const uint64_t count = r.get_varint();
  SZSEC_CHECK_FORMAT(count >= 1 && count <= out.dims[0],
                     "implausible slab count");
  for (uint64_t i = 0; i < count; ++i) out.slabs.push_back(r.get_blob());
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes after archive");
  return out;
}

/// Appends a decoded slab to the field; the field grows geometrically as
/// slabs commit, never from the dims the archive claims.
template <typename T>
void append(std::vector<T>& field, std::vector<T>&& slab) {
  if (field.empty()) {
    field = std::move(slab);
  } else {
    field.insert(field.end(), slab.begin(), slab.end());
  }
}

/// The v1 decoder.  `want` pins the element type (the typed entry
/// points); otherwise the first slab's header sets it.
SlabDecodeResult decode_slabs(BytesView archive, BytesView key,
                              const SlabConfig& config,
                              std::optional<sz::DType> want) {
  const ParsedArchive parsed = parse_archive(archive);
  const size_t plane = parsed.dims.count() / parsed.dims[0];

  // Every header is checked against the prelude before any slab decodes.
  // The checks size nothing: each slab's elements are allocated by
  // decode_payload, after it has checked the payload against its header.
  std::vector<core::Header> headers;
  size_t rows = 0;
  for (BytesView slab : parsed.slabs) {
    const core::Header h = core::peek_header(slab);
    if (!want) want = h.dtype;
    SZSEC_CHECK_FORMAT(h.dims.rank() == parsed.dims.rank(),
                       "slab rank mismatch");
    SZSEC_CHECK_FORMAT(h.dims.count() / h.dims[0] == plane &&
                           h.dims[0] <= parsed.dims[0] - rows,
                       "slab extent mismatch");
    SZSEC_CHECK_FORMAT(h.dtype == *want, "slab dtype mismatch");
    rows += h.dims[0];
    headers.push_back(h);
  }
  SZSEC_CHECK_FORMAT(rows == parsed.dims[0],
                     "slab extents do not cover the field");

  SlabDecodeResult out;
  out.slab_count = parsed.slabs.size();
  out.field.dims = parsed.dims;
  out.field.dtype = *want;
  // Key schedules are cached across slabs; inflate scratch is pooled.
  core::codec::RuntimeCache runtimes(key);
  BufferPool scratch;
  ParallelChunkScheduler sched(ChunkSchedulerConfig{config.threads, 0});
  sched.run_ordered<core::DecompressResult>(
      parsed.slabs.size(),
      [&](size_t, size_t i) {
        const core::Header& h = headers[i];
        core::CipherSpec spec{h.cipher_kind, h.cipher_mode};
        spec.authenticate = (h.flags & core::kFlagAuthenticated) != 0;
        const core::codec::CodecRuntime& runtime =
            runtimes.get(h.params, h.scheme, spec);
        core::codec::DecodeOptions opts;
        opts.pool = &scratch;
        return core::codec::decode_payload(runtime.config(), parsed.slabs[i],
                                           opts);
      },
      [&](size_t, core::DecompressResult&& r) {
        append(out.field.f32, std::move(r.f32));
        append(out.field.f64, std::move(r.f64));
      });
  return out;
}

}  // namespace

Dims archive_dims(BytesView archive) { return parse_archive(archive).dims; }

SlabDecodeResult decompress_slabs(BytesView archive, BytesView key,
                                  const SlabConfig& config) {
  return decode_slabs(archive, key, config, std::nullopt);
}

std::vector<float> decompress_slabs_f32(BytesView archive, BytesView key,
                                        const SlabConfig& config) {
  return decode_slabs(archive, key, config, sz::DType::kFloat32).field.f32;
}

std::vector<double> decompress_slabs_f64(BytesView archive, BytesView key,
                                         const SlabConfig& config) {
  return decode_slabs(archive, key, config, sz::DType::kFloat64).field.f64;
}

}  // namespace szsec::parallel
