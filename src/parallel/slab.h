// Slab-parallel secure compression.
//
// Splits a field along its slowest dimension into independent slabs, each
// compressed (+encrypted) as a standalone szsec container on its own
// thread, and wraps them in a simple archive.  SZ's prediction never
// crosses the slab boundary, so the error bound is preserved exactly; the
// price is a slightly lower compression ratio (per-slab Huffman trees and
// broken cross-slab prediction), which the parallel ablation bench
// quantifies.
//
// Archive layout:
//   magic "SZSA" | u8 version | u8 rank | varint dims[rank]
//   varint slab_count | slab_count x (varint length, container bytes)
#pragma once

#include "core/secure_compressor.h"
#include "parallel/thread_pool.h"

namespace szsec::parallel {

inline constexpr uint32_t kArchiveMagic = 0x41535A53;  // "SZSA"
inline constexpr uint8_t kArchiveVersion = 1;

struct SlabConfig {
  /// Worker threads (0 = hardware concurrency).
  unsigned threads = 0;
  /// Number of slabs (0 = 2x threads, capped by the slowest extent).
  size_t slabs = 0;
};

/// How a field splits along its slowest dimension.  Shared by the slab
/// archive here and the fault-tolerant chunked archive (src/archive).
struct SlabPlan {
  size_t count = 0;
  std::vector<size_t> start;   ///< slowest-dim start per slab
  std::vector<size_t> extent;  ///< slowest-dim extent per slab
  size_t plane = 0;            ///< elements per slowest-dim index
};

/// Splits `dims` into `config.slabs` slabs (0 = 2x `threads`, clamped to
/// [1, dims[0]]); extents differ by at most one.
SlabPlan plan_slabs(const Dims& dims, const SlabConfig& config,
                    size_t threads);

/// Dims of one slab: `dims` with the slowest extent replaced.
Dims slab_dims(const Dims& dims, size_t slab_extent);

struct SlabCompressResult {
  Bytes archive;
  size_t slab_count = 0;
  /// Aggregate stats (sums over slabs; predictable_fraction is weighted).
  core::CompressStats stats;
};

/// Compresses `data` slab-parallel.  Parameters mirror
/// core::SecureCompressor; per-slab IVs are derived from `seed_drbg` (or
/// the global DRBG) before threads start, keeping the output
/// deterministic for a seeded DRBG.
SlabCompressResult compress_slabs(std::span<const float> data,
                                  const Dims& dims,
                                  const sz::Params& params,
                                  core::Scheme scheme, BytesView key,
                                  const core::CipherSpec& spec = {},
                                  const SlabConfig& config = {},
                                  crypto::CtrDrbg* seed_drbg = nullptr);
SlabCompressResult compress_slabs(std::span<const double> data,
                                  const Dims& dims,
                                  const sz::Params& params,
                                  core::Scheme scheme, BytesView key,
                                  const core::CipherSpec& spec = {},
                                  const SlabConfig& config = {},
                                  crypto::CtrDrbg* seed_drbg = nullptr);

/// compress_slabs, but the archive bytes are written to `out` instead
/// of materialized (SlabCompressResult::archive stays empty).  The v1
/// layout — each container preceded by its varint length — streams
/// naturally: the prelude is written first and each slab as it commits,
/// so memory is the in-flight window of slabs.  Bytes are identical to
/// the in-memory overloads.
SlabCompressResult compress_slabs_to(ByteSink& out,
                                     std::span<const float> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec = {},
                                     const SlabConfig& config = {},
                                     crypto::CtrDrbg* seed_drbg = nullptr);
SlabCompressResult compress_slabs_to(ByteSink& out,
                                     std::span<const double> data,
                                     const Dims& dims,
                                     const sz::Params& params,
                                     core::Scheme scheme, BytesView key,
                                     const core::CipherSpec& spec = {},
                                     const SlabConfig& config = {},
                                     crypto::CtrDrbg* seed_drbg = nullptr);

struct SlabDecodeResult {
  core::DecompressResult field;  ///< archive dims, dtype and elements
  size_t slab_count = 0;
};

/// Decompresses a slab archive produced by compress_slabs (also
/// thread-parallel); the dtype comes from the slab headers, which are
/// all checked against the prelude first.  The field then grows as
/// slabs decode and commit, never sized from the dims the archive
/// claims.  Requires the same key for encrypted schemes.
SlabDecodeResult decompress_slabs(BytesView archive, BytesView key,
                                  const SlabConfig& config = {});
/// decompress_slabs for archives of one element type (CorruptError
/// otherwise, before anything decodes).
std::vector<float> decompress_slabs_f32(BytesView archive, BytesView key,
                                        const SlabConfig& config = {});
std::vector<double> decompress_slabs_f64(BytesView archive, BytesView key,
                                         const SlabConfig& config = {});

/// Reads back the archive's field dims without decompressing.
Dims archive_dims(BytesView archive);

}  // namespace szsec::parallel
