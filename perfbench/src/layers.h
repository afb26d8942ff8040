// Per-layer probes of the traced run.  Each probe calls one layer's
// public functions directly, records a span around every call, checks
// the outputs, and turns the spans into per-layer metrics.
#pragma once

#include <span>
#include <vector>

#include "archive/seekable.h"
#include "common.h"

namespace perfbench {

/// One field as a workload codes it: the options it hands the C ABI.
struct CodecUnit {
  std::span<const float> field;
  Dims dims;
  szsec_options opts;  ///< v3 container, seeded IVs
  Bytes key;
  Bytes archive;  ///< what the library emits for these options
};

/// The C-ABI options every workload starts from: Encr-Huffman,
/// AES-128-CBC, v3 archive with seek footer, IVs seeded by `seed`.
szsec_options base_options(const Dims& dims, double eb, uint64_t chunks,
                           unsigned threads, uint64_t seed);

/// Replays every chunk of every unit serially: once through
/// codec::encode_payload/decode_payload and once through the stage
/// functions behind them (sz::predict_quantize, sz::huffman_encode_codes,
/// crypto::Cipher, codec::assemble_payload, zlite::deflate, and the
/// reverse).  Each replayed chunk must reproduce the library's chunk
/// container byte for byte and its PipelineMetrics byte counts.  Adds
/// the core.*, sz.*, huffman.*, crypto.* and zlite.* metrics, and
/// returns each unit's serial codec seconds, the numerator of the
/// archive layer's parallel efficiency.
struct SerialCodec {
  double encode_s = 0;
  double decode_s = 0;
};
std::vector<SerialCodec> replay_stages(const std::vector<CodecUnit>& units, Tracer& tr,
                          Metrics& out, Ops& ops);

/// Pairs the C-ABI streaming path with the library's own streaming
/// archive calls (archive::compress_chunked_stream /
/// decompress_chunked_stream) on the same unit and threads, `reps`
/// times.  Adds capi.* and archive.{encode,decode}_parallel_eff.
void handoff_probe(const CodecUnit& unit, int reps, const SerialCodec& serial,
                   Tracer& tr, Metrics& out, Ops& ops);

/// Small-ROI extracts through one SeekableReader.  Every extract is
/// compared with the matching slice of `reference` (the full decode).
struct ExtractTally {
  std::vector<double> latency_s;  ///< steal-free wall
  std::vector<double> wall_s;     ///< wall
  std::vector<double> cpu_s;      ///< CPU time of every thread
  uint64_t extracts = 0;
  uint64_t chunks_touched = 0;
  uint64_t bytes_read = 0;  ///< SeekableReader::bytes_read() deltas
  uint64_t roi_bytes = 0;
};
struct Roi {
  std::vector<size_t> origin, extent;
};
/// `count` ROIs, each spanning the boundary between two neighbouring
/// chunks (so every extract decodes exactly two chunks), taking the
/// boundaries in turn and placed within the planes from `seed`.
std::vector<Roi> boundary_rois(const szsec::archive::SeekTable& table,
                               const Dims& dims, size_t count,
                               uint64_t seed);
void run_extracts(szsec::archive::SeekableReader& reader,
                  const std::vector<Roi>& rois,
                  std::span<const float> reference, Tracer* tr,
                  uint32_t request, ExtractTally& tally, Ops& ops);
/// archive.open_ms, archive.extract_bytes_read_ratio,
/// archive.extract_chunks_per_read and archive.frame_overhead_bytes.
void archive_metrics(BytesView archive, const std::vector<double>& open_s,
                     const ExtractTally& tally, Metrics& out);

}  // namespace perfbench
