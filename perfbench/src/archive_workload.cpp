// archive-smooth / archive-sparse: one 64 MiB f32 field per run.  Every
// iteration encodes and decodes it through the C-ABI streaming calls
// (the sans-io path szsec_cli uses) and then extracts a batch of small
// ROIs through archive::SeekableReader.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "archive/seekable.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using namespace szsec;

namespace {

const Dims kDims{64, 512, 512};
constexpr double kEb = 1e-3;
constexpr uint64_t kChunks = 16;
constexpr unsigned kThreads = 4;
constexpr int kSetups = 3;
constexpr int kWarmup = 1;           // iterations excluded from timing
constexpr int kMinIterations = 8;    // measured, per traced/untraced half
// Decodes per iteration: a decode takes a quarter to a third of an
// encode, and more of them steady its median.
constexpr int kDecodes = 3;
constexpr size_t kExtractsPerIteration = 16;
constexpr size_t kMinExtracts = 100; // p90 needs ten samples beyond it
constexpr double kHardStopS = 120;   // give up rather than overrun

/// Timings of one half of a run (untraced, or traced in a traced run).
struct Half {
  std::vector<double> encode_mbps, decode_mbps;  ///< steal-free wall
  std::vector<double> encode_wall, decode_wall;  ///< MB/s, reported only
  std::vector<double> encode_cpu, decode_cpu;    ///< MB per CPU-s, reported
  std::vector<double> steal;  ///< steal share of each round trip
  std::vector<double> peak_rss;  ///< MiB, first kMinIterations iterations
  ExtractTally extracts;
};

std::vector<double> to_ms(const std::vector<double>& s) {
  std::vector<double> ms;
  for (double x : s) ms.push_back(x * 1e3);
  return ms;
}

Metrics e2e_metrics(const Half& h, double raw_bytes, double archive_bytes,
                    std::vector<std::string>& notes, const char* label) {
  const std::vector<double> ms = to_ms(h.extracts.latency_s);
  const std::vector<double> wall_ms = to_ms(h.extracts.wall_s);
  double extract_s = 0;
  for (double s : h.extracts.latency_s) extract_s += s;
  Metrics m;
  m["encode_mbps"] = {median(h.encode_mbps), "MB/s"};
  m["decode_mbps"] = {median(h.decode_mbps), "MB/s"};
  m["ratio"] = {raw_bytes / archive_bytes, "x"};
  m["extract_p50_ms"] = {quantile(ms, 0.5), "ms"};
  m["extract_p90_ms"] = {quantile(ms, 0.9), "ms"};
  // A job of an archive workload is one ROI extract request.
  m["job_p50_ms"] = m["extract_p50_ms"];
  m["job_p90_ms"] = m["extract_p90_ms"];
  m["jobs_per_s"] = {static_cast<double>(ms.size()) / extract_s, "1/s"};
  // The mean: which iterations catch many chunks in flight at once
  // depends on scheduling, and the median jumps between those modes.
  double rss = 0;
  for (double r : h.peak_rss) rss += r;
  m["peak_rss_mb"] = {rss / static_cast<double>(h.peak_rss.size()), "MiB"};
  char line[256];
  std::snprintf(line, sizeof line,
                "%s wall incl. steal (not metrics): encode %.4g MB/s, decode "
                "%.4g MB/s, extract p50 %.4g ms p90 %.4g ms min %.4g ms; "
                "median steal share %.3g",
                label, median(h.encode_wall), median(h.decode_wall),
                quantile(wall_ms, 0.5), quantile(wall_ms, 0.9),
                quantile(wall_ms, 0.0), median(h.steal));
  notes.push_back(line);
  std::snprintf(line, sizeof line,
                "%s CPU time of all threads (not metrics): encode %.4g MB/CPU-s"
                ", decode %.4g MB/CPU-s, extract p50 %.4g CPU-ms",
                label, median(h.encode_cpu), median(h.decode_cpu),
                median(to_ms(h.extracts.cpu_s)));
  notes.push_back(line);
  std::snprintf(line, sizeof line,
                "%s peak RSS of the first %d timed iterations: min %.4g MiB, "
                "median %.4g MiB, max %.4g MiB (the metric is their mean)",
                label, kMinIterations, quantile(h.peak_rss, 0),
                median(h.peak_rss), quantile(h.peak_rss, 1));
  notes.push_back(line);
  notes.push_back(std::string(label) + " samples: encode n=" +
                  std::to_string(h.encode_mbps.size()) + ", decode n=" +
                  std::to_string(h.decode_mbps.size()) +
                  ", extract n=" + std::to_string(ms.size()) +
                  (tail_ok(ms.size(), 0.9) ? "" : " (p90 below 10 beyond)"));
  return m;
}

}  // namespace

Outcome run_archive(const RunArgs& args, bool sparse) {
  Outcome out;
  Ops& ops = out.ops;
  const size_t n = kDims.count();

  // --- set-up: generate the seeded field kSetups times; every copy must
  // be identical (the generator is part of the determinism contract).
  std::vector<double> setup_s;
  std::vector<float> field;
  for (int k = 0; k < kSetups; ++k) {
    const Stamp s0 = stamp();
    std::vector<float> f = sparse ? sparse_field(kDims, args.seed)
                                  : smooth_field(kDims, args.seed);
    setup_s.push_back(steal_free_s(s0, stamp()));
    ++ops.attempted;
    if (k == 0) {
      field = std::move(f);
    } else if (f != field) {
      ops.fail("field generation is not deterministic");
    }
  }
  const BytesView raw = as_bytes(field);
  const szsec_options opts =
      base_options(kDims, kEb, kChunks, kThreads, args.seed);
  const Bytes key = key_for(args.seed);
  archive::SeekableReader::Options ropts;
  ropts.threads = kThreads;

  // --- measured loop.  A traced run alternates traced and untraced
  // iterations so both halves see the same machine state.
  Tracer tracer;
  Half halves[2];
  std::vector<double> open_s;
  Bytes arc, first_archive;
  arc.reserve(raw.size());
  std::vector<uint8_t> decoded(raw.size());
  const std::span<const float> decoded_f(
      reinterpret_cast<const float*>(decoded.data()), n);
  std::vector<Roi> rois;
  const double start = now_s();
  for (int it = 0;; ++it) {
    const bool traced = args.trace && it % 2 == 1;
    Half& half = halves[traced ? 1 : 0];
    const bool enough =
        now_s() - start >= args.seconds &&
        halves[0].encode_mbps.size() >= kMinIterations &&
        halves[0].extracts.extracts >= kMinExtracts &&
        (!args.trace || (halves[1].encode_mbps.size() >= kMinIterations &&
                         halves[1].extracts.extracts >= kMinExtracts));
    if (enough) break;
    if (now_s() - start > kHardStopS) {
      ++ops.attempted;
      ops.fail("too few samples before the hard stop");
      break;
    }
    const bool timed = it >= kWarmup * (args.trace ? 2 : 1);
    Tracer* tr = traced ? &tracer : nullptr;
    const uint32_t req = static_cast<uint32_t>(it);

    ops.attempted += 1 + kDecodes;
    try {
      // Each iteration starts from as little memory as the allocator gives
      // back: without the trim, allocator arenas keep whatever earlier
      // iterations left behind, and the peak would depend on which
      // threads allocated what in which run.
      ::malloc_trim(0);
      reset_peak_rss();
      const double mb = raw.size() / kMB;
      const double c0 = cpu_s();
      const Stamp s0 = stamp();
      abi_encode(opts, BytesView(key), raw, arc, tr, req);
      const Stamp s1 = stamp();
      const double c1 = cpu_s();
      if (first_archive.empty()) {
        first_archive = arc;
      } else if (arc != first_archive) {
        throw std::runtime_error("same seed produced different archive bytes");
      }
      if (timed) {
        half.encode_mbps.push_back(mb / steal_free_s(s0, s1));
        half.encode_wall.push_back(mb / (s1.t - s0.t));
        half.encode_cpu.push_back(mb / (c1 - c0));
      }
      Stamp s3 = s1;
      for (int k = 0; k < kDecodes; ++k) {
        const double c2 = cpu_s();
        const Stamp s2 = stamp();
        abi_decode(opts, BytesView(key), BytesView(arc),
                   std::span<uint8_t>(decoded), tr, req);
        s3 = stamp();
        const double c3 = cpu_s();
        if (!within_eb(field, decoded_f, kEb)) {
          throw std::runtime_error("full decode exceeds the error bound");
        }
        if (timed) {
          half.decode_mbps.push_back(mb / steal_free_s(s2, s3));
          half.decode_wall.push_back(mb / (s3.t - s2.t));
          half.decode_cpu.push_back(mb / (c3 - c2));
        }
      }
      if (timed) half.steal.push_back(steal_share(s0, s3));
    } catch (const std::exception& e) {
      ops.fail(std::string("archive round trip: ") + e.what());
      continue;
    }

    ++ops.attempted;
    std::unique_ptr<archive::SeekableReader> reader;
    try {
      const double t0 = now_s();
      reader = archive::SeekableReader::open(BytesView(arc), BytesView(key),
                                             ropts);
      if (tr) {
        const double t1 = now_s();
        tr->add("archive.open", req, t0, t1);
        open_s.push_back(t1 - t0);
      }
    } catch (const std::exception& e) {
      ops.fail(std::string("SeekableReader::open: ") + e.what());
      continue;
    }
    // One fixed ROI list per run, so the exact extract counts do not
    // depend on how many iterations fit in the run.
    if (rois.empty()) {
      rois = boundary_rois(reader->table(), kDims, kExtractsPerIteration,
                           args.seed);
    }
    ExtractTally warm;
    run_extracts(*reader, rois, decoded_f, tr, req,
                 timed ? half.extracts : warm, ops);
    // RSS after the trim still creeps up over the first iterations of a
    // run, so the figure comes from a fixed number of them, not from as
    // many as a faster or slower codec fits into the run.
    if (timed && half.peak_rss.size() < kMinIterations) {
      half.peak_rss.push_back(peak_rss_mib());
    }
  }

  const double ratio_den = static_cast<double>(first_archive.size());
  out.e2e = e2e_metrics(halves[0], raw.size(), ratio_den, out.notes,
                        args.trace ? "untraced" : "run");
  out.e2e["setup_s"] = {median(setup_s), "s"};
  out.notes.push_back("setup samples: n=" + std::to_string(setup_s.size()));
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.17g", raw.size() / ratio_den);
  out.notes.push_back(
      "exact: archive_sha256=" +
      to_hex(BytesView(crypto::Sha256::hash(BytesView(first_archive)))) +
      " archive_bytes=" + std::to_string(first_archive.size()) +
      " ratio=" + ratio);
  if (!args.trace) return out;

  out.e2e_traced =
      e2e_metrics(halves[1], raw.size(), ratio_den, out.notes, "traced");
  archive_metrics(BytesView(first_archive), open_s, halves[1].extracts,
                  out.layers);

  std::vector<CodecUnit> units(1);
  units[0] = CodecUnit{field, kDims, opts, key, first_archive};
  const std::vector<SerialCodec> serial =
      replay_stages(units, tracer, out.layers, ops);
  handoff_probe(units[0], 3, serial[0], tracer, out.layers, ops);

  // The daemon probe sends one chunk-sized slab of this field.
  const Dims slab_dims{kDims[0] / kChunks, kDims[1], kDims[2]};
  service_layer_probe(std::span<const float>(field).first(slab_dims.count()),
                      slab_dims, args, tracer, out.layers, ops);
  tracer.write_csv(args.workdir + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".csv");
  return out;
}

}  // namespace perfbench
