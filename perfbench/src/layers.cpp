#include "layers.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>

#include "archive/chunked.h"
#include "core/codec.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "parallel/slab.h"
#include "sz/pipeline.h"
#include "zlite/zlite.h"

namespace perfbench {

using namespace szsec;
namespace codec = szsec::core::codec;

namespace {

sz::Params params_of(const szsec_options& o) {
  sz::Params p;
  p.abs_error_bound = o.abs_error_bound;
  p.quant_bins = o.quant_bins;
  p.block_side = o.block_side;
  return p;
}

core::CipherSpec spec_of(const szsec_options& o) {
  core::CipherSpec s;
  s.kind = static_cast<crypto::CipherKind>(o.cipher_kind);
  s.mode = static_cast<crypto::Mode>(o.cipher_mode);
  s.authenticate = o.authenticate != 0;
  return s;
}

archive::ChunkedConfig chunked_config(const szsec_options& o) {
  archive::ChunkedConfig c;
  c.threads = o.threads;
  c.chunks = static_cast<size_t>(o.chunks);
  c.spool = FrameSpool::Backing::kMemory;  // as the sans-io encoder does
  c.seek_table = o.seek_table != 0;
  return c;
}

void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// Stage byte counts the library reported must equal the replay's.
void expect_bytes(const PipelineMetrics& m, const char* stage, uint64_t in,
                  uint64_t out) {
  const StageMetric s = m.metric(stage);
  expect(s.bytes_in == in && s.bytes_out == out,
         std::string("replayed '") + stage + "' bytes " + std::to_string(in) +
             "->" + std::to_string(out) + " differ from the library's " +
             std::to_string(s.bytes_in) + "->" + std::to_string(s.bytes_out));
}

constexpr size_t kTag = crypto::Sha256::kDigestSize;

/// Writes into preallocated memory, as the C-ABI driver's output
/// callback does, so both sides of the handoff comparison pay the same
/// output cost.
class SpanSink final : public ByteSink {
 public:
  explicit SpanSink(std::span<uint8_t> dst) : dst_(dst) {}
  void write(BytesView d) override {
    expect(d.size() <= dst_.size() - n_, "output larger than expected");
    std::memcpy(dst_.data() + n_, d.data(), d.size());
    n_ += d.size();
  }
  BytesView bytes() const { return BytesView(dst_.data(), n_); }

 private:
  std::span<uint8_t> dst_;
  size_t n_ = 0;
};

bool same(BytesView a, BytesView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

szsec_options base_options(const Dims& dims, double eb, uint64_t chunks,
                           unsigned threads, uint64_t seed) {
  szsec_options o;
  szsec_options_init(&o);
  o.scheme = SZSEC_SCHEME_ENCR_HUFFMAN;
  o.cipher_kind = SZSEC_CIPHER_AES128;
  o.cipher_mode = SZSEC_MODE_CBC;
  o.container = SZSEC_CONTAINER_V3_CHUNKED;
  o.seek_table = 1;
  o.rank = static_cast<int>(dims.rank());
  for (size_t i = 0; i < dims.rank(); ++i) o.dims[i] = dims[i];
  o.abs_error_bound = eb;
  o.chunks = chunks;
  o.threads = threads;
  o.has_drbg_seed = 1;
  o.drbg_seed = seed;
  return o;
}

// ---------------------------------------------------------------------
// Stage replay

std::vector<SerialCodec> replay_stages(const std::vector<CodecUnit>& units,
                                       Tracer& tr, Metrics& out, Ops& ops) {
  std::vector<SerialCodec> serial(units.size());
  uint64_t raw = 0, elements = 0, unpredictable = 0, symbols = 0;
  uint64_t tree = 0, codeword = 0, cipher_in = 0, payload = 0, deflated = 0;
  uint64_t chunks = 0;
  std::vector<double> enc_ms, dec_ms;

  for (size_t u = 0; u < units.size(); ++u) {
    const CodecUnit& unit = units[u];
    const sz::Params params = params_of(unit.opts);
    const core::Scheme scheme = static_cast<core::Scheme>(unit.opts.scheme);
    const core::CipherSpec spec = spec_of(unit.opts);
    const codec::CodecRuntime runtime(params, scheme, BytesView(unit.key),
                                      spec);
    const codec::CodecConfig cfg = runtime.config();
    const crypto::Cipher cipher(spec.kind, BytesView(unit.key));

    // The archive splits the field and derives one IV generator per
    // chunk exactly like this (archive/chunked.cpp), so chunk i replays
    // with chunk i's IV.
    const parallel::SlabPlan plan = parallel::plan_slabs(
        unit.dims,
        parallel::SlabConfig{unit.opts.threads,
                             static_cast<size_t>(unit.opts.chunks)},
        unit.opts.threads);
    crypto::CtrDrbg master(unit.opts.drbg_seed);
    const archive::SeekTable table = archive::read_seek_table(
        BytesView(unit.archive));
    expect(table.entries.size() == plan.count,
           "archive chunk count differs from the slab plan");

    for (size_t i = 0; i < plan.count; ++i) {
      const uint32_t req = static_cast<uint32_t>(u * 1000 + i);
      const crypto::CtrDrbg chunk_drbg(BytesView(master.generate(32)));
      const std::span<const float> slab = unit.field.subspan(
          plan.start[i] * plan.plane, plan.extent[i] * plan.plane);
      const Dims cdims = parallel::slab_dims(unit.dims, plan.extent[i]);
      ++ops.attempted;
      try {
        const std::optional<archive::FrameInfo> frame =
            archive::parse_frame(BytesView(unit.archive),
                                 table.entries[i].offset);
        expect(frame && frame->crc_ok, "archive frame did not parse");

        // --- encode: the codec call, then its stages one by one.
        crypto::CtrDrbg lib_drbg = chunk_drbg;
        core::CompressResult res;
        {
          Scope s(&tr, "core.encode_payload", req, slab.size_bytes());
          res = codec::encode_payload(cfg, slab, cdims, &lib_drbg);
        }
        expect(std::equal(res.container.begin(), res.container.end(),
                          frame->container.begin(), frame->container.end()),
               "encode_payload output differs from the archive's chunk");

        crypto::CtrDrbg iv_drbg = chunk_drbg;
        const crypto::Iv iv = iv_drbg.generate_iv();
        sz::QuantizedField q;
        {
          Scope s(&tr, "sz.predict_quantize", req, slab.size_bytes());
          q = sz::predict_quantize(slab, cdims, params);
        }
        const uint64_t code_bytes = q.codes.size() * sizeof(uint32_t);
        expect_bytes(res.times, "predict+quantize", slab.size_bytes(),
                     code_bytes + q.unpredictable.size() +
                         q.side_info.size());
        sz::EncodedQuant enc;
        {
          Scope s(&tr, "huffman.encode", req, code_bytes);
          enc = sz::huffman_encode_codes(q);
        }
        expect_bytes(res.times, "huffman", code_bytes,
                     enc.tree.size() + enc.codewords.size());
        codec::PayloadView pv;
        pv.tree_or_cipher = BytesView(enc.tree);
        pv.codewords = BytesView(enc.codewords);
        pv.symbol_count = enc.symbol_count;
        pv.unpredictable = BytesView(q.unpredictable);
        pv.unpredictable_count = q.unpredictable_count;
        pv.side_info = BytesView(q.side_info);
        Bytes tree_ct, body;
        uint64_t encrypted = 0;
        if (scheme == core::Scheme::kEncrHuffman) {
          Scope s(&tr, "crypto.encrypt", req, enc.tree.size());
          tree_ct = cipher.encrypt(spec.mode, iv, BytesView(enc.tree));
          pv.tree_or_cipher = BytesView(tree_ct);
          encrypted = enc.tree.size();
        }
        Bytes pay;
        {
          Scope s(&tr, "core.assemble_payload", req);
          pay = codec::assemble_payload(scheme, pv);
        }
        {
          Scope s(&tr, "zlite.deflate", req, pay.size());
          body = zlite::deflate(BytesView(pay), params.lossless_level);
        }
        expect_bytes(res.times, "lossless", pay.size(), body.size());
        const uint64_t deflated_size = body.size();
        if (scheme == core::Scheme::kCmprEncr) {
          Scope s(&tr, "crypto.encrypt", req, body.size());
          encrypted = body.size();
          body = cipher.encrypt(spec.mode, iv, BytesView(body));
        } else if (scheme != core::Scheme::kEncrHuffman) {
          throw std::runtime_error("replay covers Encr-Huffman and Cmpr-Encr");
        }
        expect_bytes(res.times, "encrypt", encrypted,
                     scheme == core::Scheme::kCmprEncr ? body.size()
                                                       : tree_ct.size());
        const BytesView container(res.container);
        const size_t tag = spec.authenticate ? kTag : 0;
        const BytesView lib_body = container.subspan(
            container.size() - tag - body.size(), body.size());
        expect(std::equal(body.begin(), body.end(), lib_body.begin()),
               "replayed stage output differs from the codec's body");
        if (spec.authenticate) {
          Scope s(&tr, "crypto.mac_sign", req, container.size() - kTag);
          const crypto::Sha256::Digest d = crypto::hmac_sha256(
              cfg.auth_key, container.first(container.size() - kTag));
          expect(std::equal(d.begin(), d.end(),
                            container.end() - kTag),
                 "replayed MAC differs from the container's tag");
        }

        // --- decode: the codec call, then its stages in reverse.
        std::vector<float> lib_out(slab.size()), mine(slab.size());
        core::DecompressResult dres;
        {
          Scope s(&tr, "core.decode_payload", req, slab.size_bytes());
          codec::DecodeOptions o;
          o.into_f32 = std::span<float>(lib_out);
          dres = codec::decode_payload(cfg, container, o);
        }
        core::Header h;
        BytesView zin;
        {
          Scope s(&tr, "core.read_header", req);
          ByteReader r(container);
          h = core::read_header(r);
          zin = container.subspan(r.pos(), h.payload_size);
        }
        if (spec.authenticate) {
          Scope s(&tr, "crypto.mac_verify", req, container.size() - kTag);
          const crypto::Sha256::Digest d = crypto::hmac_sha256(
              cfg.auth_key, container.first(container.size() - kTag));
          expect(crypto::constant_time_equal(
                     BytesView(d), container.subspan(container.size() - kTag)),
                 "MAC check failed on replay");
        }
        Bytes plain;
        if (scheme == core::Scheme::kCmprEncr) {
          Scope s(&tr, "crypto.decrypt", req, zin.size());
          plain = cipher.decrypt(h.cipher_mode, h.iv, zin);
          zin = BytesView(plain);
        }
        Bytes inflated;
        {
          Scope s(&tr, "zlite.inflate", req, pay.size());
          inflated = zlite::inflate(zin, pay.size());
        }
        expect_bytes(dres.times, "lossless", zin.size(), inflated.size());
        codec::PayloadView dv;
        {
          Scope s(&tr, "core.parse_payload", req);
          dv = codec::parse_payload(h.scheme, BytesView(inflated));
        }
        BytesView tree_view = dv.tree_or_cipher;
        Bytes tree_plain;
        if (scheme == core::Scheme::kEncrHuffman) {
          Scope s(&tr, "crypto.decrypt", req, dv.tree_or_cipher.size());
          tree_plain = cipher.decrypt(h.cipher_mode, h.iv, dv.tree_or_cipher);
          tree_view = BytesView(tree_plain);
        }
        std::vector<uint32_t> codes;
        {
          Scope s(&tr, "huffman.decode", req, code_bytes);
          codes = sz::huffman_decode_codes(tree_view, dv.codewords,
                                           dv.symbol_count);
        }
        expect_bytes(dres.times, "huffman",
                     tree_view.size() + dv.codewords.size(),
                     codes.size() * sizeof(uint32_t));
        {
          Scope s(&tr, "sz.reconstruct", req, slab.size_bytes());
          sz::reconstruct(h.params, h.dims, codes, dv.unpredictable,
                          dv.side_info, std::span<float>(mine));
        }
        expect(std::memcmp(mine.data(), lib_out.data(),
                           mine.size() * sizeof(float)) == 0,
               "replayed reconstruction differs from decode_payload");
        expect(within_eb(slab, lib_out, params.abs_error_bound),
               "chunk decode exceeds the error bound");

        raw += slab.size_bytes();
        elements += q.codes.size();
        unpredictable += q.unpredictable_count;
        symbols += enc.symbol_count;
        tree += enc.tree.size();
        codeword += enc.codewords.size();
        cipher_in += encrypted;
        payload += pay.size();
        deflated += deflated_size;
        ++chunks;
      } catch (const std::exception& e) {
        ops.fail(std::string("stage replay: ") + e.what());
      }
    }
    const std::vector<double> e = tr.durations("core.encode_payload");
    const std::vector<double> d = tr.durations("core.decode_payload");
    for (size_t i = enc_ms.size(); i < e.size(); ++i) {
      serial[u].encode_s += e[i];
      enc_ms.push_back(e[i] * 1e3);
    }
    for (size_t i = dec_ms.size(); i < d.size(); ++i) {
      serial[u].decode_s += d[i];
      dec_ms.push_back(d[i] * 1e3);
    }
  }
  if (chunks == 0) return serial;

  auto secs = [&](const char* n) { return tr.total(n).seconds; };
  const double codec_enc = secs("core.encode_payload");
  const double codec_dec = secs("core.decode_payload");
  const double stages_enc = secs("sz.predict_quantize") +
                            secs("huffman.encode") + secs("crypto.encrypt") +
                            secs("core.assemble_payload") +
                            secs("zlite.deflate") + secs("crypto.mac_sign");
  const double stages_dec = secs("core.read_header") +
                            secs("crypto.mac_verify") +
                            secs("crypto.decrypt") + secs("zlite.inflate") +
                            secs("core.parse_payload") +
                            secs("huffman.decode") + secs("sz.reconstruct");
  const double r = static_cast<double>(raw);
  out["core.encode_payload_ms"] = {median(enc_ms), "ms"};
  out["core.decode_payload_ms"] = {median(dec_ms), "ms"};
  out["core.unaccounted_share_enc"] = {1.0 - stages_enc / codec_enc, "fraction"};
  out["core.unaccounted_share_dec"] = {1.0 - stages_dec / codec_dec, "fraction"};
  out["sz.predict_quantize_mbps"] = {r / kMB / secs("sz.predict_quantize"),
                                     "MB/s"};
  out["sz.reconstruct_mbps"] = {r / kMB / secs("sz.reconstruct"), "MB/s"};
  out["sz.predictable_fraction"] = {
      1.0 - static_cast<double>(unpredictable) / elements, "fraction"};
  out["huffman.encode_msym_s"] = {symbols / 1e6 / secs("huffman.encode"),
                                  "Msym/s"};
  out["huffman.decode_msym_s"] = {symbols / 1e6 / secs("huffman.decode"),
                                  "Msym/s"};
  out["huffman.tree_bytes_per_chunk"] = {
      static_cast<double>(tree) / chunks, "bytes"};
  out["huffman.bits_per_symbol"] = {8.0 * codeword / symbols, "bits"};
  out["crypto.encrypt_mbps"] = {
      tr.total("crypto.encrypt").bytes / kMB / secs("crypto.encrypt"), "MB/s"};
  out["crypto.decrypt_mbps"] = {
      tr.total("crypto.decrypt").bytes / kMB / secs("crypto.decrypt"), "MB/s"};
  out["crypto.bytes_per_raw_byte"] = {cipher_in / r, "fraction"};
  out["zlite.deflate_mbps"] = {payload / kMB / secs("zlite.deflate"), "MB/s"};
  out["zlite.inflate_mbps"] = {payload / kMB / secs("zlite.inflate"), "MB/s"};
  out["zlite.encode_share"] = {secs("zlite.deflate") / codec_enc, "fraction"};
  out["zlite.shrink"] = {static_cast<double>(deflated) / payload, "fraction"};
  return serial;
}

// ---------------------------------------------------------------------
// C-ABI handoff versus the library's streaming archive calls

void handoff_probe(const CodecUnit& unit, int reps, const SerialCodec& serial,
                   Tracer& tr, Metrics& out, Ops& ops) {
  const BytesView raw = as_bytes(unit.field);
  const double mib = raw.size() / kMiB;
  const sz::Params params = params_of(unit.opts);
  const core::Scheme scheme = static_cast<core::Scheme>(unit.opts.scheme);
  const core::CipherSpec spec = spec_of(unit.opts);
  const archive::ChunkedConfig cc = chunked_config(unit.opts);
  const BytesView key(unit.key);

  Bytes abi_archive, lib_archive(unit.archive.size());
  abi_archive.reserve(unit.archive.size());
  std::vector<uint8_t> abi_field(raw.size()), lib_field(raw.size());
  std::vector<double> abi_e, lib_e, abi_d, lib_d, call_ms, feeds, pulls;
  for (int r = 0; r < reps; ++r) {
    const uint32_t req = 900000 + static_cast<uint32_t>(r);
    ops.attempted += 2;
    try {
      const AbiRun e =
          abi_encode(unit.opts, key, raw, abi_archive, &tr, req);
      expect(abi_archive == unit.archive,
             "C-ABI archive differs from the library archive");

      crypto::CtrDrbg drbg(unit.opts.drbg_seed);
      MemorySource in(raw);
      SpanSink sink{std::span<uint8_t>(lib_archive)};
      double t0 = now_s();
      archive::compress_chunked_stream(in, sink, sz::DType::kFloat32,
                                       unit.dims, params, scheme, key, spec,
                                       cc, &drbg);
      const double lib_enc = now_s() - t0;
      tr.add("archive.compress_chunked_stream", req, t0, t0 + lib_enc,
             raw.size());
      expect(same(sink.bytes(), BytesView(unit.archive)),
             "compress_chunked_stream output differs from the archive");

      const AbiRun d = abi_decode(unit.opts, key, BytesView(abi_archive),
                                  std::span<uint8_t>(abi_field), &tr, req);
      MemorySource ain{BytesView(unit.archive)};
      SpanSink fsink{std::span<uint8_t>(lib_field)};
      t0 = now_s();
      archive::decompress_chunked_stream(ain, fsink, key, cc);
      const double lib_dec = now_s() - t0;
      tr.add("archive.decompress_chunked_stream", req, t0, t0 + lib_dec,
             raw.size());
      expect(same(fsink.bytes(), BytesView(abi_field)),
             "C-ABI decode differs from decompress_chunked_stream");
      expect(within_eb(unit.field,
                       std::span<const float>(
                           reinterpret_cast<const float*>(abi_field.data()),
                           unit.field.size()),
                       unit.opts.abs_error_bound),
             "C-ABI decode exceeds the error bound");

      abi_e.push_back(e.wall_s);
      lib_e.push_back(lib_enc);
      abi_d.push_back(d.wall_s);
      lib_d.push_back(lib_dec);
      call_ms.push_back((e.call_s + d.call_s) * 1e3 / mib);
      feeds.push_back(static_cast<double>(e.feed_calls + d.feed_calls));
      pulls.push_back(static_cast<double>(e.pull_calls + d.pull_calls));
    } catch (const std::exception& ex) {
      ops.fail(std::string("handoff probe: ") + ex.what());
    }
  }
  if (abi_e.empty()) return;
  const double threads = std::max(1u, unit.opts.threads);
  const double abi_enc = median(abi_e), abi_dec = median(abi_d);
  out["capi.pull_wait_ms_per_mib"] = {median(call_ms), "ms/MiB"};
  out["capi.feed_calls"] = {median(feeds), "count"};
  out["capi.pull_calls"] = {median(pulls), "count"};
  out["capi.handoff_share_enc"] = {(abi_enc - median(lib_e)) / abi_enc,
                                   "fraction"};
  out["capi.handoff_share_dec"] = {(abi_dec - median(lib_d)) / abi_dec,
                                   "fraction"};
  out["archive.encode_parallel_eff"] = {
      serial.encode_s / (threads * median(lib_e)), "fraction"};
  out["archive.decode_parallel_eff"] = {
      serial.decode_s / (threads * median(lib_d)), "fraction"};
}

// ---------------------------------------------------------------------
// Seekable extracts

std::vector<Roi> boundary_rois(const archive::SeekTable& table,
                               const Dims& dims, size_t count,
                               uint64_t seed) {
  if (table.entries.size() < 2) {
    throw std::runtime_error("ROI extracts need at least two chunks");
  }
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1Dull + 7);
  std::vector<Roi> rois;
  for (size_t k = 0; k < count; ++k) {
    // Round robin over the boundaries, so every seed reads every chunk
    // about equally often; the seed places the ROI within the planes.
    const size_t c = k % (table.entries.size() - 1);
    const auto& a = table.entries[c];
    const auto& b = table.entries[c + 1];
    const size_t before = std::min<size_t>(2, a.row_extent);
    const size_t after = std::min<size_t>(2, b.row_extent);
    Roi r;
    r.origin.push_back(static_cast<size_t>(b.row_start) - before);
    r.extent.push_back(before + after);
    for (size_t i = 1; i < dims.rank(); ++i) {
      const size_t e = std::min<size_t>(64, dims[i]);
      r.origin.push_back(rng() % (dims[i] - e + 1));
      r.extent.push_back(e);
    }
    rois.push_back(std::move(r));
  }
  return rois;
}

void run_extracts(archive::SeekableReader& reader,
                  const std::vector<Roi>& rois,
                  std::span<const float> reference, Tracer* tr,
                  uint32_t request, ExtractTally& tally, Ops& ops) {
  const Dims& dims = reader.dims();
  const size_t rank = dims.rank();
  std::vector<float> buf;
  for (const Roi& roi : rois) {
    size_t n = 1;
    for (size_t e : roi.extent) n *= e;
    buf.assign(n, 0.0f);
    ++ops.attempted;
    try {
      const uint64_t before = reader.bytes_read();
      const double c0 = perfbench::cpu_s();
      const Stamp s0 = stamp();
      reader.read_roi(roi.origin, roi.extent, std::span<float>(buf));
      const Stamp s1 = stamp();
      const double c1 = perfbench::cpu_s();
      if (tr) {
        tr->add("archive.extract", request, s0.t, s1.t, n * sizeof(float));
      }

      // Compare row by row (innermost extent) with the full decode.
      const size_t row = roi.extent[rank - 1];
      std::vector<size_t> idx(rank, 0);
      for (size_t off = 0; off < n; off += row) {
        size_t lin = 0;
        for (size_t i = 0; i < rank; ++i) {
          lin = lin * dims[i] + roi.origin[i] + idx[i];
        }
        if (std::memcmp(buf.data() + off, reference.data() + lin,
                        row * sizeof(float)) != 0) {
          throw std::runtime_error("extract differs from the full decode");
        }
        for (size_t i = rank - 1; i-- > 0;) {  // odometer over outer dims
          if (++idx[i] < roi.extent[i]) break;
          idx[i] = 0;
        }
      }
      tally.latency_s.push_back(steal_free_s(s0, s1));
      tally.wall_s.push_back(s1.t - s0.t);
      tally.cpu_s.push_back(c1 - c0);
      ++tally.extracts;
      tally.bytes_read += reader.bytes_read() - before;
      tally.roi_bytes += n * sizeof(float);
      for (const auto& e : reader.table().entries) {
        if (e.row_start < roi.origin[0] + roi.extent[0] &&
            roi.origin[0] < e.row_start + e.row_extent) {
          ++tally.chunks_touched;
        }
      }
    } catch (const std::exception& e) {
      ops.fail(std::string("extract: ") + e.what());
    }
  }
}

void archive_metrics(BytesView archive, const std::vector<double>& open_s,
                     const ExtractTally& tally, Metrics& out) {
  const archive::SeekTable table = archive::read_seek_table(archive);
  uint64_t containers = 0;
  for (const auto& e : table.entries) {
    const auto f = archive::parse_frame(archive, e.offset);
    if (f) containers += f->container.size();
  }
  out["archive.open_ms"] = {median(open_s) * 1e3, "ms"};
  out["archive.extract_bytes_read_ratio"] = {
      static_cast<double>(tally.bytes_read) / tally.roi_bytes, "x"};
  out["archive.extract_chunks_per_read"] = {
      static_cast<double>(tally.chunks_touched) / tally.extracts, "count"};
  out["archive.frame_overhead_bytes"] = {
      static_cast<double>(archive.size() - containers), "bytes"};
}

}  // namespace perfbench
