// service-mix: an in-process ServiceDaemon on a Unix socket with 2 pool
// threads and 2 tenants.  4 closed-loop clients, one thread each, send a
// seeded sequence of 60% compress and 40% decompress jobs on 1-4 MiB
// fields (the daemon's default 4 chunks).  Tenant "eh" uses
// Encr-Huffman; tenant "ce-auth" uses Cmpr-Encr with an HMAC tag.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "archive/chunked.h"
#include "layers.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/keyring.h"
#include "service/protocol.h"
#include "workloads.h"

namespace perfbench {

using namespace szsec;
using service::JobOp;
using service::JobRequest;
using service::JobResponse;

namespace {

constexpr unsigned kPoolThreads = 2;
constexpr size_t kClients = 4;  // closed loop: each waits for its reply
constexpr double kEb = 1e-3;
constexpr uint64_t kJobChunks = 4;  // the daemon's default
constexpr int kSetups = 3;
constexpr int kWarmupJobs = 2;              // per client, not timed
constexpr uint64_t kMinDecompressJobs = 100;  // p90 of decompress jobs
constexpr double kHardStopS = 120;
constexpr size_t kSizes = 4;  // 1, 2, 3 and 4 MiB fields

struct TenantSpec {
  const char* name;
  int scheme;  // SZSEC_SCHEME_*
  bool auth;
};
constexpr TenantSpec kTenants[2] = {
    {"eh", SZSEC_SCHEME_ENCR_HUFFMAN, false},
    {"ce-auth", SZSEC_SCHEME_CMPR_ENCR, true},
};

Dims size_dims(size_t s) { return Dims{4 * (s + 1), 256, 256}; }

/// C-ABI options of one (size, tenant) input, IVs seeded per input.
szsec_options job_options(size_t s, size_t t, uint64_t seed,
                          unsigned threads) {
  szsec_options o = base_options(size_dims(s), kEb, kJobChunks, threads,
                                 seed * 16 + s * 2 + t + 1);
  o.scheme = kTenants[t].scheme;
  o.authenticate = kTenants[t].auth ? 1 : 0;
  return o;
}

/// The daemon plus shadow copies of its tenants' derived data keys (the
/// same HKDF derivation, from the same masters), so the benchmark can
/// build decompress inputs and check compress outputs itself.
class Rig {
 public:
  Rig(uint64_t seed, const std::string& workdir, int instance) {
    socket_ = workdir + "/svc-" + std::to_string(::getpid()) + "-" +
              std::to_string(instance) + ".sock";
    service::TenantKeyring keyring, shadow;
    for (size_t t = 0; t < 2; ++t) {
      const Bytes master = key_for(seed * 31 + t + 1);
      keyring.add_key(kTenants[t].name, BytesView(master));
      shadow.add_key(kTenants[t].name, BytesView(master));
      keys_[t] = shadow.derive_data_key(kTenants[t].name, 0, 16)->key;
    }
    service::ServiceConfig cfg;
    cfg.socket_path = socket_;
    cfg.threads = kPoolThreads;
    cfg.default_chunks = kJobChunks;
    daemon_ =
        std::make_unique<service::ServiceDaemon>(cfg, std::move(keyring));
    daemon_->start();
  }
  ~Rig() { daemon_->stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const std::string& socket() const { return socket_; }
  const Bytes& key(size_t t) const { return keys_[t]; }
  service::ServiceDaemon& daemon() { return *daemon_; }

 private:
  std::string socket_;
  Bytes keys_[2];
  std::unique_ptr<service::ServiceDaemon> daemon_;
};

/// Seeded fields, and per tenant an archive of each (built through the
/// C ABI with the tenant's data key) plus its decode, the ground truth
/// of decompress jobs.
struct Inputs {
  std::vector<float> fields[kSizes];
  Bytes archives[kSizes][2];
  std::vector<uint8_t> decoded[kSizes][2];
};

void make_inputs(uint64_t seed, const Rig& rig, Inputs& in, Ops& ops) {
  for (size_t s = 0; s < kSizes; ++s) {
    in.fields[s] = smooth_field(size_dims(s), seed * 8 + s);
    const BytesView raw = as_bytes(in.fields[s]);
    for (size_t t = 0; t < 2; ++t) {
      // One codec thread keeps set-up time free of scheduling noise.
      const szsec_options o = job_options(s, t, seed, 1);
      const BytesView key(rig.key(t));
      in.decoded[s][t].resize(raw.size());
      ++ops.attempted;
      try {
        abi_encode(o, key, raw, in.archives[s][t], nullptr, 0);
        abi_decode(o, key, BytesView(in.archives[s][t]),
                   std::span<uint8_t>(in.decoded[s][t]), nullptr, 0);
        if (!within_eb(in.fields[s],
                       std::span<const float>(reinterpret_cast<const float*>(
                                                  in.decoded[s][t].data()),
                                              in.fields[s].size()),
                       kEb)) {
          throw std::runtime_error("exceeds the error bound");
        }
      } catch (const std::exception& e) {
        ops.fail(std::string("decompress-job input: ") + e.what());
      }
    }
  }
}

JobRequest compress_request(size_t t, std::span<const float> field,
                            const Dims& dims) {
  JobRequest r;
  r.op = JobOp::kCompress;
  r.tenant = kTenants[t].name;
  r.scheme = static_cast<core::Scheme>(kTenants[t].scheme);
  r.mode = crypto::Mode::kCbc;
  r.authenticate = kTenants[t].auth;
  r.dims = dims;
  r.have_dims = true;
  r.error_bound = kEb;
  const BytesView raw = as_bytes(field);
  r.payload.assign(raw.begin(), raw.end());
  return r;
}

JobRequest decompress_request(size_t t, const Bytes& archive) {
  JobRequest r;
  r.op = JobOp::kDecompress;
  r.tenant = kTenants[t].name;
  r.payload = archive;
  return r;
}

void check_status(const JobResponse& resp, const char* what, Ops& ops) {
  if (resp.status == service::Status::kOverloaded) ++ops.refused;
  if (!resp.ok()) {
    throw std::runtime_error(std::string(what) + " job: " +
                             service::to_string(resp.status) + ": " +
                             resp.detail);
  }
}

/// A compress job's archive must decode (with the shadow key) to within
/// the error bound of the field that was sent.
void check_archive(BytesView archive, uint64_t raw_bytes,
                   std::span<const float> field, const Bytes& key) {
  archive::ChunkedConfig cc;
  cc.threads = 1;
  const std::vector<float> back =
      archive::decompress_chunked_f32(archive, BytesView(key), cc);
  if (raw_bytes != field.size_bytes() || !within_eb(field, back, kEb)) {
    throw std::runtime_error("compress job output exceeds the error bound");
  }
}

void check_compress(const JobResponse& resp, std::span<const float> field,
                    const Bytes& key, Ops& ops) {
  check_status(resp, "compress", ops);
  check_archive(BytesView(resp.payload), resp.raw_bytes, field, key);
}

void check_decompress(const JobResponse& resp,
                      const std::vector<uint8_t>& expect, Ops& ops) {
  check_status(resp, "decompress", ops);
  if (resp.payload.size() != expect.size() ||
      std::memcmp(resp.payload.data(), expect.data(), expect.size()) != 0) {
    throw std::runtime_error("decompress job differs from ground truth");
  }
}

/// Checks compress-job archives off the clients' critical path: one
/// thread at the lowest scheduling priority, so the checks compete with
/// the daemon's workers only for otherwise idle CPU instead of adding
/// think time to the closed loop.  At most kPending archives wait,
/// which bounds the memory the checks hold.
class Verifier {
 public:
  Verifier(const Inputs& in, const Rig& rig) : in_(in), rig_(rig) {
    thread_ = std::thread([this] { run(); });
  }
  ~Verifier() { finish(); }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void push(uint8_t size, uint8_t tenant, Bytes archive, uint64_t raw_bytes) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return q_.size() < kPending; });
    q_.push_back({size, tenant, std::move(archive), raw_bytes});
    cv_.notify_all();
  }
  /// Checks everything queued, stops the thread, returns the tally.
  Ops finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
    return ops_;
  }

 private:
  static constexpr size_t kPending = 32;
  struct Item {
    uint8_t size, tenant;
    Bytes archive;
    uint64_t raw_bytes;
  };

  void run() {
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !q_.empty(); });
        if (q_.empty()) return;
        item = std::move(q_.front());
        q_.pop_front();
        cv_.notify_all();
      }
      ++ops_.attempted;
      try {
        check_archive(BytesView(item.archive), item.raw_bytes,
                      in_.fields[item.size], rig_.key(item.tenant));
      } catch (const std::exception& e) {
        ops_.fail(e.what());
      }
    }
  }

  const Inputs& in_;
  const Rig& rig_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> q_;
  bool done_ = false;
  Ops ops_;  ///< written by the verifier thread only, read after join
  std::thread thread_;
};

/// service.ping_rtt_ms, service.frame_encode_ms, service.frame_parse_ms.
void probe_wire(service::ServiceClient& client, const JobRequest& sample,
                Tracer& tr, Metrics& out, Ops& ops) {
  constexpr int kPings = 200;
  ops.attempted += kPings;
  double t0 = now_s();
  for (int i = 0; i < kPings; ++i) {
    if (!client.ping().ok()) ops.fail("ping");
  }
  double t1 = now_s();
  tr.add("service.ping_batch", 0, t0, t1, kPings);
  out["service.ping_rtt_ms"] = {(t1 - t0) * 1e3 / kPings, "ms"};

  std::vector<double> enc_ms, parse_ms;
  for (int i = 0; i < 10; ++i) {
    t0 = now_s();
    const Bytes frame = service::encode_request(sample);
    t1 = now_s();
    tr.add("service.encode_request", 0, t0, t1, frame.size());
    enc_ms.push_back((t1 - t0) * 1e3);
    // Frame = u32 magic | u64 body length | body.
    const BytesView body = BytesView(frame).subspan(12);
    t0 = now_s();
    const JobRequest back = service::parse_request(body);
    t1 = now_s();
    tr.add("service.parse_request", 0, t0, t1, body.size());
    parse_ms.push_back((t1 - t0) * 1e3);
    ++ops.attempted;
    if (back.payload != sample.payload) ops.fail("request frame round trip");
  }
  out["service.frame_encode_ms"] = {median(enc_ms), "ms"};
  out["service.frame_parse_ms"] = {median(parse_ms), "ms"};
}

void stats_metrics(service::ServiceDaemon& d, Metrics& out) {
  const service::ServiceStats s = d.stats();
  out["service.rejected_share"] = {
      s.jobs_completed == 0
          ? 0.0
          : static_cast<double>(s.jobs_rejected) / s.jobs_completed,
      "fraction"};
  out["service.peak_in_flight_mb"] = {s.peak_in_flight_bytes / kMiB, "MiB"};
}

/// One job of the mix.
struct Kind {
  bool compress;
  uint8_t size, tenant;
  int index() const { return (compress ? 0 : 1) * 8 + size * 2 + tenant; }
};

/// 40 jobs: per size, 6 compress and 4 decompress, split evenly between
/// the tenants.  Each client shuffles its own copy per cycle, so every
/// seed sends the same mix in a different order.
std::vector<Kind> make_deck() {
  std::vector<Kind> deck;
  for (uint8_t s = 0; s < kSizes; ++s) {
    for (uint8_t t = 0; t < 2; ++t) {
      for (int k = 0; k < 3; ++k) deck.push_back({true, s, t});
      for (int k = 0; k < 2; ++k) deck.push_back({false, s, t});
    }
  }
  return deck;
}

struct JobSample {
  Kind kind;
  bool traced;
  double latency_s;  ///< steal-free wall
  double wall_s;
  Stamp end;
  uint64_t raw_bytes, archive_bytes;
};

Metrics e2e_metrics(const std::vector<JobSample>& jobs, const Stamp& start,
                    std::vector<std::string>& notes, const char* label) {
  std::vector<double> all_ms, dec_ms, enc_mbps, dec_mbps, wall_ms;
  // Per compress-job kind: raw bytes, archive bytes, count.
  double kind_raw[16] = {}, kind_arc[16] = {}, kind_n[16] = {};
  Stamp end = start;
  for (const JobSample& j : jobs) {
    all_ms.push_back(j.latency_s * 1e3);
    wall_ms.push_back(j.wall_s * 1e3);
    if (j.end.t > end.t) end = j.end;
    if (j.kind.compress) {
      enc_mbps.push_back(j.raw_bytes / kMB / j.latency_s);
      kind_raw[j.kind.index()] += j.raw_bytes;
      kind_arc[j.kind.index()] += j.archive_bytes;
      ++kind_n[j.kind.index()];
    } else {
      dec_ms.push_back(j.latency_s * 1e3);
      dec_mbps.push_back(j.raw_bytes / kMB / j.latency_s);
    }
  }
  Metrics m;
  m["encode_mbps"] = {median(enc_mbps), "MB/s"};
  m["decode_mbps"] = {median(dec_mbps), "MB/s"};
  // The ratio of one deck's compress jobs (every kind equally often), so
  // it does not depend on which jobs happened to fit in the run.
  double raw = 0, arc = 0;
  for (int k = 0; k < 16; ++k) {
    if (kind_n[k] > 0) {
      raw += kind_raw[k] / kind_n[k];
      arc += kind_arc[k] / kind_n[k];
    }
  }
  m["ratio"] = {raw / arc, "x"};
  m["job_p50_ms"] = {quantile(all_ms, 0.5), "ms"};
  m["job_p90_ms"] = {quantile(all_ms, 0.9), "ms"};
  m["jobs_per_s"] = {jobs.size() / steal_free_s(start, end), "1/s"};
  // The extract of this workload is a decompress job: it returns field
  // values from an archive, as an ROI extract does on archive-*.
  m["extract_p50_ms"] = {quantile(dec_ms, 0.5), "ms"};
  m["extract_p90_ms"] = {quantile(dec_ms, 0.9), "ms"};
  char line[200];
  std::snprintf(line, sizeof line,
                "%s wall incl. steal (not metrics): job p50 %.4g ms p90 %.4g "
                "ms, shortest %.4g ms; steal share over the load %.3g",
                label, quantile(wall_ms, 0.5), quantile(wall_ms, 0.9),
                quantile(wall_ms, 0.0), steal_share(start, end));
  notes.push_back(line);
  notes.push_back(std::string(label) + " samples: jobs n=" +
                  std::to_string(all_ms.size()) + ", compress n=" +
                  std::to_string(enc_mbps.size()) + ", decompress n=" +
                  std::to_string(dec_ms.size()) +
                  (tail_ok(dec_ms.size(), 0.9) ? "" : " (p90 below 10 beyond)"));
  return m;
}

}  // namespace

Outcome run_service(const RunArgs& args) {
  Outcome out;
  Ops& ops = out.ops;

  // --- set-up, kSetups times: inputs, daemon, connected clients.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  Inputs in;
  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (int k = 0; k < kSetups; ++k) {
    clients.clear();
    rig.reset();
    const Stamp s0 = stamp();
    rig = std::make_unique<Rig>(args.seed, args.workdir, k);
    Inputs fresh;
    make_inputs(args.seed, *rig, fresh, ops);
    for (size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<service::ServiceClient>(rig->socket()));
      ++ops.attempted;
      if (!clients.back()->ping().ok()) ops.fail("ping after connect");
    }
    setup_s.push_back(steal_free_s(s0, stamp()));
    ++ops.attempted;
    if (k > 0 && fresh.archives[kSizes - 1][1] != in.archives[kSizes - 1][1]) {
      ops.fail("same seed built different decompress-job archives");
    }
    in = std::move(fresh);
  }

  Tracer tracer;
  Metrics& layers = out.layers;
  // Idle latency of every job kind, the base of service.queue_wait_ms.
  double idle_s[16] = {};
  if (args.trace) {
    const size_t big = kSizes - 1;
    probe_wire(*clients[0],
               compress_request(0, in.fields[big], size_dims(big)), tracer,
               layers, ops);
    for (const Kind& k : make_deck()) {
      if (idle_s[k.index()] != 0) continue;
      std::vector<double> lat;
      for (int r = 0; r < 3; ++r) {
        const JobRequest req =
            k.compress ? compress_request(k.tenant, in.fields[k.size],
                                          size_dims(k.size))
                       : decompress_request(k.tenant,
                                            in.archives[k.size][k.tenant]);
        const double t0 = now_s();
        const JobResponse resp = clients[0]->submit(req);
        lat.push_back(now_s() - t0);
        ++ops.attempted;
        try {
          if (k.compress) {
            check_compress(resp, in.fields[k.size], rig->key(k.tenant), ops);
          } else {
            check_decompress(resp, in.decoded[k.size][k.tenant], ops);
          }
        } catch (const std::exception& e) {
          ops.fail(e.what());
        }
      }
      idle_s[k.index()] = median(lat);
    }
  }

  // --- the closed loop.  In a traced run every other job of a client is
  // traced.
  std::atomic<uint64_t> decompress_done[2] = {0, 0};
  Stamp start;
  std::barrier warm(static_cast<std::ptrdiff_t>(kClients),
                    [&]() noexcept { start = stamp(); });
  std::vector<std::vector<JobSample>> samples(kClients);
  std::vector<Ops> client_ops(kClients);
  std::vector<Tracer> client_tr(kClients);
  Verifier verifier(in, *rig);
  auto client_main = [&](size_t c) {
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + c);
    std::vector<Kind> deck = make_deck();
    size_t pos = deck.size();
    Ops& cops = client_ops[c];
    for (int done = 0;; ++done) {
      if (done == kWarmupJobs) warm.arrive_and_wait();
      if (done >= kWarmupJobs) {
        const double elapsed = now_s() - start.t;
        const bool enough =
            elapsed >= args.seconds &&
            decompress_done[0].load() >= kMinDecompressJobs &&
            (!args.trace || decompress_done[1].load() >= kMinDecompressJobs);
        if (enough) break;
        if (elapsed > kHardStopS) {
          ++cops.attempted;
          cops.fail("too few samples before the hard stop");
          break;
        }
      }
      if (pos == deck.size()) {
        std::shuffle(deck.begin(), deck.end(), rng);
        pos = 0;
      }
      const Kind k = deck[pos++];
      const JobRequest req =
          k.compress
              ? compress_request(k.tenant, in.fields[k.size], size_dims(k.size))
              : decompress_request(k.tenant, in.archives[k.size][k.tenant]);
      const bool traced = args.trace && done % 2 == 1;
      ++cops.attempted;
      try {
        const Stamp s0 = stamp();
        JobResponse resp = clients[c]->submit(req);
        const Stamp s1 = stamp();
        if (traced) {
          client_tr[c].add(k.compress ? "service.compress_job"
                                      : "service.decompress_job",
                           static_cast<uint32_t>(c * 100000 + done), s0.t,
                           s1.t, req.payload.size());
        }
        const uint64_t raw = k.compress ? resp.raw_bytes : resp.payload.size();
        const uint64_t arc =
            k.compress ? resp.payload.size() : req.payload.size();
        if (k.compress) {
          check_status(resp, "compress", cops);
          verifier.push(k.size, k.tenant, std::move(resp.payload),
                        resp.raw_bytes);
        } else {
          check_decompress(resp, in.decoded[k.size][k.tenant], cops);
        }
        if (done >= kWarmupJobs) {
          samples[c].push_back({k, traced, steal_free_s(s0, s1), s1.t - s0.t,
                                s1, raw, arc});
          if (!k.compress) decompress_done[traced ? 1 : 0]++;
        }
      } catch (const std::exception& e) {
        cops.fail(e.what());
      }
    }
  };
  // Peak RSS per one-second window of the load, so one unlucky overlap of
  // in-flight jobs does not decide the run's figure.
  std::vector<double> rss_windows;
  {
    std::atomic<size_t> finished{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_main(c);
        ++finished;
      });
    }
    reset_peak_rss();
    double window_start = now_s();
    while (finished.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (now_s() - window_start >= 1.0) {
        rss_windows.push_back(peak_rss_mib());
        reset_peak_rss();
        window_start = now_s();
      }
    }
    for (std::thread& t : threads) t.join();
  }
  client_ops.push_back(verifier.finish());
  for (const Ops& o : client_ops) {
    ops.attempted += o.attempted;
    ops.failed += o.failed;
    ops.refused += o.refused;
  }
  std::vector<JobSample> halves[2];
  for (const auto& v : samples) {
    for (const JobSample& j : v) halves[j.traced ? 1 : 0].push_back(j);
  }

  out.e2e = e2e_metrics(halves[0], start, out.notes,
                        args.trace ? "untraced" : "run");
  out.e2e["setup_s"] = {median(setup_s), "s"};
  out.e2e["peak_rss_mb"] = {median(rss_windows), "MiB"};
  out.notes.push_back("setup samples: n=" + std::to_string(setup_s.size()));
  out.notes.push_back(
      "ratio varies in its last digits between runs of one seed: the "
      "daemon draws compress-job IVs from its own DRBG");
  if (!args.trace) return out;

  out.e2e_traced = e2e_metrics(halves[1], start, out.notes, "traced");
  std::vector<double> wait_ms;
  for (const JobSample& j : halves[1]) {
    wait_ms.push_back((j.wall_s - idle_s[j.kind.index()]) * 1e3);
  }
  layers["service.queue_wait_ms"] = {median(wait_ms), "ms"};
  stats_metrics(rig->daemon(), layers);
  for (Tracer& t : client_tr) tracer.merge(t);

  // Per-layer probes on the largest inputs: every (size, tenant) archive
  // is replayed; the C-ABI and seekable probes use the 4 MiB
  // Encr-Huffman one with the daemon's single codec thread.
  std::vector<CodecUnit> units;
  for (size_t s = 0; s < kSizes; ++s) {
    for (size_t t = 0; t < 2; ++t) {
      units.push_back(CodecUnit{in.fields[s], size_dims(s),
                                job_options(s, t, args.seed, 1), rig->key(t),
                                in.archives[s][t]});
    }
  }
  const std::vector<SerialCodec> serial =
      replay_stages(units, tracer, layers, ops);
  const size_t probe = (kSizes - 1) * 2;
  handoff_probe(units[probe], 5, serial[probe], tracer, layers, ops);

  const CodecUnit& u = units[probe];
  const std::span<const float> ref(
      reinterpret_cast<const float*>(in.decoded[kSizes - 1][0].data()),
      u.field.size());
  std::vector<double> open_s;
  ExtractTally tally;
  std::vector<Roi> rois;
  for (int r = 0; r < 3; ++r) {
    ++ops.attempted;
    try {
      const double t0 = now_s();
      auto reader = archive::SeekableReader::open(BytesView(u.archive),
                                                  BytesView(u.key), {1, 0});
      const double t1 = now_s();
      tracer.add("archive.open", 0, t0, t1);
      open_s.push_back(t1 - t0);
      if (rois.empty()) {
        rois = boundary_rois(reader->table(), u.dims, 16, args.seed);
      }
      run_extracts(*reader, rois, ref, &tracer, 0, tally, ops);
    } catch (const std::exception& e) {
      ops.fail(std::string("seekable probe: ") + e.what());
    }
  }
  archive_metrics(BytesView(u.archive), open_s, tally, layers);
  tracer.write_csv(args.workdir + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".csv");
  return out;
}

void service_layer_probe(std::span<const float> slab, const Dims& dims,
                         const RunArgs& args, Tracer& tr, Metrics& out,
                         Ops& ops) {
  try {
    Rig rig(args.seed, args.workdir, 99);
    service::ServiceClient client(rig.socket());
    const JobRequest req = compress_request(0, slab, dims);
    probe_wire(client, req, tr, out, ops);

    // One compress job, timed and checked; `c` numbers the caller.
    auto job = [&](service::ServiceClient& cl, size_t c, int r, Tracer& t,
                   Ops& o) {
      ++o.attempted;
      const double t0 = now_s();
      const JobResponse resp = cl.submit(req);
      const double t1 = now_s();
      t.add("service.compress_job", static_cast<uint32_t>(c * 10 + r), t0,
            t1, req.payload.size());
      check_compress(resp, slab, rig.key(0), o);
      return t1 - t0;
    };
    std::vector<double> idle;
    for (int r = 0; r < 3; ++r) idle.push_back(job(client, 0, r, tr, ops));

    // kClients concurrent callers on kPoolThreads workers.
    std::vector<std::vector<double>> loaded(kClients);
    std::vector<Ops> cops(kClients);
    std::vector<Tracer> ctr(kClients);
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          try {
            service::ServiceClient cl(rig.socket());
            for (int r = 0; r < 3; ++r) {
              loaded[c].push_back(job(cl, c + 1, r, ctr[c], cops[c]));
            }
          } catch (const std::exception& e) {
            cops[c].fail(std::string("daemon probe: ") + e.what());
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    std::vector<double> wait_ms;
    const double base = median(idle);
    for (size_t c = 0; c < kClients; ++c) {
      tr.merge(ctr[c]);
      ops.attempted += cops[c].attempted;
      ops.failed += cops[c].failed;
      ops.refused += cops[c].refused;
      for (double l : loaded[c]) wait_ms.push_back((l - base) * 1e3);
    }
    out["service.queue_wait_ms"] = {median(wait_ms), "ms"};
    stats_metrics(rig.daemon(), out);
  } catch (const std::exception& e) {
    ++ops.attempted;
    ops.fail(std::string("daemon probe: ") + e.what());
  }
}

}  // namespace perfbench
