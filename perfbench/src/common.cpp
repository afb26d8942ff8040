#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/stats.h"
#include "data/fieldgen.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool tail_ok(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

Stamp stamp() {
  Stamp s;
  // The aggregate first line: cpu user nice system idle iowait irq
  // softirq steal ...
  unsigned long long v[8] = {};
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;  // no steal column: count none
    }
    std::fclose(f);
  }
  s.t = now_s();
  s.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  s.steal = v[7];
  return s;
}

double steal_share(const Stamp& a, const Stamp& b) {
  const double steal = static_cast<double>(b.steal - a.steal);
  const double wanted = static_cast<double>(b.busy - a.busy) + steal;
  return wanted > 0 ? steal / wanted : 0.0;
}

double steal_free_s(const Stamp& a, const Stamp& b) {
  return (b.t - a.t) * (1.0 - steal_share(a, b));
}

Tracer::Total Tracer::total(const std::string& name) const {
  Total t;
  for (const Span& s : spans_) {
    if (name == s.name) {
      t.seconds += s.t1 - s.t0;
      t.bytes += s.bytes;
    }
  }
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // the trace file is a by-product, not a result
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "name,request,start_us,dur_us,bytes\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%u,%.3f,%.3f,%llu\n", s.name, s.request,
                 (s.t0 - base) * 1e6, (s.t1 - s.t0) * 1e6,
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------

std::vector<float> smooth_field(const Dims& dims, uint64_t seed) {
  std::vector<float> f = szsec::data::smooth_noise(dims, seed * 2 + 1, 8);
  const std::vector<float> w = szsec::data::white_noise(dims, seed * 2 + 2);
  // Noise amplitude 1e-3..3e-3 tracks the large-scale value, so code
  // widths vary across the field instead of being one constant.
  for (size_t i = 0; i < f.size(); ++i) {
    const float s = f[i];
    f[i] = 10.0f * s + 2e-3f * (1.0f + 0.5f * std::tanh(s)) * w[i];
  }
  return f;
}

std::vector<float> sparse_field(const Dims& dims, uint64_t seed) {
  std::vector<float> f = szsec::data::smooth_noise(dims, seed * 2 + 1, 6);
  // A fixed quantile, not a fixed level, so the plume share (and with it
  // the work per byte) does not drift with the seed.
  std::vector<float> sorted = f;
  auto cut = sorted.begin() + static_cast<std::ptrdiff_t>(0.82 * sorted.size());
  std::nth_element(sorted.begin(), cut, sorted.end());
  const float level = *cut;
  for (float& v : f) {
    const float x = v - level;
    v = x <= 0 ? 0.0f : x * x;
  }
  return f;
}

Bytes key_for(uint64_t seed) {
  Bytes k(16);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0x5A5Aull;
  for (uint8_t& b : k) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    b = static_cast<uint8_t>(x >> 56);
  }
  return k;
}

bool within_eb(std::span<const float> original,
               std::span<const float> decoded, double eb) {
  return std::all_of(decoded.begin(), decoded.end(),
                     [](float x) { return std::isfinite(x); }) &&
         szsec::within_abs_bound(original, decoded, eb);
}

// ---------------------------------------------------------------------

namespace {

constexpr size_t kSpan = size_t{1} << 16;

void check(int rc, const char* what) {
  if (rc < 0) {
    throw std::runtime_error(std::string(what) + ": " + szsec_error_name(rc) +
                             ": " + szsec_last_error_message());
  }
}

struct CtxGuard {
  szsec_ctx* ctx = nullptr;
  ~CtxGuard() { szsec_ctx_free(ctx); }
};

/// The EMBEDDING.md driver loop: pull while output is ready, otherwise
/// feed the next span (finish once input is exhausted).  `deliver` takes
/// every pulled span.
template <typename Deliver>
AbiRun pump(szsec_ctx* ctx, BytesView in, Deliver deliver, Tracer* tr,
            uint32_t request) {
  AbiRun r;
  uint8_t buf[kSpan];
  size_t off = 0;
  bool finished = false;
  for (int st = szsec_status(ctx); st != SZSEC_DONE; st = szsec_status(ctx)) {
    check(st, "szsec_status");
    if (st == SZSEC_HAVE_OUTPUT) {
      size_t produced = 0;
      const double t0 = tr ? now_s() : 0;
      check(szsec_pull(ctx, buf, sizeof buf, &produced), "szsec_pull");
      if (tr) {
        const double t1 = now_s();
        tr->add("capi.pull", request, t0, t1, produced);
        r.call_s += t1 - t0;
      }
      ++r.pull_calls;
      deliver(buf, produced);
    } else if (off < in.size()) {
      size_t consumed = 0;
      const size_t n = std::min(kSpan, in.size() - off);
      const double t0 = tr ? now_s() : 0;
      check(szsec_feed(ctx, in.data() + off, n, &consumed), "szsec_feed");
      if (tr) {
        const double t1 = now_s();
        tr->add("capi.feed", request, t0, t1, consumed);
        r.call_s += t1 - t0;
      }
      ++r.feed_calls;
      off += consumed;
    } else if (!finished) {
      finished = true;
      check(szsec_finish(ctx), "szsec_finish");
    } else {
      throw std::runtime_error("codec wants input after finish");
    }
  }
  return r;
}

}  // namespace

AbiRun abi_encode(const szsec_options& opts, BytesView key, BytesView raw,
                  Bytes& archive, Tracer* tr, uint32_t request) {
  const double t0 = now_s();
  archive.clear();
  CtxGuard g;
  check(szsec_encoder_new(&opts, key.data(), key.size(), &g.ctx),
        "szsec_encoder_new");
  AbiRun r = pump(
      g.ctx, raw,
      [&](const uint8_t* p, size_t n) { archive.insert(archive.end(), p, p + n); },
      tr, request);
  r.wall_s = now_s() - t0;
  if (tr) tr->add("capi.encode", request, t0, t0 + r.wall_s, raw.size());
  return r;
}

AbiRun abi_decode(const szsec_options& opts, BytesView key,
                  BytesView archive, std::span<uint8_t> out, Tracer* tr,
                  uint32_t request) {
  const double t0 = now_s();
  CtxGuard g;
  check(szsec_decoder_new(&opts, key.data(), key.size(), &g.ctx),
        "szsec_decoder_new");
  size_t filled = 0;
  AbiRun r = pump(
      g.ctx, archive,
      [&](const uint8_t* p, size_t n) {
        if (n > out.size() - filled) {
          throw std::runtime_error("decoder produced more than the field");
        }
        std::memcpy(out.data() + filled, p, n);
        filled += n;
      },
      tr, request);
  if (filled != out.size()) {
    throw std::runtime_error("decoder produced " + std::to_string(filled) +
                             " of " + std::to_string(out.size()) + " bytes");
  }
  r.wall_s = now_s() - t0;
  if (tr) tr->add("capi.decode", request, t0, t0 + r.wall_s, out.size());
  return r;
}

void Ops::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

}  // namespace perfbench
