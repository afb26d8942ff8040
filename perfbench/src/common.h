// Shared pieces of the szsec end-to-end benchmark: clocks, order
// statistics, the in-memory span tracer, seeded field generation, the
// C-ABI streaming drivers and the result types.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bytestream.h"
#include "common/dims.h"
#include "szsec.h"

namespace perfbench {

using szsec::Bytes;
using szsec::BytesView;
using szsec::Dims;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by every thread of this process, seconds.
inline double cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------
// Steal-free wall time.  On a virtual machine the hypervisor may run
// other guests while a vCPU of this one wants to run; the kernel counts
// that as steal in /proc/stat.  A timing taken as wall time less the
// steal share of the same interval still sees every wait of the program
// itself (locks, pipes, idle workers), but not the host's load.

/// A point in time with the cumulative /proc/stat ticks of all vCPUs.
struct Stamp {
  double t = 0;
  uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  uint64_t steal = 0;  ///< wanted to run, but the host ran something else
};
Stamp stamp();
/// Share of the vCPU time wanted between `a` and `b` that the host stole.
double steal_share(const Stamp& a, const Stamp& b);
/// Wall seconds from `a` to `b` times (1 - steal_share(a, b)).
double steal_free_s(const Stamp& a, const Stamp& b);

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kMB = 1e6;  // throughputs are raw MB (1e6 bytes) per second

// ---------------------------------------------------------------------
// Order statistics.  A percentile is reported only when at least ten
// samples lie beyond it, so p90 needs n >= 100.

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// True when `n` samples leave at least ten beyond the q-quantile.
bool tail_ok(size_t n, double q);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();
/// Resets VmHWM to the current RSS (/proc/self/clear_refs), so the next
/// peak_rss_mib() covers only what ran in between.
void reset_peak_rss();

// ---------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own calls into each
// layer's public functions.  Kept in memory, aggregated by name, and
// written out as CSV when the run ends.

struct Span {
  const char* name;
  uint32_t request;  ///< spans of one request (iteration/job) share this
  double t0, t1;
  uint64_t bytes;
};

class Tracer {
 public:
  void add(const char* name, uint32_t request, double t0, double t1,
           uint64_t bytes = 0) {
    spans_.push_back({name, request, t0, t1, bytes});
  }
  /// Sum of durations (s) and bytes of every span named `name`.
  struct Total {
    double seconds = 0;
    uint64_t bytes = 0;
  };
  Total total(const std::string& name) const;
  /// Durations (s) of every span named `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  void write_csv(const std::string& path) const;
  /// Appends another tracer's spans (one tracer per client thread).
  void merge(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scope {
 public:
  Scope(Tracer* t, const char* name, uint32_t request, uint64_t bytes = 0)
      : t_(t), name_(name), request_(request), bytes_(bytes),
        t0_(t ? now_s() : 0) {}
  ~Scope() {
    if (t_) t_->add(name_, request_, t0_, now_s(), bytes_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  const char* name_;
  uint32_t request_;
  uint64_t bytes_;
  double t0_;
};

// ---------------------------------------------------------------------
// Seeded inputs (data::fieldgen).

/// Smooth large-scale structure plus heteroscedastic fine noise near
/// the error bound (the T/Nyx regime).
std::vector<float> smooth_field(const Dims& dims, uint64_t seed);
/// Sparse plumes over an exact-zero background (the CLOUDf48/QI regime);
/// exactly the top 18% of a smooth noise field is non-zero, whatever the
/// seed.
std::vector<float> sparse_field(const Dims& dims, uint64_t seed);
/// A deterministic 16-byte key for `seed`.
Bytes key_for(uint64_t seed);
/// The output check of every decode: finite, and max |x - x'| <= eb
/// (szsec::within_abs_bound, which alone would let a NaN through).
bool within_eb(std::span<const float> original,
               std::span<const float> decoded, double eb);

inline BytesView as_bytes(std::span<const float> f) {
  return BytesView(reinterpret_cast<const uint8_t*>(f.data()),
                   f.size_bytes());
}

// ---------------------------------------------------------------------
// C-ABI streaming drivers (szsec_encoder_new/szsec_feed/szsec_pull, the
// path szsec_cli takes), 64 KiB spans like the CLI.  Throw
// std::runtime_error on any SZSEC_E_* code.

struct AbiRun {
  double wall_s = 0;
  uint64_t feed_calls = 0;
  uint64_t pull_calls = 0;
  double call_s = 0;  ///< time inside szsec_feed/szsec_pull (traced only)
};

AbiRun abi_encode(const szsec_options& opts, BytesView key, BytesView raw,
                  Bytes& archive, Tracer* tr, uint32_t request);
/// Decodes `archive` into `out`, which must be exactly the field size.
AbiRun abi_decode(const szsec_options& opts, BytesView key,
                  BytesView archive, std::span<uint8_t> out, Tracer* tr,
                  uint32_t request);

// ---------------------------------------------------------------------
// Results.

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation accounting for the result line.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< wrong output, error status or refusal
  uint64_t refused = 0; ///< subset of failed: admission rejections
  void fail(const std::string& why);
};

/// What a workload hands back to main().
struct Outcome {
  Ops ops;
  Metrics e2e;            ///< untraced (or untraced half of a traced run)
  Metrics e2e_traced;     ///< traced half; empty in untraced runs
  Metrics layers;         ///< per-layer metrics; traced runs only
  std::vector<std::string> notes;  ///< human-readable lines
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< daemon sockets and the span CSV go here
};

}  // namespace perfbench
