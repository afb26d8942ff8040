// szsec_perfbench: the repository benchmark's measuring program.
//
//   szsec_perfbench --workload archive-smooth|archive-sparse|service-mix
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints human-readable lines (sample counts, exact outputs, tracing
// overhead, failure accounting), then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when
// any output check failed.  perfbench/run.py builds and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: szsec_perfbench --workload "
               "archive-smooth|archive-sparse|service-mix --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  a.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        usage(("unknown option " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : m) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "archive-smooth") {
      out = run_archive(args, false);
    } else if (args.workload == "archive-sparse") {
      out = run_archive(args, true);
    } else if (args.workload == "service-mix") {
      out = run_service(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    ++out.ops.attempted;
    out.ops.fail(std::string("workload aborted: ") + e.what());
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  print_metrics("end-to-end:", out.e2e);
  if (args.trace) {
    std::printf("tracing overhead (traced vs untraced median, same run):\n");
    for (const auto& [name, u] : out.e2e) {
      const auto t = out.e2e_traced.find(name);
      if (t == out.e2e_traced.end()) continue;
      std::printf("  %-20s untraced %.6g traced %.6g %s (%+.2f%%)\n",
                  name.c_str(), u.value, t->second.value, u.unit.c_str(),
                  100.0 * (t->second.value - u.value) / u.value);
    }
    print_metrics("per-layer:", out.layers);
  }
  Ops& ops = out.ops;
  const Metrics& result = args.trace ? out.layers : out.e2e;
  for (const auto& [name, v] : result) {
    if (!std::isfinite(v.value)) {
      ++ops.attempted;
      ops.fail("metric " + name + " was not measured");
    }
  }
  std::printf("operations: attempted %llu failed %llu (refused %llu) "
              "failed_share %.6g\n",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.refused),
              ops.attempted == 0
                  ? 0.0
                  : static_cast<double>(ops.failed) / ops.attempted);

  const bool correct = ops.failed == 0 && ops.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  const char* sep = "";
  for (const auto& [name, v] : result) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(v.value) ? v.value : 0.0,
                v.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
