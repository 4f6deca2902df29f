// laserbench: runs one workload of the LASER benchmark and prints one JSON
// result line.
//
//   laserbench --workload <hw_lifecycle|olap_scan|point_lookup|tpcc_ch>
//              --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//              [--spans <file>]
//
// The run sets the workload up five times (each in a fresh directory,
// timed; setup_s is their median) and checks that every setup left the same
// tree shape. It then runs an untimed warm-up and the measured phase on the
// last setup, and checks the engine's state at the end. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates traced and untraced slices
// and reports the per-layer ones. A wrong output, or a measured phase too
// short to complete one window, prints the result with "correct": false and
// exits with 1. Every run reports exactly the metrics BENCHMARK.json lists for
// its mode, in its order.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace laserbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string spans;
};

constexpr int kSetups = 5;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = atof(value);
    } else if (flag == "--trace") {
      args->trace = atoi(value) != 0;
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->dir.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "hw_lifecycle") return MakeHwLifecycle(seed);
  if (name == "olap_scan") return MakeOlapScan(seed);
  if (name == "point_lookup") return MakePointLookup(seed);
  if (name == "tpcc_ch") return MakeTpccCh(seed);
  return nullptr;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Puts `metrics` in the order of `names`, the list BENCHMARK.json holds.
/// A name the run did not produce is an error, or, with `zero_if_missing`,
/// reads 0: a layer metric of work the workload's ops never do. A metric
/// outside the list, or in another unit, is an error.
bool InManifestOrder(const std::vector<MetricName>& names, bool zero_if_missing,
                     Metrics* metrics) {
  bool ok = true;
  Metrics ordered;
  for (const MetricName& name : names) {
    auto it = std::find_if(metrics->begin(), metrics->end(),
                           [&](const Metric& m) { return m.name == name.name; });
    if (it == metrics->end()) {
      if (!zero_if_missing) {
        fprintf(stderr, "%s is not reported\n", name.name);
        ok = false;
      }
      ordered.push_back({name.name, 0.0, name.unit});
      continue;
    }
    if (it->unit != name.unit) {
      fprintf(stderr, "%s is in %s, not %s\n", name.name, it->unit.c_str(),
              name.unit);
      ok = false;
    }
    ordered.push_back(*it);
    metrics->erase(it);
  }
  for (const Metric& m : *metrics) {
    fprintf(stderr, "%s is not a metric of BENCHMARK.json\n", m.name.c_str());
    ok = false;
  }
  *metrics = std::move(ordered);
  return ok;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    snprintf(value, sizeof(value), "%.17g",
             std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
}

int Main(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Run run(workload.get(), args.trace);
  workload->RegisterSpans(&run);

  // Repeated setups: setup_s is their median, and each must leave the tree
  // in exactly the same shape.
  std::filesystem::create_directories(args.dir);
  std::vector<SetupStats> setups;
  std::string setup_dir;
  for (int k = 0; k < kSetups; ++k) {
    setup_dir = args.dir + "/setup" + std::to_string(k);
    std::filesystem::remove_all(setup_dir);
    SetupStats stats;
    const int64_t t0 = NowNanos();
    Status s = workload->Setup(setup_dir, &stats);
    stats.seconds = (NowNanos() - t0) / 1e9;
    if (!s.ok()) {
      fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 2;
    }
    setups.push_back(stats);
    if (k + 1 < kSetups) {
      workload->Close();
      std::filesystem::remove_all(setup_dir);
    }
  }
  const SetupStats& setup = setups.back();
  bool correct = true;
  for (const SetupStats& other : setups) {
    if (other.fingerprint != setup.fingerprint ||
        other.sst_bytes != setup.sst_bytes) {
      fprintf(stderr, "setups differ: fingerprint %llu vs %llu\n",
              static_cast<unsigned long long>(other.fingerprint),
              static_cast<unsigned long long>(setup.fingerprint));
      correct = false;
    }
  }
  std::vector<double> setup_seconds;
  fprintf(stderr, "setups (s: total, flush, compact):");
  for (const SetupStats& s : setups) {
    setup_seconds.push_back(s.seconds);
    fprintf(stderr, " %.3f/%.3f/%.3f", s.seconds, s.flush_ns / 1e9,
            s.compact_ns / 1e9);
  }
  fprintf(stderr, "\n");
  std::sort(setup_seconds.begin(), setup_seconds.end());
  const double setup_s = setup_seconds[setup_seconds.size() / 2];
  const double write_amp =
      Ratio(setup.bytes_flushed + setup.bytes_compacted, setup.user_bytes);
  const double space_amp = Ratio(setup.sst_bytes, setup.live_bytes);

  Status s = run.Warmup(workload->warmup_ops());
  // Memory of the engine and the driver's model, before the measured phase
  // stores its latency samples (their number depends on the machine's speed).
  const double peak_rss_mb = PeakRssMb();
  if (s.ok()) s = run.Measure(args.seconds);
  if (s.ok()) {
    s = workload->Verify();
    if (!s.ok()) fprintf(stderr, "final check failed: %s\n", s.ToString().c_str());
  } else {
    fprintf(stderr, "wrong output: %s\n", run.wrong().c_str());
  }
  if (s.ok() && run.windows() == 0) {
    fprintf(stderr, "no complete window of %llu ops in %g s\n",
            static_cast<unsigned long long>(workload->window_ops()), args.seconds);
    s = Status::InvalidArgument("measured phase too short");
  }
  correct = correct && s.ok();

  Metrics metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"ops_per_s", run.OpsPerSecond(), "ops/s"});
    const std::array<int, 3> kinds = workload->LatencyKinds();
    for (size_t i = 0; i < kinds.size(); ++i) {
      metrics.push_back({"op" + std::to_string(i + 1) + "_p50_us",
                         run.PercentileMicros(kinds[i], 50), "us"});
    }
    metrics.push_back({"write_amp", write_amp, "ratio"});
    metrics.push_back({"space_amp", space_amp, "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    // Every end-to-end figure is a time, a rate or a ratio above 0.
    for (const Metric& m : metrics) {
      if (!(m.value > 0) || !std::isfinite(m.value)) {
        fprintf(stderr, "%s has no measured value\n", m.name.c_str());
        correct = false;
      }
    }
    correct = InManifestOrder(kEndToEndNames, false, &metrics) && correct;
  } else {
    workload->PerLayer(run, &metrics);
    const double cache_hits = run.TracedCountAll(kCacheHits);
    const double cache_misses = run.TracedCountAll(kCacheMisses);
    metrics.push_back({"sst.cache_hit_rate",
                       Ratio(cache_hits, cache_hits + cache_misses), "ratio"});
    metrics.push_back({"lsm.bytes_flushed_per_user_byte",
                       Ratio(setup.bytes_flushed, setup.user_bytes), "ratio"});
    metrics.push_back({"lsm.bytes_compacted_per_user_byte",
                       Ratio(setup.bytes_compacted, setup.user_bytes), "ratio"});
    metrics.push_back(
        {"lsm.shape_fingerprint", static_cast<double>(setup.fingerprint), "hash"});
    metrics.push_back(
        {"lsm.setup_bytes_flushed", static_cast<double>(setup.bytes_flushed), "bytes"});
    metrics.push_back({"lsm.setup_bytes_compacted",
                       static_cast<double>(setup.bytes_compacted), "bytes"});
    metrics.push_back({"lsm.flush_s", setup.flush_ns / 1e9, "s"});
    metrics.push_back({"lsm.compact_s", setup.compact_ns / 1e9, "s"});
    metrics.push_back({"lsm.compact_mb_per_s",
                       Ratio(setup.bytes_compacted / 1e6, setup.compact_ns / 1e9),
                       "MB/s"});
    metrics.push_back({"cost.select_design_ms", setup.select_design_ns / 1e6, "ms"});
    run.TraceSummary(&metrics);
    correct = InManifestOrder(kPerLayerNames, true, &metrics) && correct;
    run.PrintLayerReport(metrics, stderr);
    if (!args.spans.empty()) {
      Status w = run.tracer().Write(args.spans);
      if (!w.ok()) fprintf(stderr, "%s\n", w.ToString().c_str());
    }
  }
  workload->Close();
  std::filesystem::remove_all(args.dir);
  PrintResult(correct, run.attempted(), run.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace laserbench

int main(int argc, char** argv) {
  laserbench::Args args;
  if (!laserbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: laserbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> --dir <dir> [--spans <file>]\n");
    return 2;
  }
  return laserbench::Main(args);
}
