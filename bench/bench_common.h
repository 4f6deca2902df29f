// Shared helpers for the figure/table reproduction benches: scaled-down
// engine configurations (the paper's server + 400M rows do not fit a CI
// machine; shapes, not absolute numbers, are the target), design builders,
// loaders, and table printing.
//
// Scale: set LASER_BENCH_SCALE=full for a ~10x larger run, or
// LASER_BENCH_SCALE=smoke for a tiny CI sanity run.

#ifndef LASER_BENCH_BENCH_COMMON_H_
#define LASER_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "laser/laser_db.h"
#include "util/env.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"

namespace laser::bench {

inline double ScaleFactor() {
  const char* scale = getenv("LASER_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "full") return 10.0;
  if (scale != nullptr && std::string(scale) == "smoke") return 0.05;
  return 1.0;
}

/// Accumulates metric rows and writes them as machine-readable JSON to
/// BENCH_<name>.json (in $LASER_BENCH_JSON_DIR or the working directory) so
/// the perf trajectory can be diffed across commits. One Record() call per
/// measured configuration; the file is written on destruction.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  ~BenchJson() { Write(); }

  /// `series` names the experiment (e.g. "point_read"); `label` is an
  /// optional free-form qualifier (e.g. a design name); `fields` are the
  /// numeric parameters and measurements of one row.
  void Record(const std::string& series, const std::string& label,
              std::initializer_list<std::pair<const char*, double>> fields) {
    Row row;
    row.series = series;
    row.label = label;
    for (const auto& field : fields) row.fields.emplace_back(field.first, field.second);
    rows_.push_back(std::move(row));
  }

  void Record(const std::string& series,
              std::initializer_list<std::pair<const char*, double>> fields) {
    Record(series, "", fields);
  }

  /// Vector form for rows whose fields are assembled programmatically (e.g.
  /// base measurements plus the engine-stats tail from EngineStatsFields).
  void Record(const std::string& series, const std::string& label,
              std::vector<std::pair<std::string, double>> fields) {
    Row row;
    row.series = series;
    row.label = label;
    row.fields = std::move(fields);
    rows_.push_back(std::move(row));
  }

 private:
  struct Row {
    std::string series;
    std::string label;
    std::vector<std::pair<std::string, double>> fields;
  };

  static std::string Escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        snprintf(buf, sizeof(buf), "\\u%04x", c);
        out.append(buf);
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  static void AppendNumber(std::string* out, double v) {
    if (!std::isfinite(v)) {
      out->append("null");
      return;
    }
    char buf[32];
    snprintf(buf, sizeof(buf), "%.17g", v);
    out->append(buf);
  }

  void Write() const {
    const char* dir = getenv("LASER_BENCH_JSON_DIR");
    const std::string path = (dir != nullptr ? std::string(dir) + "/" : std::string()) +
                             "BENCH_" + name_ + ".json";
    std::string out = "{\n  \"bench\": \"" + Escape(name_) + "\",\n  \"scale\": ";
    AppendNumber(&out, ScaleFactor());
    out.append(",\n  \"rows\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out.append(i == 0 ? "\n" : ",\n");
      out.append("    {\"series\": \"" + Escape(row.series) + "\"");
      if (!row.label.empty()) {
        out.append(", \"label\": \"" + Escape(row.label) + "\"");
      }
      for (const auto& [key, value] : row.fields) {
        out.append(", \"" + Escape(key) + "\": ");
        AppendNumber(&out, value);
      }
      out.append("}");
    }
    out.append("\n  ]\n}\n");
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return;
    }
    fwrite(out.data(), 1, out.size(), f);
    fclose(f);
    printf("[bench] wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

  std::string name_;
  std::vector<Row> rows_;
};

/// Scan-path and cache counters appended to bench JSON rows so nightly
/// artifacts expose merge work and cache behavior, not just latency: a perf
/// regression shows up as a counter shift even when wall-clock is noisy.
/// Values are deltas since `since` (taken with Stats::Snapshot, so counter
/// deltas are attributed to one measured cell); pass a default-constructed
/// snapshot for whole-run totals (e.g. one DB per measured row).
inline void AppendEngineStatsFields(const Stats& stats,
                                    std::vector<std::pair<std::string, double>>* fields,
                                    const StatsSnapshot& since = StatsSnapshot()) {
  const StatsSnapshot d = stats.Snapshot() - since;
  const auto add = [fields](const char* name, double value) {
    fields->emplace_back(name, value);
  };
  const double hits = static_cast<double>(d.block_cache_hits);
  const double lookups = hits + static_cast<double>(d.block_cache_misses);
  add("scan_rows_merged", d.scan_rows_merged);
  add("scan_batches_emitted", d.scan_batches_emitted);
  add("scan_source_advances", d.scan_source_advances);
  add("scan_heap_resifts", d.scan_heap_resifts);
  add("scan_zip_rows", d.scan_zip_rows);
  add("scan_zip_splices", d.scan_zip_splices);
  add("block_cache_hit_rate", lookups > 0 ? hits / lookups : 0.0);
  add("data_block_reads", d.data_block_reads);
  add("blocks_skipped_zonemap", d.blocks_skipped_zonemap);
  add("rows_filtered_pushdown", d.rows_filtered_pushdown);
  add("aggs_pushed", d.aggs_pushed);
  // Filter telemetry. bloom_fpr is the measured false-positive rate over
  // the probes that could have short-circuited (negatives + false
  // positives); probes that legitimately found the key don't dilute it.
  const double bloom_neg = static_cast<double>(d.bloom_negatives);
  const double bloom_fp = static_cast<double>(d.bloom_false_positives);
  add("bloom_checks", d.bloom_checks);
  add("bloom_negatives", bloom_neg);
  add("bloom_false_positives", bloom_fp);
  add("bloom_fpr", bloom_neg + bloom_fp > 0 ? bloom_fp / (bloom_neg + bloom_fp) : 0.0);
  // Gauges, not deltas: serialized filter bytes live in the current
  // version, and the block cache's effective (possibly clamped) shard count.
  add("filter_bytes", d.filter_bytes_total);
  add("block_cache_shards", d.block_cache_effective_shards);
}

/// Engine options for the narrow-table experiments (30 columns, T=2,
/// 8 levels — §7.1's narrow configuration, scaled down).
inline LaserOptions NarrowTableOptions(Env* env, const std::string& path,
                                       const CgConfig& config, int num_levels = 8,
                                       int size_ratio = 2) {
  LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = Schema::UniformInt32(30);
  options.num_levels = num_levels;
  options.size_ratio = size_ratio;
  options.cg_config = config;
  options.write_buffer_size = 128 * 1024;
  options.level0_bytes = 256 * 1024;
  options.target_sst_size = 256 * 1024;
  options.block_size = 4096;
  options.background_threads = 4;
  options.block_cache_bytes = 0;  // count every block fetch (§5 validation)
  options.use_wal = false;        // loads dominate; the WAL is tested elsewhere
  options.level0_stop_writes_trigger = 40;
  return options;
}

/// Wide-table options (100 columns, T=10, 5 levels — §7.1).
inline LaserOptions WideTableOptions(Env* env, const std::string& path,
                                     const CgConfig& config) {
  LaserOptions options = NarrowTableOptions(env, path, config, 5, 10);
  options.schema = Schema::UniformInt32(100);
  return options;
}

/// Deterministic row content for key `key`.
inline std::vector<ColumnValue> BenchRow(uint64_t key, int columns) {
  std::vector<ColumnValue> row(columns);
  for (int c = 1; c <= columns; ++c) {
    char buf[12];
    memcpy(buf, &key, 8);
    memcpy(buf + 8, &c, 4);
    row[c - 1] = Hash32(buf, 12, 0x5eedf00d) & 0x7fffffffu;
  }
  return row;
}

/// Loads `n` rows with uniformly spread keys and settles compactions.
inline Status LoadUniform(LaserDB* db, uint64_t n, uint64_t key_stride = 7919) {
  const int columns = db->options().schema.num_columns();
  for (uint64_t i = 0; i < n; ++i) {
    // stride coprime with n spreads keys uniformly over [0, n*stride).
    const uint64_t key = (i * key_stride) % (n * 16 + 1);
    LASER_RETURN_IF_ERROR(db->Insert(key, BenchRow(key, columns)));
  }
  return db->CompactUntilStable();
}

struct Measurement {
  double avg_micros = 0;
  double p95_micros = 0;
  double blocks_per_op = 0;
};

/// Runs `count` point reads of `projection` on uniformly random existing
/// keys from [0, key_space).
inline Measurement MeasureReads(LaserDB* db, uint64_t key_space,
                                uint64_t key_stride, const ColumnSet& projection,
                                int count, uint64_t seed) {
  Random rng(seed);
  Histogram latency;
  Env* env = Env::Default();
  const uint64_t blocks_before = db->stats().data_block_reads.load();
  for (int i = 0; i < count; ++i) {
    const uint64_t index = rng.Uniform(key_space);
    const uint64_t key = (index * key_stride) % (key_space * 16 + 1);
    LaserDB::ReadResult result;
    const uint64_t t0 = env->NowMicros();
    db->Read(key, projection, &result);
    latency.Add(static_cast<double>(env->NowMicros() - t0));
  }
  Measurement m;
  m.avg_micros = latency.Average();
  m.p95_micros = latency.Percentile(95);
  m.blocks_per_op =
      static_cast<double>(db->stats().data_block_reads.load() - blocks_before) /
      count;
  return m;
}

/// Runs `count` scans of `selectivity` of the key domain with `projection`,
/// consuming each scan batch-at-a-time (the engine's fast path).
inline Measurement MeasureScans(LaserDB* db, uint64_t key_domain,
                                const ColumnSet& projection, double selectivity,
                                int count, uint64_t seed) {
  Random rng(seed);
  Histogram latency;
  Env* env = Env::Default();
  const uint64_t blocks_before = db->stats().data_block_reads.load();
  const uint64_t span = static_cast<uint64_t>(selectivity * key_domain);
  ScanBatch batch;
  for (int i = 0; i < count; ++i) {
    const uint64_t lo = span >= key_domain ? 0 : rng.Uniform(key_domain - span);
    const uint64_t t0 = env->NowMicros();
    auto scan = db->NewScan(lo, lo + span, projection);
    uint64_t rows = 0;
    while (size_t n = scan->NextBatch(&batch)) rows += n;
    latency.Add(static_cast<double>(env->NowMicros() - t0));
  }
  Measurement m;
  m.avg_micros = latency.Average();
  m.p95_micros = latency.Percentile(95);
  m.blocks_per_op =
      static_cast<double>(db->stats().data_block_reads.load() - blocks_before) /
      count;
  return m;
}

inline void PrintHeader(const std::string& title) {
  printf("\n==== %s ====\n", title.c_str());
}

}  // namespace laser::bench

#endif  // LASER_BENCH_BENCH_COMMON_H_
