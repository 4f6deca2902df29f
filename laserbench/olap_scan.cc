// olap_scan: read-only analytics on a settled 100-column table laid out in
// column groups of four. The table is loaded in shuffled key order, settled
// over several levels, then overlaid with partial-row updates, so scans
// stitch column groups and resolve versions across levels. The data is
// several times the block cache. Three scan shapes interleave: a narrow
// AggregateAll sum, a wide NextBatch projection, and a 5% BETWEEN on a
// column clustered with the key, which zone maps can prune.

#include <algorithm>
#include <unordered_map>

#include "harness.h"

namespace laserbench {
namespace {

using laser::ColumnSet;
using laser::ColumnValue;
using laser::ColumnValuePair;
using laser::LaserDB;

constexpr int kColumns = 100;
constexpr int kLevels = 5;
constexpr uint64_t kRows = 12000;
constexpr uint64_t kRowBytes = 8 + 4 * kColumns;
constexpr uint64_t kKeyStride = 1024;
// Keys are kKeyBase + row * kKeyStride for every seed. With a base drawn
// from the seed, the BETWEEN scan's median moved by up to 40% between seeds
// over the same tree shape.
constexpr uint64_t kKeyBase = 0xf36cf11642;
constexpr uint64_t kCompactEvery = 5000;
// The update overlay: this many ops, each rewriting kUpdateColumns columns.
constexpr uint64_t kUpdates = kRows / 10;
constexpr int kUpdateColumns = 8;
// Rows per scan shape.
constexpr uint64_t kNarrowRows = kRows / 10;     // 10% of the keys
constexpr uint64_t kWideRows = kRows / 100;       // 1%
constexpr uint64_t kSelectiveRows = kRows / 20;   // 5%, by the clustered column
constexpr uint64_t kCheckEvery = 16;

enum Kind { kNarrow, kWide, kSelective };

class OlapScan final : public Workload {
 public:
  explicit OlapScan(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        schedule_(seed, {{kNarrow, 4}, {kWide, 4}, {kSelective, 2}}, {}),
        narrow_(laser::MakeColumnRange(41, 44)),
        wide_(laser::MakeColumnRange(1, 40)),
        selective_({1, 61, 62}) {}

  std::vector<std::string> kinds() const override {
    return {"scan_narrow", "scan_wide", "scan_selective"};
  }

  Status Setup(const std::string& dir, SetupStats* stats) override {
    overrides_.clear();
    rng_ = laser::Random(seed_);
    checks_[0] = checks_[1] = checks_[2] = 0;

    laser::LaserOptions options = BaseOptions(dir);
    options.schema = laser::Schema::UniformInt32(kColumns);
    options.num_levels = kLevels;
    options.size_ratio = 4;
    options.write_buffer_size = 1024 * 1024;
    options.level0_bytes = 1024 * 1024;
    options.target_sst_size = 512 * 1024;
    options.block_cache_bytes = 2 * 1024 * 1024;
    options.cg_config = laser::CgConfig::EquiWidth(kColumns, kLevels, 4);
    LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db_));

    // Shuffled load order: row (p * step) mod kRows at position p. It is the
    // same for every seed: which rows share a flush decides how the levels
    // overlap, and with a seeded order the full-range BETWEEN scan's median
    // moved by 25% between seeds.
    const uint64_t step = 7919;  // prime, coprime with kRows
    std::vector<ColumnValue> row(kColumns);
    for (uint64_t p = 0; p < kRows; ++p) {
      const uint64_t r = (p * step) % kRows;
      for (int c = 1; c <= kColumns; ++c) row[c - 1] = BaseValue(r, c);
      LASER_RETURN_IF_ERROR(db_->Insert(Key(r), row));
      stats->user_bytes += kRowBytes;
      if ((p + 1) % kCompactEvery == 0) {
        LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));
      }
    }
    LASER_RETURN_IF_ERROR(TimedFlush(db_.get(), stats));
    LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));

    // The update overlay stays in the upper levels. Rows are drawn from the
    // seed; the columns rotate, 12 apart, so every column group gets the
    // same share of the overlay whatever the seed.
    for (uint64_t u = 0; u < kUpdates; ++u) {
      const uint64_t r = rng_.Uniform(kRows);
      std::vector<int> columns;
      for (int j = 0; j < kUpdateColumns; ++j) {
        columns.push_back(2 + static_cast<int>((u + 12 * j) % (kColumns - 1)));
      }
      std::sort(columns.begin(), columns.end());
      std::vector<ColumnValuePair> values;
      for (int c : columns) values.push_back({c, CellValue(r, u + 1, c)});
      LASER_RETURN_IF_ERROR(db_->Update(Key(r), values));
      stats->user_bytes += 8 + 4 * kUpdateColumns;
      for (const ColumnValuePair& v : values) overrides_[r][v.column] = v.value;
    }
    LASER_RETURN_IF_ERROR(TimedFlush(db_.get(), stats));
    LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));

    stats->bytes_flushed = db_->stats().bytes_flushed.load();
    stats->bytes_compacted = db_->stats().bytes_compacted.load();
    stats->sst_bytes = TreeBytes({db_.get()});
    stats->live_bytes = kRows * kRowBytes;
    stats->fingerprint = ShapeFingerprint({db_.get()}, stats->bytes_flushed,
                                          stats->bytes_compacted);
    return Status::OK();
  }

  void Close() override { db_.reset(); }

  void RegisterSpans(Run* run) override {
    span_newscan_ = run->Span("laser.NewScan");
    span_aggregate_ = run->Span("laser.AggregateAll");
    span_drain_ = run->Span("laser.NextBatch");
  }

  uint64_t warmup_ops() const override { return 20 * schedule_.round_size(); }
  // 40 scans of the rarest shape per window.
  uint64_t window_ops() const override { return 20 * schedule_.round_size(); }

  int KindAt(uint64_t index) override { return schedule_.KindAt(index); }

  OpResult Op(int kind, Run* run) override {
    switch (kind) {
      case kNarrow:
        return Narrow(run);
      case kWide:
        return Wide(run);
      default:
        return Selective(run);
    }
  }

  Status Verify() override { return Status::OK(); }

  Counters ReadCounters() const override { return Counters::From(db_->stats()); }

  std::array<int, 3> LatencyKinds() const override {
    return {kNarrow, kWide, kSelective};
  }

  void PerLayer(const Run& run, Metrics* out) const override {
    const double scans = run.TracedOps({kNarrow, kWide, kSelective});
    const double merged = run.TracedCount({kNarrow, kWide, kSelective}, kRowsMerged);
    out->push_back({"laser.newscan_us", run.SpanMicros(span_newscan_), "us"});
    out->push_back({"laser.drain_us",
                    Ratio(run.tracer().totals(span_aggregate_).total_ns +
                              run.tracer().totals(span_drain_).total_ns,
                          1e3 * scans),
                    "us"});
    out->push_back(
        {"laser.rows_merged_per_emitted",
         Ratio(merged, run.TracedCount({kNarrow, kWide, kSelective}, kRowsEmitted)),
         "ratio"});
    out->push_back({"laser.heap_resifts_per_row",
                    Ratio(run.TracedCount({kWide}, kHeapResifts),
                          run.TracedCount({kWide}, kRowsMerged)),
                    "ratio"});
    out->push_back({"laser.zip_row_share",
                    Ratio(run.TracedCount({kWide}, kZipRows),
                          run.TracedCount({kWide}, kRowsMerged)),
                    "ratio"});
    out->push_back({"laser.rows_filtered_per_scan",
                    Ratio(run.TracedCount({kSelective}, kRowsFiltered),
                          run.TracedOps({kSelective})),
                    "count"});
    out->push_back({"laser.aggs_from_zonemap_per_scan",
                    Ratio(run.TracedCount({kNarrow}, kAggsFromZonemap),
                          run.TracedOps({kNarrow})),
                    "count"});
    const double hits = run.TracedCount({kNarrow, kWide, kSelective}, kCacheHits);
    const double misses =
        run.TracedCount({kNarrow, kWide, kSelective}, kCacheMisses);
    out->push_back({"sst.data_blocks_per_scan", Ratio(hits + misses, scans), "count"});
    out->push_back({"sst.blocks_skipped_per_scan",
                    Ratio(run.TracedCount({kSelective}, kBlocksSkipped),
                          run.TracedOps({kSelective})),
                    "count"});
    out->push_back({"sst.files_skipped_per_scan",
                    Ratio(run.TracedCount({kSelective}, kFilesSkipped),
                          run.TracedOps({kSelective})),
                    "count"});
  }

 private:
  static uint64_t Key(uint64_t row) { return kKeyBase + row * kKeyStride; }

  /// Column 1 holds the row number, so it is clustered with the key.
  static ColumnValue BaseValue(uint64_t row, int column) {
    return column == 1 ? row : CellValue(row, 0, column);
  }

  ColumnValue ModelValue(uint64_t row, int column) const {
    auto it = overrides_.find(row);
    if (it != overrides_.end()) {
      auto col = it->second.find(column);
      if (col != it->second.end()) return col->second;
    }
    return BaseValue(row, column);
  }

  bool Sampled(Kind kind) { return checks_[kind]++ % kCheckEvery == 0; }

  OpResult Narrow(Run* run) {
    const uint64_t first = rng_.Uniform(kRows - kNarrowRows + 1);
    const uint64_t last = first + kNarrowRows - 1;
    auto it = run->Call(span_newscan_,
                        [&] { return db_->NewScan(Key(first), Key(last), narrow_); });
    if (it == nullptr) return {Status::InvalidArgument("scan refused"), ""};
    laser::ScanAggregates aggs;
    Status s = run->Call(span_aggregate_, [&] {
      Status status = it->AggregateAll(&aggs);
      it.reset();  // publishes the scan's counters
      return status;
    });
    if (!s.ok() || !Sampled(kNarrow)) return {s, ""};
    std::vector<uint64_t> sums(narrow_.size(), 0);
    for (uint64_t r = first; r <= last; ++r) {
      for (size_t i = 0; i < narrow_.size(); ++i) sums[i] += ModelValue(r, narrow_[i]);
    }
    if (aggs.rows != kNarrowRows || aggs.sums != sums) {
      return {s, "wrong narrow sum from row " + std::to_string(first)};
    }
    return {s, ""};
  }

  /// Drains `it` into `rows` and destroys it, which publishes the scan's
  /// counters.
  Status DrainInto(std::unique_ptr<laser::ScanIterator> it,
                   laser::ScanBatch* rows) {
    rows->keys.clear();
    rows->columns.assign(it->projection().size(), {});
    while (it->NextBatch(&batch_) > 0) {
      rows->keys.insert(rows->keys.end(), batch_.keys.begin(), batch_.keys.end());
      for (size_t c = 0; c < batch_.columns.size(); ++c) {
        auto& dst = rows->columns[c];
        const auto& src = batch_.columns[c];
        dst.values.insert(dst.values.end(), src.values.begin(),
                          src.values.begin() + batch_.size());
        dst.present.insert(dst.present.end(), src.present.begin(),
                           src.present.begin() + batch_.size());
      }
    }
    return it->status();
  }

  /// The timed drain of a measured scan.
  Status Drain(std::unique_ptr<laser::ScanIterator> it, Run* run,
               laser::ScanBatch* rows) {
    return run->Call(span_drain_, [&] { return DrainInto(std::move(it), rows); });
  }

  std::string CheckRows(const laser::ScanBatch& rows, const ColumnSet& projection,
                        const std::vector<uint64_t>& expected_rows) const {
    if (rows.keys.size() != expected_rows.size()) {
      return "wrong row count " + std::to_string(rows.keys.size()) + " vs " +
             std::to_string(expected_rows.size());
    }
    for (size_t i = 0; i < expected_rows.size(); ++i) {
      const uint64_t r = expected_rows[i];
      if (rows.keys[i] != Key(r)) return "wrong key at row " + std::to_string(r);
      for (size_t c = 0; c < projection.size(); ++c) {
        if (!rows.columns[c].present[i] ||
            rows.columns[c].values[i] != ModelValue(r, projection[c])) {
          return "wrong value at row " + std::to_string(r);
        }
      }
    }
    return "";
  }

  OpResult Wide(Run* run) {
    const uint64_t first = rng_.Uniform(kRows - kWideRows + 1);
    const uint64_t last = first + kWideRows - 1;
    auto it = run->Call(span_newscan_,
                        [&] { return db_->NewScan(Key(first), Key(last), wide_); });
    if (it == nullptr) return {Status::InvalidArgument("scan refused"), ""};
    Status s = Drain(std::move(it), run, &rows_);
    if (!s.ok() || !Sampled(kWide)) return {s, ""};
    std::vector<uint64_t> expected;
    for (uint64_t r = first; r <= last; ++r) expected.push_back(r);
    return {s, CheckRows(rows_, wide_, expected)};
  }

  OpResult Selective(Run* run) {
    const uint64_t lo = rng_.Uniform(kRows - kSelectiveRows + 1);
    laser::ScanSpec spec;
    spec.predicates.push_back({1, laser::PredOp::kBetween, lo, lo + kSelectiveRows - 1});
    auto it = run->Call(span_newscan_, [&] {
      return db_->NewScan(Key(0), Key(kRows - 1), selective_, spec);
    });
    if (it == nullptr) return {Status::InvalidArgument("scan refused"), ""};
    Status s = Drain(std::move(it), run, &rows_);
    if (!s.ok() || !Sampled(kSelective)) return {s, ""};
    std::vector<uint64_t> expected;
    for (uint64_t r = lo; r < lo + kSelectiveRows; ++r) expected.push_back(r);
    std::string wrong = CheckRows(rows_, selective_, expected);
    if (!wrong.empty()) return {s, wrong};
    // The pushdown scan must return what filtering after the scan returns.
    laser::ScanBatch all;
    s = run->Unattributed([&] {
      return DrainInto(db_->NewScan(Key(0), Key(kRows - 1), selective_), &all);
    });
    if (!s.ok()) return {s, ""};
    size_t matched = 0;
    for (size_t i = 0; i < all.keys.size(); ++i) {
      const ColumnValue v = all.columns[0].values[i];
      if (!all.columns[0].present[i] || v < lo || v >= lo + kSelectiveRows) continue;
      if (matched >= rows_.keys.size() || rows_.keys[matched] != all.keys[i]) {
        return {s, "pushdown differs from filter-after-scan"};
      }
      for (size_t c = 0; c < selective_.size(); ++c) {
        if (rows_.columns[c].values[matched] != all.columns[c].values[i]) {
          return {s, "pushdown value differs from filter-after-scan"};
        }
      }
      ++matched;
    }
    if (matched != rows_.keys.size()) return {s, "pushdown returned extra rows"};
    return {s, ""};
  }

  const uint64_t seed_;
  laser::Random rng_;
  Schedule schedule_;
  const ColumnSet narrow_;
  const ColumnSet wide_;
  const ColumnSet selective_;
  std::unordered_map<uint64_t, std::unordered_map<int, ColumnValue>> overrides_;
  uint64_t checks_[3] = {0, 0, 0};
  laser::ScanBatch batch_;
  laser::ScanBatch rows_;
  std::unique_ptr<LaserDB> db_;
  int span_newscan_ = 0, span_aggregate_ = 0, span_drain_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapScan(uint64_t seed) {
  return std::make_unique<OlapScan>(seed);
}

}  // namespace laserbench
