// hw_lifecycle: the paper's HW workload (Table 3) on the narrow 30-column
// table. The design comes from the §6 advisor on the workload's trace, the
// tree is loaded and settled, and the measured phase mixes full-row inserts
// (Q1), 1% single-column updates (Q3), recency-skewed point reads (Q2a,
// Q2b) and Q4/Q5 range aggregates in the paper's proportions.
//
// Inserts run over a rolling window: each one rewrites the oldest row with
// a new version, which makes it the newest. The live data, and with it the
// tree's size and every scan's row count, stays the same however many ops a
// run gets through, so a faster engine is never charged for bigger scans.

#include <algorithm>
#include <unordered_map>

#include "cost/design_advisor.h"
#include "harness.h"
#include "workload/htap_workload.h"

namespace laserbench {
namespace {

using laser::ColumnSet;
using laser::ColumnValue;
using laser::ColumnValuePair;
using laser::LaserDB;

constexpr int kColumns = 30;
constexpr int kLevels = 8;
constexpr int kSizeRatio = 2;
constexpr uint64_t kRows = 60000;
constexpr uint64_t kRowBytes = 8 + 4 * kColumns;
// Inserts between the driver's CompactUntilStable() calls, in setup and in
// the measured phase (one call ends every schedule round).
constexpr int kInsertsPerRound = 5000;
// Every this many Q4/Q5 scans is checked against the model.
constexpr uint64_t kCheckScanEvery = 8;

enum Kind { kInsert, kUpdate, kReadQ2a, kReadQ2b, kScanQ4, kScanQ5, kCompact };

struct ReadClass {
  ColumnSet projection;
  double recency_mean;
  double recency_sd;
};

struct ScanClass {
  ColumnSet projection;
  double selectivity;
};

class HwLifecycle final : public Workload {
 public:
  explicit HwLifecycle(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        // Table 3 proportions: 20000 Q1 : 200 Q3 : 500 Q2a : 500 Q2b :
        // 12 Q4 : 12 Q5, in rounds of 5000 inserts.
        schedule_(seed,
                  {{kInsert, kInsertsPerRound},
                   {kUpdate, 50},
                   {kReadQ2a, 125},
                   {kReadQ2b, 125},
                   {kScanQ4, 3},
                   {kScanQ5, 3}},
                  {kCompact}) {
    keys_.resize(kRows);
    for (uint64_t slot = 0; slot < kRows; ++slot) {
      keys_[slot] = Scramble(slot + Scramble(seed) * kRows);
      sorted_.push_back({keys_[slot], static_cast<uint32_t>(slot)});
    }
    std::sort(sorted_.begin(), sorted_.end());
    reads_[0] = {laser::MakeColumnRange(1, 30), 0.98, 0.02};
    reads_[1] = {laser::MakeColumnRange(16, 30), 0.85, 0.02};
    scans_[0] = {laser::MakeColumnRange(21, 30), 0.05};
    scans_[1] = {laser::MakeColumnRange(28, 30), 0.50};
  }

  std::vector<std::string> kinds() const override {
    return {"insert", "update", "read_q2a", "read_q2b", "scan_q4", "scan_q5",
            "compact"};
  }

  Status Setup(const std::string& dir, SetupStats* stats) override {
    version_.assign(kRows, 0);
    overrides_.clear();
    inserted_ = 0;
    scans_done_[0] = scans_done_[1] = 0;
    rng_ = laser::Random(seed_);

    laser::LaserOptions options = BaseOptions(dir);
    options.schema = laser::Schema::UniformInt32(kColumns);
    options.num_levels = kLevels;
    options.size_ratio = kSizeRatio;
    options.write_buffer_size = 256 * 1024;
    options.level0_bytes = 512 * 1024;
    options.target_sst_size = 256 * 1024;
    options.block_cache_bytes = 4 * 1024 * 1024;

    // The design the §6 advisor picks for this workload's trace.
    const int64_t t0 = NowNanos();
    laser::HtapWorkloadSpec spec =
        laser::HtapWorkloadSpec::NarrowHW(static_cast<double>(kRows) / 400000.0);
    spec.seed = seed_;
    laser::WorkloadTrace trace(kLevels);
    laser::HtapWorkloadRunner(spec).FillTrace(&trace, kLevels, kSizeRatio);
    laser::DesignAdvisor advisor(&options.schema,
                                 LaserDB::ShapeFromOptions(options));
    options.cg_config = advisor.SelectDesign(trace);
    stats->select_design_ns = NowNanos() - t0;

    LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db_));
    std::vector<ColumnValue> row(kColumns);
    for (uint64_t slot = 0; slot < kRows; ++slot) {
      FillRow(slot, &row);
      LASER_RETURN_IF_ERROR(db_->Insert(keys_[slot], row));
      stats->user_bytes += kRowBytes;
      if ((slot + 1) % kInsertsPerRound == 0) {
        LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));
      }
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
    span_insert_ = run->Span("laser.Insert");
    span_update_ = run->Span("laser.Update");
    span_read_ = run->Span("laser.Read");
    span_newscan_ = run->Span("laser.NewScan");
    span_aggregate_ = run->Span("laser.AggregateAll");
    span_compact_ = run->Span("lsm.CompactUntilStable");
  }

  // 80000 inserts: the rolling window rewrites every row once, and the
  // tree, with its share of old versions, reaches its steady shape.
  uint64_t warmup_ops() const override { return 16 * schedule_.round_size(); }
  // 250 Q2a reads and 10000 inserts per window.
  uint64_t window_ops() const override { return 2 * schedule_.round_size(); }

  int KindAt(uint64_t index) override { return schedule_.KindAt(index); }

  OpResult Op(int kind, Run* run) override {
    switch (kind) {
      case kInsert:
        return Insert(run);
      case kUpdate:
        return Update(run);
      case kReadQ2a:
        return Read(reads_[0], run);
      case kReadQ2b:
        return Read(reads_[1], run);
      case kScanQ4:
        return Scan(0, run);
      case kScanQ5:
        return Scan(1, run);
      default:
        return {run->Call(span_compact_, [&] { return db_->CompactUntilStable(); }),
                ""};
    }
  }

  Status Verify() override {
    // Every row of the window, read back once after the measured phase.
    const ColumnSet all = laser::MakeColumnRange(1, kColumns);
    for (uint64_t slot = 0; slot < kRows; ++slot) {
      LaserDB::ReadResult result;
      LASER_RETURN_IF_ERROR(db_->Read(keys_[slot], all, &result));
      const std::string wrong = CheckRow(slot, all, result);
      if (!wrong.empty()) return Status::Corruption(wrong);
    }
    return Status::OK();
  }

  Counters ReadCounters() const override { return Counters::From(db_->stats()); }

  std::array<int, 3> LatencyKinds() const override {
    return {kInsert, kReadQ2a, kScanQ4};
  }

  void PerLayer(const Run& run, Metrics* out) const override {
    const double writes = run.TracedOps({kInsert, kUpdate});
    out->push_back({"laser.insert_self_us", run.SelfMicros(span_insert_), "us"});
    out->push_back({"laser.read_self_us", run.SelfMicros(span_read_), "us"});
    const double scans = run.TracedOps({kScanQ4, kScanQ5});
    out->push_back({"laser.newscan_us", run.SpanMicros(span_newscan_), "us"});
    out->push_back({"laser.drain_us", run.SpanMicros(span_aggregate_), "us"});
    out->push_back({"laser.rows_merged_per_emitted",
                    Ratio(run.TracedCount({kScanQ4, kScanQ5}, kRowsMerged),
                          run.TracedCount({kScanQ4, kScanQ5}, kRowsEmitted)),
                    "ratio"});
    out->push_back({"laser.aggs_from_zonemap_per_scan",
                    Ratio(run.TracedCount({kScanQ4, kScanQ5}, kAggsFromZonemap),
                          scans),
                    "count"});
    const double reads = run.TracedOps({kReadQ2a, kReadQ2b});
    out->push_back({"sst.data_blocks_per_get",
                    Ratio(run.TracedCount({kReadQ2a, kReadQ2b}, kCacheHits) +
                              run.TracedCount({kReadQ2a, kReadQ2b}, kCacheMisses),
                          reads),
                    "count"});
    out->push_back({"sst.data_blocks_per_scan",
                    Ratio(run.TracedCount({kScanQ4, kScanQ5}, kCacheHits) +
                              run.TracedCount({kScanQ4, kScanQ5}, kCacheMisses),
                          scans),
                    "count"});
    out->push_back({"wal.bytes_per_write",
                    Ratio(run.TracedCount({kInsert, kUpdate}, kWalBytes), writes),
                    "bytes"});
    out->push_back({"lsm.get_level_share",
                    Ratio(run.TracedCount({kReadQ2a}, kReadsResolvedLevel0),
                          run.TracedCount({kReadQ2a}, kReadsResolved)),
                    "ratio"});
    out->push_back({"lsm.compact_share",
                    Ratio(run.tracer().totals(span_compact_).total_ns / 1e9,
                          run.traced_seconds()),
                    "ratio"});
  }

 private:
  ColumnValue ModelValue(uint64_t slot, int column) const {
    auto it = overrides_.find(static_cast<uint32_t>(slot));
    if (it != overrides_.end()) {
      for (const ColumnValuePair& pair : it->second) {
        if (pair.column == column) return pair.value;
      }
    }
    return CellValue(slot, version_[slot], column);
  }

  void FillRow(uint64_t slot, std::vector<ColumnValue>* row) const {
    for (int c = 1; c <= kColumns; ++c) {
      (*row)[c - 1] = CellValue(slot, version_[slot], c);
    }
  }

  /// Slot at a recency drawn from N(mean, sd), 1.0 being the newest row.
  uint64_t SlotAtRecency(double mean, double sd) {
    const double f = std::clamp(rng_.NextGaussian(mean, sd), 0.0, 1.0);
    const uint64_t age = static_cast<uint64_t>((1.0 - f) * (kRows - 1));
    const uint64_t head = inserted_ % kRows;  // oldest slot
    return (head + 2 * kRows - 1 - age) % kRows;
  }

  std::string CheckRow(uint64_t slot, const ColumnSet& projection,
                       const LaserDB::ReadResult& result) const {
    if (!result.found) return "row missing: slot " + std::to_string(slot);
    for (size_t i = 0; i < projection.size(); ++i) {
      const auto& value = result.values[i];
      if (!value.has_value() || *value != ModelValue(slot, projection[i])) {
        return "wrong value: slot " + std::to_string(slot) + " column " +
               std::to_string(projection[i]);
      }
    }
    return "";
  }

  OpResult Insert(Run* run) {
    const uint64_t slot = inserted_ % kRows;
    ++version_[slot];
    overrides_.erase(static_cast<uint32_t>(slot));
    row_.resize(kColumns);
    FillRow(slot, &row_);
    ++inserted_;
    return {run->Call(span_insert_, [&] { return db_->Insert(keys_[slot], row_); }),
            ""};
  }

  OpResult Update(Run* run) {
    const uint64_t slot = SlotAtRecency(0.98, 0.02);
    const int column = static_cast<int>(rng_.Range(1, kColumns + 1));
    const ColumnValue value = rng_.Next() & 0x7fffffffu;
    Status s = run->Call(span_update_,
                         [&] { return db_->Update(keys_[slot], {{column, value}}); });
    if (s.ok()) {
      auto& pairs = overrides_[static_cast<uint32_t>(slot)];
      auto it = std::find_if(pairs.begin(), pairs.end(),
                             [&](const auto& p) { return p.column == column; });
      if (it != pairs.end()) {
        it->value = value;
      } else {
        pairs.push_back({column, value});
      }
    }
    return {s, ""};
  }

  OpResult Read(const ReadClass& read, Run* run) {
    const uint64_t slot = SlotAtRecency(read.recency_mean, read.recency_sd);
    LaserDB::ReadResult result;
    Status s = run->Call(span_read_, [&] {
      return db_->Read(keys_[slot], read.projection, &result);
    });
    if (!s.ok()) return {s, ""};
    return {s, CheckRow(slot, read.projection, result)};
  }

  OpResult Scan(int which, Run* run) {
    const ScanClass& scan = scans_[which];
    const uint64_t span =
        static_cast<uint64_t>(scan.selectivity * 18446744073709551615.0);
    const uint64_t lo = rng_.Uniform(UINT64_MAX - span);
    const uint64_t hi = lo + span;
    auto it = run->Call(span_newscan_,
                        [&] { return db_->NewScan(lo, hi, scan.projection); });
    if (it == nullptr) return {Status::InvalidArgument("scan refused"), ""};
    laser::ScanAggregates aggs;
    Status s = run->Call(span_aggregate_, [&] {
      Status status = it->AggregateAll(&aggs);
      it.reset();  // publishes the scan's counters
      return status;
    });
    if (!s.ok() || scans_done_[which]++ % kCheckScanEvery != 0) return {s, ""};
    return {s, CheckAggregates(scan, lo, hi, aggs)};
  }

  std::string CheckAggregates(const ScanClass& scan, uint64_t lo, uint64_t hi,
                              const laser::ScanAggregates& aggs) const {
    const size_t width = scan.projection.size();
    uint64_t rows = 0;
    std::vector<uint64_t> sums(width, 0), maxima(width, 0);
    auto begin = std::lower_bound(sorted_.begin(), sorted_.end(),
                                  std::make_pair(lo, uint32_t{0}));
    for (auto it = begin; it != sorted_.end() && it->first <= hi; ++it) {
      ++rows;
      for (size_t i = 0; i < width; ++i) {
        const uint64_t v = ModelValue(it->second, scan.projection[i]);
        sums[i] += v;
        maxima[i] = std::max(maxima[i], v);
      }
    }
    if (aggs.rows != rows || aggs.sums != sums ||
        (rows > 0 && aggs.maxima != maxima)) {
      return "wrong aggregate over [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]: rows " + std::to_string(aggs.rows) +
             " vs model " + std::to_string(rows);
    }
    return "";
  }

  const uint64_t seed_;
  laser::Random rng_;
  Schedule schedule_;
  std::vector<uint64_t> keys_;                         // by slot
  std::vector<std::pair<uint64_t, uint32_t>> sorted_;  // (key, slot)
  std::vector<uint32_t> version_;                      // by slot
  std::unordered_map<uint32_t, std::vector<ColumnValuePair>> overrides_;
  uint64_t inserted_ = 0;  // inserts after setup; the oldest slot is this mod kRows
  uint64_t scans_done_[2] = {0, 0};
  ReadClass reads_[2];
  ScanClass scans_[2];
  std::vector<ColumnValue> row_;
  std::unique_ptr<LaserDB> db_;
  int span_insert_ = 0, span_update_ = 0, span_read_ = 0, span_newscan_ = 0,
      span_aggregate_ = 0, span_compact_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeHwLifecycle(uint64_t seed) {
  return std::make_unique<HwLifecycle>(seed);
}

}  // namespace laserbench
