// point_lookup: a settled narrow row-layout tree with Monkey filter
// allocation, read-only. The data fits the block cache once the warm-up has
// touched it, so filter probes, index seeks and cached block searches do
// the work. Half the lookups hit existing keys; half probe absent keys,
// which only the filters can turn away cheaply. Half the hits read the whole
// row and half one column, which shows what a projection saves.

#include "harness.h"

namespace laserbench {
namespace {

using laser::ColumnValue;
using laser::LaserDB;

constexpr int kColumns = 8;
constexpr int kLevels = 6;
constexpr uint64_t kRows = 200000;
constexpr uint64_t kRowBytes = 8 + 4 * kColumns;
constexpr uint64_t kCompactEvery = 20000;
// Present keys are even and absent keys odd, both spread over [0, 2^63).
constexpr int kKeyBits = 62;
// The column the one-column hits read.
constexpr int kOneColumn = 5;

enum Kind { kHit, kAbsent, kHitOneColumn };

class PointLookup final : public Workload {
 public:
  explicit PointLookup(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        key_offset_(Scramble(seed)),
        schedule_(seed, {{kHit, 250}, {kAbsent, 500}, {kHitOneColumn, 250}}, {}),
        projection_(laser::MakeColumnRange(1, kColumns)),
        one_column_({kOneColumn}) {}

  std::vector<std::string> kinds() const override {
    return {"get_hit", "get_absent", "get_hit_one_column"};
  }

  Status Setup(const std::string& dir, SetupStats* stats) override {
    rng_ = laser::Random(seed_);
    laser::LaserOptions options = BaseOptions(dir);
    options.schema = laser::Schema::UniformInt32(kColumns);
    options.num_levels = kLevels;
    options.size_ratio = 2;
    options.write_buffer_size = 1024 * 1024;
    options.level0_bytes = 512 * 1024;
    options.target_sst_size = 512 * 1024;
    options.block_cache_bytes = 64 * 1024 * 1024;
    options.cg_config = laser::CgConfig::RowOnly(kColumns, kLevels);
    options.bloom_bits_per_key = 10;
    options.bloom_allocation = laser::BloomAllocation::kMonkey;
    LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db_));

    std::vector<ColumnValue> row(kColumns);
    for (uint64_t i = 0; i < kRows; ++i) {
      for (int c = 1; c <= kColumns; ++c) row[c - 1] = CellValue(i, 0, c);
      LASER_RETURN_IF_ERROR(db_->Insert(PresentKey(i), row));
      stats->user_bytes += kRowBytes;
      if ((i + 1) % kCompactEvery == 0) {
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

  void RegisterSpans(Run* run) override { span_read_ = run->Span("laser.Read"); }

  // Two lookups per row: every data block is in the cache afterwards.
  uint64_t warmup_ops() const override { return 2 * kRows; }
  // 50000 absent and 25000 of each kind of hit per window.
  uint64_t window_ops() const override { return 100 * schedule_.round_size(); }

  int KindAt(uint64_t index) override { return schedule_.KindAt(index); }

  OpResult Op(int kind, Run* run) override {
    const uint64_t i = rng_.Uniform(kRows);
    const uint64_t key =
        kind == kAbsent ? 2 * Scramble(rng_.Next(), kKeyBits) + 1 : PresentKey(i);
    const laser::ColumnSet& projection =
        kind == kHitOneColumn ? one_column_ : projection_;
    LaserDB::ReadResult result;
    Status s = run->Call(span_read_, [&] { return db_->Read(key, projection, &result); });
    if (!s.ok()) return {s, ""};
    if (kind == kAbsent) {
      return {s, result.found ? "absent key found: " + std::to_string(key) : ""};
    }
    if (!result.found) return {s, "row missing: " + std::to_string(i)};
    for (size_t j = 0; j < projection.size(); ++j) {
      if (!result.values[j].has_value() ||
          *result.values[j] != CellValue(i, 0, projection[j])) {
        return {s, "wrong value: row " + std::to_string(i)};
      }
    }
    return {s, ""};
  }

  Status Verify() override { return Status::OK(); }

  Counters ReadCounters() const override { return Counters::From(db_->stats()); }

  std::array<int, 3> LatencyKinds() const override {
    return {kHit, kAbsent, kHitOneColumn};
  }

  void PerLayer(const Run& run, Metrics* out) const override {
    const double hits = run.TracedOps({kHit, kHitOneColumn});
    const double absent = run.TracedOps({kAbsent});
    out->push_back({"laser.read_self_us", run.SelfMicros(span_read_), "us"});
    out->push_back({"sst.data_blocks_per_get",
                    Ratio(run.TracedCount({kHit, kHitOneColumn}, kCacheHits) +
                              run.TracedCount({kHit, kHitOneColumn}, kCacheMisses),
                          hits),
                    "count"});
    out->push_back({"sst.index_blocks_per_get",
                    Ratio(run.TracedCount({kHit, kHitOneColumn}, kIndexBlocks), hits),
                    "count"});
    out->push_back({"sst.bloom_checks_per_absent_get",
                    Ratio(run.TracedCount({kAbsent}, kBloomChecks), absent), "count"});
    const double negatives = run.TracedCount({kAbsent}, kBloomNegatives);
    const double false_positives = run.TracedCount({kAbsent}, kBloomFalsePositives);
    out->push_back({"sst.bloom_fpr",
                    Ratio(false_positives, negatives + false_positives), "ratio"});
  }

 private:
  uint64_t PresentKey(uint64_t i) const {
    return 2 * Scramble(i + key_offset_, kKeyBits);
  }

  const uint64_t seed_;
  laser::Random rng_;
  const uint64_t key_offset_;
  Schedule schedule_;
  const laser::ColumnSet projection_;
  const laser::ColumnSet one_column_;
  std::unique_ptr<LaserDB> db_;
  int span_read_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePointLookup(uint64_t seed) {
  return std::make_unique<PointLookup>(seed);
}

}  // namespace laserbench
