// tpcc_ch: TPC-C over a two-shard ShardedLaserDB with the spec mix
// (45% NewOrder, 43% Payment, 12% OrderStatus). 15% of Payments hit a
// customer of another warehouse, and warehouses split across the shards, so
// those commit through cross-shard two-phase commit. One client cycles the
// home warehouses and runs CH-Q1 every 200 transactions. The TPC-C
// invariants are checked at the end.
//
// Every round of 200 transactions ends with CompactUntilStable() and then
// CH-Q1, so each Q1 sees a settled tree. NewOrders add order lines that are
// never deleted, so Q1 slows, and the transactions with it, as a run goes
// on. The measured phase therefore runs in epochs of kEpochRounds rounds,
// each from a fresh copy of the setup's state, so every epoch runs over the
// same data however fast the engine is.

#include <filesystem>

#include "harness.h"
#include "workload/tpcc.h"

namespace laserbench {
namespace {

using laser::ShardedLaserDB;
namespace tpcc = laser::tpcc;

enum Kind { kNewOrder, kPayment, kOrderStatus, kQ1, kCompact };

// One round: 200 transactions in a seeded order, CompactUntilStable(),
// then CH-Q1.
constexpr uint64_t kTxnsPerRound = 200;
constexpr uint64_t kRoundOps = kTxnsPerRound + 2;
// Setup runs this many transactions of the mix after the initial load, so
// the order tables are not empty when measuring starts.
constexpr uint64_t kPreloadTxns = 4000;
constexpr uint64_t kEpochRounds = 20;
constexpr uint64_t kEpochOps = kEpochRounds * kRoundOps;
constexpr int kShards = 2;
constexpr uint64_t kRowBytes = 8 + 2 * 4 + 6 * 8;  // key + the unified schema

class TpccCh final : public Workload {
 public:
  explicit TpccCh(uint64_t seed)
      : seed_(seed),
        mix_(seed, {{kNewOrder, 45}, {kPayment, 43}, {kOrderStatus, 12}}, {}) {
    spec_.warehouses = 4;
    spec_.seed = seed;
  }

  std::vector<std::string> kinds() const override {
    return {"new_order", "payment", "order_status", "ch_q1", "compact"};
  }

  Status Setup(const std::string& dir, SetupStats* stats) override {
    driver_.reset();
    db_.reset();
    dir_ = dir;
    rng_ = laser::Random(seed_);
    txns_ = 0;
    last_q1_rows_ = 0;

    laser::ShardedLaserOptions options =
        tpcc::TpccOptions(laser::Env::Default(), dir, spec_, kShards);
    const laser::LaserOptions base = BaseOptions(dir);
    options.base.background_threads = base.background_threads;
    options.base.disable_auto_compactions = base.disable_auto_compactions;
    options.base.use_wal = base.use_wal;
    options.base.wal_sync_policy = base.wal_sync_policy;
    LASER_RETURN_IF_ERROR(ShardedLaserDB::Open(options, &db_));
    driver_ = std::make_unique<tpcc::TpccDriver>(spec_, db_.get());
    LASER_RETURN_IF_ERROR(driver_->Load());
    LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));
    for (uint64_t i = 0; i < kPreloadTxns; ++i) {
      LASER_RETURN_IF_ERROR(Txn(mix_.KindAt(i), nullptr));
      if ((i + 1) % kTxnsPerRound == 0) {
        LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));
      }
    }
    LASER_RETURN_IF_ERROR(TimedFlush(db_.get(), stats));
    LASER_RETURN_IF_ERROR(TimedCompact(db_.get(), stats));

    laser::Stats engine;
    db_->AggregateStats(&engine);
    stats->bytes_flushed = engine.bytes_flushed.load();
    stats->bytes_compacted = engine.bytes_compacted.load();
    // The frontend's writes are only visible as WAL records.
    stats->user_bytes = engine.bytes_written_wal.load();
    std::vector<laser::LaserDB*> shards;
    for (int i = 0; i < db_->num_shards(); ++i) shards.push_back(db_->shard(i));
    stats->sst_bytes = TreeBytes(shards);
    uint64_t rows = 0;
    auto scan = db_->NewScan(0, UINT64_MAX, {tpcc::kColTable});
    laser::ScanBatch batch;
    while (size_t n = scan->NextBatch(&batch)) rows += n;
    LASER_RETURN_IF_ERROR(scan->status());
    stats->live_bytes = rows * kRowBytes;
    stats->fingerprint = ShapeFingerprint(shards, stats->bytes_flushed,
                                          stats->bytes_compacted);
    return Status::OK();
  }

  void Close() override {
    driver_.reset();
    db_.reset();
  }

  void RegisterSpans(Run* run) override {
    span_new_order_ = run->Span("workload.NewOrder");
    span_payment_ = run->Span("workload.Payment");
    span_order_status_ = run->Span("workload.OrderStatus");
    span_q1_ = run->Span("workload.RunQ1");
    span_compact_ = run->Span("lsm.CompactUntilStable");
  }

  // One epoch; the measured phase restarts from the setup's state.
  uint64_t warmup_ops() const override { return kEpochOps; }
  uint64_t window_ops() const override { return kEpochOps; }

  Status Restart() override {
    Close();
    std::filesystem::remove_all(dir_);
    SetupStats unused;
    return Setup(dir_, &unused);
  }

  int KindAt(uint64_t index) override {
    index %= kEpochOps;
    const uint64_t round = index / kRoundOps;
    const uint64_t pos = index % kRoundOps;
    if (pos == kTxnsPerRound) return kCompact;
    if (pos == kTxnsPerRound + 1) return kQ1;
    return mix_.KindAt(kPreloadTxns + round * kTxnsPerRound + pos);
  }

  OpResult Op(int kind, Run* run) override {
    if (kind == kCompact) {
      return {run->Call(span_compact_, [&] { return db_->CompactUntilStable(); }),
              ""};
    }
    if (kind != kQ1) return {Txn(kind, run), ""};
    std::vector<tpcc::Q1Group> groups;
    Status s = run->Call(span_q1_, [&] { return driver_->RunQ1(&groups); });
    if (!s.ok()) return {s, ""};
    // Order lines are never deleted: every round sees at least the last
    // round's lines.
    uint64_t rows = 0;
    for (const tpcc::Q1Group& g : groups) rows += g.rows;
    if (rows < last_q1_rows_) return {s, "CH-Q1 lost order lines"};
    last_q1_rows_ = rows;
    return {s, ""};
  }

  Status Verify() override {
    LASER_RETURN_IF_ERROR(db_->Flush());
    return driver_->VerifyInvariants();
  }

  Counters ReadCounters() const override {
    Counters sum;
    for (int i = 0; i < db_->num_shards(); ++i) {
      sum += Counters::From(db_->shard(i)->stats());
    }
    return sum;
  }

  std::array<int, 3> LatencyKinds() const override {
    return {kNewOrder, kQ1, kOrderStatus};
  }

  void PerLayer(const Run& run, Metrics* out) const override {
    out->push_back({"wal.syncs_per_new_order",
                    Ratio(run.TracedCount({kNewOrder}, kWalSyncs),
                          run.TracedOps({kNewOrder})),
                    "count"});
    out->push_back({"sst.blocks_skipped_per_scan",
                    Ratio(run.TracedCount({kQ1}, kBlocksSkipped), run.TracedOps({kQ1})),
                    "count"});
    out->push_back({"sst.files_skipped_per_scan",
                    Ratio(run.TracedCount({kQ1}, kFilesSkipped), run.TracedOps({kQ1})),
                    "count"});
    out->push_back({"workload.new_order_us", run.SpanMicros(span_new_order_), "us"});
    out->push_back({"workload.payment_us", run.SpanMicros(span_payment_), "us"});
    out->push_back(
        {"workload.order_status_us", run.SpanMicros(span_order_status_), "us"});
    out->push_back({"workload.q1_us", run.SpanMicros(span_q1_), "us"});
    out->push_back({"lsm.compact_share",
                    Ratio(run.tracer().totals(span_compact_).total_ns / 1e9,
                          run.traced_seconds()),
                    "ratio"});
  }

 private:
  /// One transaction; timed as a call when `run` is set (the measured
  /// phase), untimed in setup.
  Status Txn(int kind, Run* run) {
    const uint32_t home = static_cast<uint32_t>(txns_++ % spec_.warehouses) + 1;
    auto call = [&](int span, auto&& f) { return run ? run->Call(span, f) : f(); };
    switch (kind) {
      case kNewOrder:
        return call(span_new_order_, [&] { return driver_->NewOrder(home, &rng_); });
      case kPayment:
        return call(span_payment_, [&] { return driver_->Payment(home, &rng_); });
      default:
        return call(span_order_status_,
                    [&] { return driver_->OrderStatus(home, &rng_); });
    }
  }

  const uint64_t seed_;
  std::string dir_;
  tpcc::TpccSpec spec_;
  Schedule mix_;
  laser::Random rng_{0};
  uint64_t txns_ = 0;
  uint64_t last_q1_rows_ = 0;
  std::unique_ptr<ShardedLaserDB> db_;
  std::unique_ptr<tpcc::TpccDriver> driver_;
  int span_new_order_ = 0, span_payment_ = 0, span_order_status_ = 0,
      span_q1_ = 0, span_compact_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTpccCh(uint64_t seed) {
  return std::make_unique<TpccCh>(seed);
}

}  // namespace laserbench
