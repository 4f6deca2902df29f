// TPC-C/CH workload frontend tests: composite-key codec, FreshnessProbe
// semantics (a lag is never reported for an unacknowledged write), and the
// deterministic small-scale consistency mode — the concurrent
// NewOrder/Payment/OrderStatus mix plus analytic Q1 rounds, run single- and
// multi-shard (the multi-shard spec forces heavy remote transactions through
// the cross-shard 2PC path), then the classic TPC-C invariants verified
// against both the database and the frontend's expected counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "workload/tpcc.h"

namespace laser {
namespace {

using tpcc::Table;

// ------------------------------------------------------------ key codec --

TEST(TpccKeysTest, RoundTrip) {
  const uint64_t key = tpcc::OrderLineKey(7, 9, 12345, 14);
  EXPECT_EQ(tpcc::KeyWarehouse(key), 7u);
  EXPECT_EQ(tpcc::KeyTable(key), Table::kOrderLine);
  EXPECT_EQ(tpcc::KeyDistrict(key), 9u);
  EXPECT_EQ(tpcc::KeyMid(key), 12345u);
  EXPECT_EQ(tpcc::KeyLow(key), 14u);

  const uint64_t stock = tpcc::StockKey(3, 99999);
  EXPECT_EQ(tpcc::KeyWarehouse(stock), 3u);
  EXPECT_EQ(tpcc::KeyTable(stock), Table::kStock);
  EXPECT_EQ(tpcc::KeyMid(stock), 99999u);
}

TEST(TpccKeysTest, WarehouseMajorOrdering) {
  // Everything of warehouse 1 sorts below everything of warehouse 2, and
  // tables within a warehouse sort in enum order.
  EXPECT_LT(tpcc::StockKey(1, 1u << 27), tpcc::WarehouseKey(2));
  EXPECT_LT(tpcc::WarehouseKey(1), tpcc::DistrictKey(1, 1));
  EXPECT_LT(tpcc::DistrictKey(1, 255), tpcc::CustomerKey(1, 1, 1));
  EXPECT_LT(tpcc::CustomerKey(1, 255, 1u << 27),
            tpcc::OrderKey(1, 1, 1));
  EXPECT_LT(tpcc::OrderKey(1, 255, 1u << 27), tpcc::OrderLineKey(1, 1, 1, 1));
  EXPECT_LT(tpcc::OrderLineKey(1, 255, 1u << 27, 255), tpcc::StockKey(1, 1));
}

TEST(TpccKeysTest, RangesContainExactlyTheirRows) {
  const tpcc::KeyRange lines = tpcc::OrderLineRange(2, 3, 40);
  EXPECT_LE(lines.lo, tpcc::OrderLineKey(2, 3, 40, 1));
  EXPECT_GE(lines.hi, tpcc::OrderLineKey(2, 3, 40, 255));
  EXPECT_LT(lines.hi, tpcc::OrderLineKey(2, 3, 41, 1));

  const tpcc::KeyRange orders = tpcc::DistrictRange(2, Table::kOrder, 3);
  EXPECT_LE(orders.lo, tpcc::OrderKey(2, 3, 1));
  EXPECT_LT(orders.hi, tpcc::OrderKey(2, 4, 1));
  EXPECT_LT(orders.hi, tpcc::OrderLineKey(2, 1, 1, 1));

  const tpcc::KeyRange table = tpcc::TableRange(2, Table::kStock);
  EXPECT_LE(table.lo, tpcc::StockKey(2, 1));
  EXPECT_GE(table.hi, tpcc::StockKey(2, (1u << 27)));
  EXPECT_LT(table.hi, tpcc::KeyDomain(2));
}

// ------------------------------------------------------- FreshnessProbe --

TEST(FreshnessProbeTest, NormalLagIsEndMinusAck) {
  FreshnessProbe probe(16);
  const uint64_t t1 = probe.AllocateTicket();
  ASSERT_EQ(t1, 1u);
  probe.RecordAck(t1, 1000);
  probe.ObserveVisible(t1, 1500);
  ASSERT_EQ(probe.lags().count(), 1u);
  EXPECT_DOUBLE_EQ(probe.lags().Max(), 500.0);
  EXPECT_EQ(probe.pending_unacked(), 0u);
}

TEST(FreshnessProbeTest, UnackedVisibleTicketIsNeverReported) {
  FreshnessProbe probe(16);
  const uint64_t t1 = probe.AllocateTicket();
  // Visible before the writer recorded its ack: no lag sample may appear.
  probe.ObserveVisible(t1, 2000);
  EXPECT_EQ(probe.lags().count(), 0u);
  EXPECT_EQ(probe.pending_unacked(), 1u);

  // Still unacked on a later round: still nothing.
  probe.ObserveVisible(t1, 3000);
  EXPECT_EQ(probe.lags().count(), 0u);
  EXPECT_EQ(probe.pending_unacked(), 1u);

  // Once acked, it resolves at zero lag (visible before ack == no lag).
  probe.RecordAck(t1, 2500);
  probe.ObserveVisible(t1, 4000);
  ASSERT_EQ(probe.lags().count(), 1u);
  EXPECT_DOUBLE_EQ(probe.lags().Max(), 0.0);
  EXPECT_EQ(probe.pending_unacked(), 0u);
}

TEST(FreshnessProbeTest, VisibleBeforeAckClampsAtZero) {
  FreshnessProbe probe(16);
  const uint64_t t1 = probe.AllocateTicket();
  probe.RecordAck(t1, 5000);
  probe.ObserveVisible(t1, 4000);  // scan finished before the ack landed
  ASSERT_EQ(probe.lags().count(), 1u);
  EXPECT_DOUBLE_EQ(probe.lags().Max(), 0.0);
}

TEST(FreshnessProbeTest, OutOfOrderCommitsDeferOnlyTheMissingTicket) {
  FreshnessProbe probe(16);
  const uint64_t t1 = probe.AllocateTicket();
  const uint64_t t2 = probe.AllocateTicket();
  probe.RecordAck(t2, 1000);  // ticket 2 commits first
  probe.ObserveVisible(t2, 1200);
  EXPECT_EQ(probe.lags().count(), 1u);   // t2 reported
  EXPECT_EQ(probe.pending_unacked(), 1u);  // t1 parked
  probe.RecordAck(t1, 1300);
  probe.ObserveVisible(t2, 1400);
  EXPECT_EQ(probe.lags().count(), 2u);
  EXPECT_EQ(probe.pending_unacked(), 0u);
}

TEST(FreshnessProbeTest, ExhaustionReturnsZeroTicket) {
  FreshnessProbe probe(2);
  EXPECT_EQ(probe.AllocateTicket(), 1u);
  EXPECT_EQ(probe.AllocateTicket(), 2u);
  EXPECT_EQ(probe.AllocateTicket(), 0u);
  EXPECT_EQ(probe.allocated(), 2u);
}

// ------------------------------------------- deterministic consistency --

class TpccConsistencyTest : public ::testing::TestWithParam<int> {
 protected:
  tpcc::TpccSpec SmallSpec() const {
    tpcc::TpccSpec spec;
    spec.warehouses = 2;
    spec.districts = 3;
    spec.customers = 5;
    spec.items = 50;
    spec.max_order_lines = 5;
    // Force the cross-shard 2PC path hard when warehouses span shards.
    spec.remote_payment_fraction = 0.5;
    spec.remote_line_fraction = 0.3;
    spec.max_new_orders = 4096;
    return spec;
  }

  /// Runs the concurrent mix (one writer per warehouse + one analytic
  /// thread) and returns the driver for verification.
  void RunMix(ShardedLaserDB* db, tpcc::TpccDriver* driver,
              uint64_t txns_per_writer) {
    ASSERT_TRUE(driver->Load().ok());
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};

    std::vector<std::thread> writers;
    for (uint32_t w = 1; w <= driver->spec().warehouses; ++w) {
      writers.emplace_back([&, w] {
        Random rng(7 * w);
        for (uint64_t i = 0; i < txns_per_writer; ++i) {
          const uint64_t roll = rng.Uniform(100);
          Status status;
          if (roll < 45) {
            status = driver->NewOrder(w, &rng);
          } else if (roll < 88) {
            status = driver->Payment(w, &rng);
          } else {
            status = driver->OrderStatus(w, &rng);
          }
          if (!status.ok()) {
            ADD_FAILURE() << "txn failed: " << status.ToString();
            failed.store(true);
            return;
          }
        }
      });
    }
    std::thread analytic([&] {
      std::vector<tpcc::Q1Group> groups;
      bool last_round = false;
      while (!failed.load()) {
        if (!driver->RunQ1(&groups).ok()) {
          ADD_FAILURE() << "Q1 failed";
          return;
        }
        if (last_round) return;
        if (done.load()) last_round = true;  // one round past the writers
      }
    });
    for (auto& writer : writers) writer.join();
    done.store(true);
    analytic.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE(db->Flush().ok());
  }
};

TEST_P(TpccConsistencyTest, InvariantsHoldUnderConcurrentMix) {
  const int shards = GetParam();
  auto env = NewMemEnv();
  const tpcc::TpccSpec spec = SmallSpec();
  ShardedLaserOptions options =
      tpcc::TpccOptions(env.get(), "/tpcc", spec, shards);
  options.base.write_buffer_size = 16 * 1024;  // force flushes/compactions
  options.base.level0_bytes = 32 * 1024;
  options.base.target_sst_size = 16 * 1024;
  options.base.block_size = 1024;
  options.base.background_threads = 1;
  std::unique_ptr<ShardedLaserDB> db;
  ASSERT_TRUE(ShardedLaserDB::Open(options, &db).ok());
  ASSERT_EQ(db->num_shards(), shards);

  tpcc::TpccDriver driver(spec, db.get());
  RunMix(db.get(), &driver, /*txns_per_writer=*/300);

  EXPECT_TRUE(driver.VerifyInvariants().ok())
      << driver.VerifyInvariants().ToString();
  EXPECT_GT(driver.new_orders_committed(), 0u);
  EXPECT_GT(driver.payments_committed(), 0u);

  // Freshness: the final post-writer Q1 round saw every committed ticket,
  // every one of them acked — so no ticket may still be parked as
  // visible-but-unacked, no lag may be negative (clamped), and samples only
  // exist for acked writes.
  EXPECT_EQ(driver.probe().pending_unacked(), 0u);
  if (driver.probe().lags().count() > 0) {
    EXPECT_GE(driver.probe().lags().Min(), 0.0);
  }
  EXPECT_LE(driver.probe().lags().count(), driver.probe().allocated());
}

TEST_P(TpccConsistencyTest, Q1MatchesRowModeGroundTruth) {
  const int shards = GetParam();
  auto env = NewMemEnv();
  tpcc::TpccSpec spec = SmallSpec();
  spec.remote_line_fraction = 0.1;
  ShardedLaserOptions options =
      tpcc::TpccOptions(env.get(), "/tpcc_q1", spec, shards);
  // Small levels and files, so the settled tree reaches the columnar levels
  // (>= 2 under HtapSimple) and Q1 stitches column groups.
  options.base.write_buffer_size = 16 * 1024;
  options.base.level0_bytes = 8 * 1024;
  options.base.target_sst_size = 4 * 1024;
  options.base.block_size = 1024;
  options.base.background_threads = 1;
  std::unique_ptr<ShardedLaserDB> db;
  ASSERT_TRUE(ShardedLaserDB::Open(options, &db).ok());

  tpcc::TpccDriver driver(spec, db.get());
  ASSERT_TRUE(driver.Load().ok());
  Random rng(99);
  auto new_orders = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const uint32_t w =
          1 + static_cast<uint32_t>(rng.Uniform(spec.warehouses));
      ASSERT_TRUE(driver.NewOrder(w, &rng).ok());
    }
  };
  new_orders(400);
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactUntilStable().ok());
  for (int i = 0; i < shards; ++i) {
    const auto version = db->shard(i)->current_version();
    size_t columnar_files = 0;
    for (int level = 2; level < version->num_levels(); ++level) {
      for (int group = 0; group < version->num_groups(level); ++group) {
        columnar_files += version->files(level, group).size();
      }
    }
    EXPECT_GT(columnar_files, 0u) << "shard " << i << "\n"
                                  << db->shard(i)->DebugString();
  }
  new_orders(10);  // left in the memtables, over the settled levels

  std::vector<tpcc::Q1Group> groups;
  ASSERT_TRUE(driver.RunQ1(&groups).ok());
  ASSERT_EQ(groups.size(), static_cast<size_t>(tpcc::kNumStatuses));

  // Ground truth: row-mode scan of every order_line, folded by status.
  tpcc::Q1Group truth[tpcc::kNumStatuses];
  for (uint32_t w = 1; w <= spec.warehouses; ++w) {
    const tpcc::KeyRange range = tpcc::TableRange(w, Table::kOrderLine);
    auto scan = db->NewScan(range.lo, range.hi,
                            {tpcc::kColStatus, tpcc::kColTicket,
                             tpcc::kColAmount, tpcc::kColQuantity});
    ASSERT_NE(scan, nullptr);
    for (; scan->Valid(); scan->Next()) {
      const auto& values = scan->values();
      ASSERT_TRUE(values[0].has_value()) << "key " << scan->key();
      const uint64_t status = *values[0];
      ASSERT_LT(status, static_cast<uint64_t>(tpcc::kNumStatuses));
      tpcc::Q1Group& group = truth[status];
      ++group.rows;
      group.max_ticket = std::max(group.max_ticket, values[1].value_or(0));
      group.sum_amount += values[2].value_or(0);
      group.sum_quantity += values[3].value_or(0);
    }
    ASSERT_TRUE(scan->status().ok());
  }

  // Second reference: one pushed-down AggregateAll per status, with both the
  // table and the status predicate.
  tpcc::Q1Group pushed[tpcc::kNumStatuses];
  for (int s = 0; s < tpcc::kNumStatuses; ++s) {
    ScanSpec scan_spec;
    scan_spec.predicates.push_back(
        {tpcc::kColTable, PredOp::kEq,
         static_cast<uint64_t>(Table::kOrderLine), 0});
    scan_spec.predicates.push_back(
        {tpcc::kColStatus, PredOp::kEq, static_cast<uint64_t>(s), 0});
    auto scan = db->NewScan(0, UINT64_MAX,
                            {tpcc::kColTable, tpcc::kColStatus,
                             tpcc::kColTicket, tpcc::kColAmount,
                             tpcc::kColQuantity},
                            scan_spec);
    ASSERT_NE(scan, nullptr);
    ScanAggregates aggs;
    ASSERT_TRUE(scan->AggregateAll(&aggs).ok());
    pushed[s].rows = aggs.rows;
    pushed[s].sum_amount = aggs.sums[3];
    pushed[s].sum_quantity = aggs.sums[4];
    pushed[s].max_ticket = aggs.counts[2] > 0 ? aggs.maxima[2] : 0;
  }

  uint64_t total_rows = 0;
  for (int s = 0; s < tpcc::kNumStatuses; ++s) {
    EXPECT_EQ(groups[s].status, s);
    for (const tpcc::Q1Group* ref : {&truth[s], &pushed[s]}) {
      const char* name = ref == &truth[s] ? "row mode" : "per-status";
      EXPECT_EQ(groups[s].rows, ref->rows) << name << ", status " << s;
      EXPECT_EQ(groups[s].sum_amount, ref->sum_amount)
          << name << ", status " << s;
      EXPECT_EQ(groups[s].sum_quantity, ref->sum_quantity)
          << name << ", status " << s;
      EXPECT_EQ(groups[s].max_ticket, ref->max_ticket)
          << name << ", status " << s;
    }
    total_rows += groups[s].rows;
  }
  EXPECT_GT(total_rows, 0u);
  // The newest NewOrder is still in a memtable and must be in some group.
  uint64_t max_ticket = 0;
  for (const tpcc::Q1Group& group : groups) {
    max_ticket = std::max(max_ticket, group.max_ticket);
  }
  EXPECT_EQ(max_ticket, driver.probe().allocated());
}

INSTANTIATE_TEST_SUITE_P(SingleAndMultiShard, TpccConsistencyTest,
                         ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? "single_shard"
                                                  : "two_shards";
                         });

}  // namespace
}  // namespace laser
