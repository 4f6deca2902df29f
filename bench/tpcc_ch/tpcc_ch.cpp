// TPC-C/CH HTAP scorecard (ROADMAP item 2): W warehouse writer threads
// drive the NewOrder/Payment/OrderStatus mix through atomic WriteBatches
// (cross-shard 2PC when a remote warehouse is touched) while one analytic
// thread loops CH-style Q1 aggregates over order_line, each round one
// order_line pushdown scan whose NextBatch batches the driver groups by
// status. Reports per-transaction throughput and
// tail latency, analytic round throughput, and commit-to-visible freshness
// lag percentiles, sweeping shards x WalSyncPolicy on the real filesystem.
//
// Emits BENCH_tpcc_ch.json (gated by tools/bench_diff.py in the nightly
// workflow; freshness fields are lower-is-better). Flags:
//   --shards=N   sweep {1, N} instead of the default {1, 4}
//   --verify     run the deterministic consistency mode: after each cell,
//                check the TPC-C invariants (w_ytd == sum d_ytd == payment
//                total, order/order_line counts vs d_next_o_id, customer
//                balances, every visible ticket acked); exit 1 on violation.

#include <cinttypes>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "workload/tpcc.h"

namespace laser::bench {
namespace {

using tpcc::TpccDriver;
using tpcc::TpccSpec;

enum TxnType { kNewOrder = 0, kPayment = 1, kOrderStatus = 2 };
constexpr const char* kTxnNames[] = {"new_order", "payment", "order_status"};

struct PolicySpec {
  const char* name;
  WalSyncPolicy policy;
};

constexpr PolicySpec kPolicies[] = {
    {"sync_every_group", WalSyncPolicy::kSyncEveryGroup},
    {"sync_interval_ms", WalSyncPolicy::kSyncIntervalMs},
    {"no_sync", WalSyncPolicy::kNoSync},
};

struct CellResult {
  double seconds = 0;
  uint64_t txns = 0;
  double txn_per_sec = 0;
  double per_type_per_sec[3] = {0, 0, 0};
  Histogram latency[3];  // per TxnType, microseconds
  uint64_t q1_rounds = 0;
  double q1_rows_per_sec = 0;  // matching order_line rows per analytic second
  Histogram q1_micros;
  double freshness_p50_us = 0;
  double freshness_p99_us = 0;
  uint64_t freshness_samples = 0;
  uint64_t freshness_pending = 0;
  bool verified = false;
  bool verify_ok = true;
  std::vector<std::pair<std::string, double>> engine_fields;
};

TpccSpec BenchSpec(double scale, uint64_t txns_per_writer) {
  TpccSpec spec;
  spec.warehouses = 4;
  spec.districts = 10;
  spec.customers = static_cast<uint32_t>(std::max(5.0, 30 * scale));
  spec.items = static_cast<uint32_t>(std::max(100.0, 1000 * scale));
  spec.max_new_orders = txns_per_writer * spec.warehouses + 16;
  return spec;
}

bool RunCell(const std::string& path, const TpccSpec& spec, int shards,
             WalSyncPolicy policy, uint64_t txns_per_writer, bool verify,
             CellResult* out) {
  Env* env = Env::Default();
  env->RemoveDir(path);
  ShardedLaserOptions options =
      tpcc::TpccOptions(env, path, spec, shards);
  options.base.wal_sync_policy = policy;
  options.base.wal_sync_interval_ms = 5;
  std::unique_ptr<ShardedLaserDB> db;
  if (!ShardedLaserDB::Open(options, &db).ok()) return false;

  TpccDriver driver(spec, db.get());
  if (!driver.Load().ok()) return false;

  const int writers = static_cast<int>(spec.warehouses);
  std::vector<std::vector<Histogram>> latencies(
      writers, std::vector<Histogram>(3));
  std::atomic<bool> writers_done{false};
  std::atomic<bool> failed{false};

  Stats before_stats;
  db->AggregateStats(&before_stats);
  const StatsSnapshot before = before_stats.Snapshot();

  const uint64_t t0 = env->NowMicros();
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      const uint32_t home_w = static_cast<uint32_t>(t + 1);
      Random rng(spec.seed + 1000 + t);
      for (uint64_t i = 0; i < txns_per_writer && !failed.load(); ++i) {
        const uint64_t roll = rng.Uniform(100);
        const TxnType type = roll < static_cast<uint64_t>(spec.new_order_pct)
                                 ? kNewOrder
                             : roll < static_cast<uint64_t>(spec.new_order_pct +
                                                            spec.payment_pct)
                                 ? kPayment
                                 : kOrderStatus;
        const uint64_t start = env->NowMicros();
        Status status;
        switch (type) {
          case kNewOrder:
            status = driver.NewOrder(home_w, &rng);
            break;
          case kPayment:
            status = driver.Payment(home_w, &rng);
            break;
          case kOrderStatus:
            status = driver.OrderStatus(home_w, &rng);
            break;
        }
        if (!status.ok()) {
          fprintf(stderr, "txn failed: %s\n", status.ToString().c_str());
          failed.store(true);
          return;
        }
        latencies[t][type].Add(static_cast<double>(env->NowMicros() - start));
      }
    });
  }

  // The analytic thread: Q1 rounds back to back until the writers finish,
  // plus one final round so every committed ticket is observed visible.
  uint64_t q1_rounds = 0, q1_rows = 0;
  double q1_seconds = 0;
  Histogram q1_micros;
  std::thread analytic([&] {
    std::vector<tpcc::Q1Group> groups;
    bool last_round = false;
    while (!failed.load()) {
      const uint64_t start = env->NowMicros();
      if (!driver.RunQ1(&groups).ok()) {
        failed.store(true);
        return;
      }
      const double micros = static_cast<double>(env->NowMicros() - start);
      q1_micros.Add(micros);
      q1_seconds += micros / 1e6;
      ++q1_rounds;
      for (const auto& group : groups) q1_rows += group.rows;
      if (last_round) return;
      if (writers_done.load()) last_round = true;
    }
  });

  for (auto& thread : threads) thread.join();
  const double seconds = static_cast<double>(env->NowMicros() - t0) / 1e6;
  writers_done.store(true);
  analytic.join();
  if (failed.load()) return false;

  out->seconds = seconds;
  for (int t = 0; t < writers; ++t) {
    for (int type = 0; type < 3; ++type) {
      out->latency[type].Merge(latencies[t][type]);
    }
  }
  for (int type = 0; type < 3; ++type) {
    out->txns += out->latency[type].count();
    out->per_type_per_sec[type] =
        static_cast<double>(out->latency[type].count()) / seconds;
  }
  out->txn_per_sec = static_cast<double>(out->txns) / seconds;
  out->q1_rounds = q1_rounds;
  out->q1_micros = q1_micros;
  out->q1_rows_per_sec =
      q1_seconds > 0 ? static_cast<double>(q1_rows) / q1_seconds : 0;
  out->freshness_p50_us = driver.probe().lags().Percentile(50);
  out->freshness_p99_us = driver.probe().lags().Percentile(99);
  out->freshness_samples = driver.probe().lags().count();
  out->freshness_pending = driver.probe().pending_unacked();

  if (verify) {
    out->verified = true;
    if (!db->Flush().ok()) return false;
    const Status status = driver.VerifyInvariants();
    out->verify_ok = status.ok();
    if (!status.ok()) {
      fprintf(stderr, "CONSISTENCY VIOLATION: %s\n",
              status.ToString().c_str());
    }
  }

  Stats after_stats;
  db->AggregateStats(&after_stats);
  AppendEngineStatsFields(after_stats, &out->engine_fields, before);

  db.reset();
  env->RemoveDir(path);
  return true;
}

}  // namespace
}  // namespace laser::bench

int main(int argc, char** argv) {
  using namespace laser;
  using namespace laser::bench;
  const double scale = ScaleFactor();
  BenchJson json("tpcc_ch");

  std::vector<int> shard_counts = {1, 4};
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    int n = 0;
    if (sscanf(argv[i], "--shards=%d", &n) == 1 && n >= 1) {
      shard_counts = n > 1 ? std::vector<int>{1, n} : std::vector<int>{1};
    } else if (std::string(argv[i]) == "--verify") {
      verify = true;
    }
  }

  const uint64_t txns_per_writer =
      static_cast<uint64_t>(std::max(150.0, 1500 * scale));
  const TpccSpec spec = BenchSpec(scale, txns_per_writer);
  const std::string path = "tpcc_ch_bench.tmp";

  PrintHeader("TPC-C/CH HTAP scorecard: shards x WAL sync policy");
  printf("W=%u districts=%u customers/district=%u items=%u txns/writer=%" PRIu64
         " verify=%d\n",
         spec.warehouses, spec.districts, spec.customers, spec.items,
         txns_per_writer, verify ? 1 : 0);
  printf("%-8s %-18s %10s %10s %10s %10s %12s %10s %10s\n", "shards", "policy",
         "txn/s", "no_p99us", "pay_p99us", "q1_rounds", "q1_rows/s",
         "fresh_p50", "fresh_p99");

  bool all_ok = true;
  // NewOrder throughput per shard count under sync_every_group — the
  // cross-shard scaling row the multicore CI job asserts on.
  double new_order_tps_1 = 0, new_order_tps_max = 0;
  int max_shards = 0;

  for (int shards : shard_counts) {
    for (const auto& policy : kPolicies) {
      CellResult r;
      if (!RunCell(path, spec, shards, policy.policy, txns_per_writer, verify,
                   &r)) {
        fprintf(stderr, "cell shards=%d policy=%s failed\n", shards,
                policy.name);
        all_ok = false;
        continue;
      }
      if (r.verified && !r.verify_ok) all_ok = false;
      printf("%-8d %-18s %10.0f %10.1f %10.1f %10" PRIu64 " %12.0f %10.1f "
             "%10.1f\n",
             shards, policy.name, r.txn_per_sec,
             r.latency[kNewOrder].Percentile(99),
             r.latency[kPayment].Percentile(99), r.q1_rounds,
             r.q1_rows_per_sec, r.freshness_p50_us, r.freshness_p99_us);

      std::vector<std::pair<std::string, double>> fields = {
          {"shards", static_cast<double>(shards)},
          {"writers", static_cast<double>(spec.warehouses)},
          {"txns", static_cast<double>(r.txns)},
          {"seconds", r.seconds},
          {"txn_per_sec", r.txn_per_sec},
          {"q1_rounds", static_cast<double>(r.q1_rounds)},
          {"q1_round_p50_us", r.q1_micros.Percentile(50)},
          {"q1_rows_per_sec", r.q1_rows_per_sec},
          {"freshness_p50_us", r.freshness_p50_us},
          {"freshness_p99_us", r.freshness_p99_us},
          {"freshness_samples", static_cast<double>(r.freshness_samples)},
          {"freshness_pending_unacked",
           static_cast<double>(r.freshness_pending)},
          {"verify_ok", r.verified ? (r.verify_ok ? 1.0 : 0.0) : -1.0},
      };
      for (int type = 0; type < 3; ++type) {
        const std::string prefix = kTxnNames[type];
        fields.emplace_back(prefix + "_per_sec", r.per_type_per_sec[type]);
        fields.emplace_back(prefix + "_p50_us",
                            r.latency[type].Percentile(50));
        fields.emplace_back(prefix + "_p99_us",
                            r.latency[type].Percentile(99));
        fields.emplace_back(prefix + "_p999_us",
                            r.latency[type].Percentile(99.9));
      }
      fields.insert(fields.end(), r.engine_fields.begin(),
                    r.engine_fields.end());
      json.Record("tpcc", std::string("shards_") + std::to_string(shards) +
                              "/" + policy.name,
                  std::move(fields));

      if (policy.policy == WalSyncPolicy::kSyncEveryGroup) {
        if (shards == 1) new_order_tps_1 = r.per_type_per_sec[kNewOrder];
        if (shards >= max_shards) {
          max_shards = shards;
          new_order_tps_max = r.per_type_per_sec[kNewOrder];
        }
      }
    }
  }

  if (new_order_tps_1 > 0 && max_shards > 1) {
    const double speedup = new_order_tps_max / new_order_tps_1;
    printf("\n%d shards vs 1 shard NewOrder throughput (sync_every_group): "
           "%.2fx (multicore CI bar on a >=4-core runner: >= 1.3x)\n",
           max_shards, speedup);
    json.Record("sharded_speedup", "new_order_shards_vs_1",
                {{"shards", static_cast<double>(max_shards)},
                 {"new_order_speedup", speedup}});
  }

  if (!all_ok) {
    fprintf(stderr, "\nFAILED (cell error or consistency violation)\n");
    return 1;
  }
  return 0;
}
