// TPC-C/CH HTAP workload frontend over ShardedLaserDB (ROADMAP item 2,
// modeled on leanstore's frontend/tpc-c shape): the six TPC-C tables mapped
// onto LASER's uint64 key space by the composite-key encoder (tpcc_keys.h)
// and one unified 8-column schema, a transactional mix (NewOrder, Payment,
// read-only OrderStatus) committed through atomic WriteBatches, CH-style Q1
// analytics (sum/avg over order_line grouped by delivery status) folded
// from one predicate-pushdown scan's batches on a snapshot, a
// commit-to-visible freshness probe, and a deterministic consistency checker
// for the classic TPC-C invariants.
//
// Unified schema (every table writes all 8 columns; unused ones hold 0):
//   col 1 table_id   (int32)  Table tag — the analytic predicate column
//   col 2 status     (int32)  order_line delivery status in [0, 3)
//   col 3 ticket     (int64)  order_line/order: freshness ticket of the
//                             NewOrder that created the row
//   col 4 amount     (int64)  money cents: w_ytd / d_ytd / c_balance /
//                             ol_amount / s_ytd
//   col 5 quantity   (int64)  ol_quantity / s_quantity
//   col 6 count      (int64)  d_next_o_id / c_payment_cnt / o_ol_cnt /
//                             s_order_cnt
//   col 7 aux        (int64)  c_ytd_payment / o_c_id / ol_item
//   col 8 data       (int64)  deterministic filler payload
//
// Concurrency model: the engine provides atomic durable commits (with
// cross-shard two-phase commit) but no cross-key transactional isolation, so
// the frontend serializes read-modify-write sections with per-warehouse
// locks, acquired in ascending warehouse order (home plus at most one remote
// warehouse) — the same discipline that keeps the engine's cross-shard
// prepare order acyclic. Money amounts only ever grow (Payment adds to the
// customer balance instead of subtracting), keeping every column unsigned.

#ifndef LASER_WORKLOAD_TPCC_H_
#define LASER_WORKLOAD_TPCC_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "laser/sharded_laser_db.h"
#include "util/random.h"
#include "workload/freshness_probe.h"
#include "workload/tpcc_keys.h"

namespace laser::tpcc {

// Unified-schema column ids (1-based).
constexpr int kColTable = 1;
constexpr int kColStatus = 2;
constexpr int kColTicket = 3;
constexpr int kColAmount = 4;
constexpr int kColQuantity = 5;
constexpr int kColCount = 6;
constexpr int kColAux = 7;
constexpr int kColData = 8;
constexpr int kNumColumns = 8;

/// Distinct order_line delivery statuses (CH Q1's group-by cardinality).
constexpr int kNumStatuses = 3;

/// The unified table schema (table/status int32, the rest int64).
Schema TpccSchema();

/// Scale and mix knobs. Defaults are a CI-sized TPC-C: the spec's 10
/// districts but scaled-down customers/items so smoke runs stay tiny.
struct TpccSpec {
  uint32_t warehouses = 4;
  uint32_t districts = 10;        ///< per warehouse
  uint32_t customers = 30;        ///< per district (spec: 3000)
  uint32_t items = 1000;          ///< per warehouse (spec: 100k)
  uint32_t max_order_lines = 10;  ///< lines per order drawn from [1, max]

  /// Fraction of Payments hitting a customer of another warehouse (spec:
  /// 15%) and of NewOrder lines supplied by a remote warehouse (spec: 1%).
  /// Both drive the cross-shard two-phase commit path when warehouses span
  /// shards.
  double remote_payment_fraction = 0.15;
  double remote_line_fraction = 0.01;

  // Transaction mix in percent (OrderStatus gets the remainder).
  int new_order_pct = 45;
  int payment_pct = 43;

  /// Upper bound on NewOrders across the run (sizes the probe's ack table).
  uint64_t max_new_orders = 1 << 20;

  uint64_t seed = 42;
};

/// One CH-Q1 group: aggregates over order_line rows with one status value.
struct Q1Group {
  int status = 0;
  uint64_t rows = 0;          ///< matching order_line rows
  uint64_t sum_amount = 0;    ///< sum(ol_amount)
  uint64_t sum_quantity = 0;  ///< sum(ol_quantity)
  uint64_t max_ticket = 0;    ///< newest NewOrder visible in this group
};

/// Drives the workload against an open ShardedLaserDB whose schema is
/// TpccSchema(). Transactions are thread-safe (per-warehouse locking);
/// Load/RunQ1/VerifyInvariants have the contracts noted on each.
class TpccDriver {
 public:
  TpccDriver(const TpccSpec& spec, ShardedLaserDB* db);

  TpccDriver(const TpccDriver&) = delete;
  TpccDriver& operator=(const TpccDriver&) = delete;

  /// Populates warehouses, districts, customers, and stock (no orders:
  /// d_next_o_id starts at 1). Deterministic. Call once, before any txn.
  Status Load();

  // -- transactions (thread-safe) --

  /// Inserts an order + its lines, updates the supplying stock rows and the
  /// district's next-order id, all in one atomic WriteBatch (cross-shard
  /// when a line is supplied remotely). Stamps a freshness ticket and
  /// records its ack on success.
  Status NewOrder(uint32_t home_w, Random* rng);

  /// Adds a payment to the home warehouse/district YTDs and a (possibly
  /// remote) customer's balance, one atomic WriteBatch.
  Status Payment(uint32_t home_w, Random* rng);

  /// Read-only: a customer's balance plus their district's latest order and
  /// its lines.
  Status OrderStatus(uint32_t home_w, Random* rng);

  // -- analytics --

  /// CH-style Q1: for each delivery status, sum/count over every order_line
  /// in the database. One full-domain scan pushes down the order_line
  /// predicate; its NextBatch batches are grouped by status here (a null
  /// status counts nowhere). Feeds the freshness probe with the newest
  /// ticket observed. Single consumer (one analytic thread).
  Status RunQ1(std::vector<Q1Group>* groups);

  // -- verification (quiesced: no concurrent txns) --

  /// Checks the TPC-C invariants against both the database and the
  /// frontend's expected counters:
  ///   1. warehouse.w_ytd == sum(district.d_ytd) == frontend payment total
  ///   2. district.d_next_o_id - 1 == number (and max id) of its orders
  ///   3. order.o_ol_cnt == count of its order_line rows, per order
  ///   4. customer.c_balance == frontend's expected balance
  ///   5. every visible order_line ticket has a recorded ack
  Status VerifyInvariants();

  FreshnessProbe& probe() { return probe_; }
  const TpccSpec& spec() const { return spec_; }

  /// Committed-transaction counters (relaxed; exact once writers joined).
  uint64_t new_orders_committed() const {
    return new_orders_committed_.load(std::memory_order_relaxed);
  }
  uint64_t payments_committed() const {
    return payments_committed_.load(std::memory_order_relaxed);
  }

 private:
  struct RowImage {
    bool found = false;
    std::vector<ColumnValue> cols;  // by column id - 1, absent = 0
  };

  /// Point-reads every column of `key` into a dense image (absent -> 0).
  Status ReadRow(uint64_t key, RowImage* out);

  /// Deterministic item price in cents.
  uint64_t ItemPrice(uint32_t item) const;
  uint64_t FillerData(uint64_t key) const;

  /// Locks home_w (and other_w when nonzero and different) in ascending
  /// order; returned guards release in reverse.
  std::vector<std::unique_lock<std::mutex>> LockWarehouses(uint32_t home_w,
                                                           uint32_t other_w);

  size_t DistrictIndex(uint32_t w, uint32_t d) const {
    return static_cast<size_t>(w - 1) * spec_.districts + (d - 1);
  }
  size_t CustomerIndex(uint32_t w, uint32_t d, uint32_t c) const {
    return DistrictIndex(w, d) * spec_.customers + (c - 1);
  }

  const TpccSpec spec_;
  ShardedLaserDB* const db_;
  FreshnessProbe probe_;

  /// Frontend concurrency control + expected-state tracking (see header
  /// comment). All mutable state below is guarded by the owning warehouse's
  /// lock, except the committed counters (atomics).
  std::vector<std::mutex> warehouse_mu_;
  std::vector<uint32_t> next_o_id_;          // per district
  std::vector<uint64_t> expected_w_ytd_;     // per warehouse
  std::vector<uint64_t> expected_balance_;   // per customer
  std::atomic<uint64_t> new_orders_committed_{0};
  std::atomic<uint64_t> payments_committed_{0};
};

/// ShardedLaserOptions for a TPC-C database: TpccSchema, shard split points
/// on warehouse boundaries (shard i gets a contiguous band of warehouses, so
/// intra-warehouse transactions stay single-shard and remote ones cross),
/// and a tree shape small enough that CI-scale runs still flush and compact.
ShardedLaserOptions TpccOptions(Env* env, const std::string& path,
                                const TpccSpec& spec, int num_shards);

}  // namespace laser::tpcc

#endif  // LASER_WORKLOAD_TPCC_H_
