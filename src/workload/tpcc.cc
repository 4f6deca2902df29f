#include "workload/tpcc.h"

#include <algorithm>
#include <map>

#include "util/hash.h"

namespace laser::tpcc {

namespace {

/// Dense 8-column row; cols[i] is column id i+1.
std::vector<ColumnValue> MakeRow(Table table, uint64_t status, uint64_t ticket,
                                 uint64_t amount, uint64_t quantity,
                                 uint64_t count, uint64_t aux, uint64_t data) {
  std::vector<ColumnValue> row(kNumColumns, 0);
  row[kColTable - 1] = static_cast<uint64_t>(table);
  row[kColStatus - 1] = status;
  row[kColTicket - 1] = ticket;
  row[kColAmount - 1] = amount;
  row[kColQuantity - 1] = quantity;
  row[kColCount - 1] = count;
  row[kColAux - 1] = aux;
  row[kColData - 1] = data;
  return row;
}

Status Mismatch(const std::string& what, uint64_t got, uint64_t want) {
  return Status::Corruption("tpcc invariant: " + what + ": got " +
                            std::to_string(got) + ", want " +
                            std::to_string(want));
}

}  // namespace

Schema TpccSchema() {
  std::vector<ColumnSpec> cols;
  cols.push_back({"table", ColumnType::kInt32});
  cols.push_back({"status", ColumnType::kInt32});
  cols.push_back({"ticket", ColumnType::kInt64});
  cols.push_back({"amount", ColumnType::kInt64});
  cols.push_back({"quantity", ColumnType::kInt64});
  cols.push_back({"count", ColumnType::kInt64});
  cols.push_back({"aux", ColumnType::kInt64});
  cols.push_back({"data", ColumnType::kInt64});
  return Schema(std::move(cols));
}

ShardedLaserOptions TpccOptions(Env* env, const std::string& path,
                                const TpccSpec& spec, int num_shards) {
  constexpr int kLevels = 6;
  ShardedLaserOptions options;
  options.base.env = env;
  options.base.path = path;
  options.base.schema = TpccSchema();
  options.base.num_levels = kLevels;
  options.base.size_ratio = 2;
  // Row-format hot levels (the OLTP working set), columnar below (what the
  // CH scans sweep) — the paper's HTAP-simple design.
  options.base.cg_config = CgConfig::HtapSimple(kNumColumns, kLevels, 2);
  options.base.write_buffer_size = 256 * 1024;
  options.base.level0_bytes = 512 * 1024;
  options.base.target_sst_size = 256 * 1024;
  options.base.block_size = 4096;
  options.base.background_threads = 2;
  options.base.use_wal = true;
  options.num_shards = num_shards;
  if (num_shards > 1 &&
      num_shards <= static_cast<int>(spec.warehouses)) {
    // Split on warehouse boundaries: shard i owns a contiguous band of
    // warehouses, so home-warehouse transactions stay single-shard and
    // remote payments / remote-supplied order lines pay the 2PC path.
    for (int i = 1; i < num_shards; ++i) {
      const uint32_t first_w =
          1 + static_cast<uint32_t>(
                  (static_cast<uint64_t>(i) * spec.warehouses) / num_shards);
      options.split_points.push_back(WarehouseBase(first_w));
    }
  } else {
    options.key_domain = KeyDomain(spec.warehouses);
  }
  return options;
}

TpccDriver::TpccDriver(const TpccSpec& spec, ShardedLaserDB* db)
    : spec_(spec),
      db_(db),
      probe_(spec.max_new_orders),
      warehouse_mu_(spec.warehouses),
      next_o_id_(static_cast<size_t>(spec.warehouses) * spec.districts, 1),
      expected_w_ytd_(spec.warehouses, 0),
      expected_balance_(
          static_cast<size_t>(spec.warehouses) * spec.districts *
              spec.customers,
          0) {}

uint64_t TpccDriver::ItemPrice(uint32_t item) const {
  return 100 + Hash32(reinterpret_cast<const char*>(&item), sizeof(item),
                      0x70c1ce) %
                   900;  // cents
}

uint64_t TpccDriver::FillerData(uint64_t key) const {
  return Hash32(reinterpret_cast<const char*>(&key), sizeof(key), 0xf111e4);
}

std::vector<std::unique_lock<std::mutex>> TpccDriver::LockWarehouses(
    uint32_t home_w, uint32_t other_w) {
  std::vector<std::unique_lock<std::mutex>> locks;
  uint32_t lo = home_w, hi = (other_w == 0 ? home_w : other_w);
  if (lo > hi) std::swap(lo, hi);
  locks.emplace_back(warehouse_mu_[lo - 1]);
  if (hi != lo) locks.emplace_back(warehouse_mu_[hi - 1]);
  return locks;
}

Status TpccDriver::ReadRow(uint64_t key, RowImage* out) {
  static const ColumnSet kAll = [] {
    ColumnSet all;
    for (int c = 1; c <= kNumColumns; ++c) all.push_back(c);
    return all;
  }();
  LaserDB::ReadResult result;
  LASER_RETURN_IF_ERROR(db_->Read(key, kAll, &result));
  out->found = result.found;
  out->cols.assign(kNumColumns, 0);
  if (result.found) {
    for (int c = 0; c < kNumColumns; ++c) {
      if (result.values[c].has_value()) out->cols[c] = *result.values[c];
    }
  }
  return Status::OK();
}

Status TpccDriver::Load() {
  for (uint32_t w = 1; w <= spec_.warehouses; ++w) {
    WriteBatch batch;
    batch.Insert(WarehouseKey(w),
                 MakeRow(Table::kWarehouse, 0, 0, /*ytd=*/0, 0, 0, 0,
                         FillerData(WarehouseKey(w))));
    for (uint32_t d = 1; d <= spec_.districts; ++d) {
      const uint64_t dkey = DistrictKey(w, d);
      batch.Insert(dkey, MakeRow(Table::kDistrict, 0, 0, /*ytd=*/0, 0,
                                 /*next_o_id=*/1, 0, FillerData(dkey)));
    }
    LASER_RETURN_IF_ERROR(db_->Write(batch));
    batch.Clear();

    for (uint32_t d = 1; d <= spec_.districts; ++d) {
      for (uint32_t c = 1; c <= spec_.customers; ++c) {
        const uint64_t ckey = CustomerKey(w, d, c);
        batch.Insert(ckey, MakeRow(Table::kCustomer, 0, 0, /*balance=*/0, 0,
                                   /*payment_cnt=*/0, /*ytd_payment=*/0,
                                   FillerData(ckey)));
      }
      LASER_RETURN_IF_ERROR(db_->Write(batch));
      batch.Clear();
    }

    for (uint32_t item = 1; item <= spec_.items; ++item) {
      const uint64_t skey = StockKey(w, item);
      const uint64_t qty = 50 + FillerData(skey) % 50;
      batch.Insert(skey, MakeRow(Table::kStock, 0, 0, /*s_ytd=*/0, qty,
                                 /*order_cnt=*/0, 0, FillerData(skey)));
      if (batch.count() >= 256) {
        LASER_RETURN_IF_ERROR(db_->Write(batch));
        batch.Clear();
      }
    }
    if (!batch.empty()) LASER_RETURN_IF_ERROR(db_->Write(batch));
  }
  return Status::OK();
}

Status TpccDriver::NewOrder(uint32_t home_w, Random* rng) {
  const uint32_t d = 1 + static_cast<uint32_t>(rng->Uniform(spec_.districts));
  const uint32_t c = 1 + static_cast<uint32_t>(rng->Uniform(spec_.customers));
  const uint32_t n_lines =
      1 + static_cast<uint32_t>(rng->Uniform(spec_.max_order_lines));

  // At most one remote supplying warehouse per order bounds the lock set
  // (home + remote, ascending) and still exercises cross-shard 2PC.
  uint32_t remote_w = 0;
  if (spec_.warehouses > 1 &&
      rng->NextDouble() < spec_.remote_line_fraction) {
    remote_w = 1 + static_cast<uint32_t>(rng->Uniform(spec_.warehouses - 1));
    if (remote_w >= home_w) ++remote_w;
  }

  // Distinct items per order so the batch never carries two updates of one
  // stock key (the second would clobber the first's read-modify-write).
  std::vector<uint32_t> items;
  items.reserve(n_lines);
  while (items.size() < n_lines && items.size() < spec_.items) {
    const uint32_t item =
        1 + static_cast<uint32_t>(rng->Uniform(spec_.items));
    if (std::find(items.begin(), items.end(), item) == items.end()) {
      items.push_back(item);
    }
  }

  auto locks = LockWarehouses(home_w, remote_w);
  Env* env = db_->shard(0)->options().env;

  const size_t didx = DistrictIndex(home_w, d);
  const uint32_t o_id = next_o_id_[didx];
  const uint64_t ticket = probe_.AllocateTicket();

  WriteBatch batch;
  batch.Insert(OrderKey(home_w, d, o_id),
               MakeRow(Table::kOrder, 0, ticket, 0, 0,
                       /*o_ol_cnt=*/items.size(), /*o_c_id=*/c,
                       FillerData(OrderKey(home_w, d, o_id))));
  for (uint32_t l = 0; l < items.size(); ++l) {
    const uint32_t item = items[l];
    const uint32_t supply_w =
        (remote_w != 0 && l == 0) ? remote_w : home_w;  // line 1 may be remote
    RowImage stock;
    LASER_RETURN_IF_ERROR(ReadRow(StockKey(supply_w, item), &stock));
    if (!stock.found) {
      return Status::Corruption("tpcc: stock row missing for item " +
                                std::to_string(item));
    }
    const uint64_t ol_qty = 1 + rng->Uniform(10);
    const uint64_t s_qty = stock.cols[kColQuantity - 1];
    const uint64_t new_qty =
        s_qty >= ol_qty + 10 ? s_qty - ol_qty : s_qty + 91 - ol_qty;
    const uint64_t amount = ol_qty * ItemPrice(item);
    const uint64_t status = (o_id + l) % kNumStatuses;

    const uint64_t ol_key = OrderLineKey(home_w, d, o_id, l + 1);
    batch.Insert(ol_key, MakeRow(Table::kOrderLine, status, ticket, amount,
                                 ol_qty, 0, item, FillerData(ol_key)));
    batch.Update(StockKey(supply_w, item),
                 {{kColAmount, stock.cols[kColAmount - 1] + ol_qty},
                  {kColQuantity, new_qty},
                  {kColCount, stock.cols[kColCount - 1] + 1}});
  }
  batch.Update(DistrictKey(home_w, d), {{kColCount, o_id + 1}});

  LASER_RETURN_IF_ERROR(db_->Write(batch));
  next_o_id_[didx] = o_id + 1;
  probe_.RecordAck(ticket, env->NowMicros());
  new_orders_committed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TpccDriver::Payment(uint32_t home_w, Random* rng) {
  const uint32_t d = 1 + static_cast<uint32_t>(rng->Uniform(spec_.districts));
  uint32_t c_w = home_w;
  if (spec_.warehouses > 1 &&
      rng->NextDouble() < spec_.remote_payment_fraction) {
    c_w = 1 + static_cast<uint32_t>(rng->Uniform(spec_.warehouses - 1));
    if (c_w >= home_w) ++c_w;
  }
  const uint32_t c_d = 1 + static_cast<uint32_t>(rng->Uniform(spec_.districts));
  const uint32_t c = 1 + static_cast<uint32_t>(rng->Uniform(spec_.customers));
  const uint64_t amount = 100 + rng->Uniform(500000);  // cents

  auto locks = LockWarehouses(home_w, c_w == home_w ? 0 : c_w);

  RowImage warehouse, district, customer;
  LASER_RETURN_IF_ERROR(ReadRow(WarehouseKey(home_w), &warehouse));
  LASER_RETURN_IF_ERROR(ReadRow(DistrictKey(home_w, d), &district));
  LASER_RETURN_IF_ERROR(ReadRow(CustomerKey(c_w, c_d, c), &customer));
  if (!warehouse.found || !district.found || !customer.found) {
    return Status::Corruption("tpcc: payment target row missing");
  }

  WriteBatch batch;
  batch.Update(WarehouseKey(home_w),
               {{kColAmount, warehouse.cols[kColAmount - 1] + amount}});
  batch.Update(DistrictKey(home_w, d),
               {{kColAmount, district.cols[kColAmount - 1] + amount}});
  batch.Update(CustomerKey(c_w, c_d, c),
               {{kColAmount, customer.cols[kColAmount - 1] + amount},
                {kColCount, customer.cols[kColCount - 1] + 1},
                {kColAux, customer.cols[kColAux - 1] + amount}});
  LASER_RETURN_IF_ERROR(db_->Write(batch));

  expected_w_ytd_[home_w - 1] += amount;
  expected_balance_[CustomerIndex(c_w, c_d, c)] += amount;
  payments_committed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TpccDriver::OrderStatus(uint32_t home_w, Random* rng) {
  const uint32_t d = 1 + static_cast<uint32_t>(rng->Uniform(spec_.districts));
  const uint32_t c = 1 + static_cast<uint32_t>(rng->Uniform(spec_.customers));

  RowImage customer;
  LASER_RETURN_IF_ERROR(ReadRow(CustomerKey(home_w, d, c), &customer));

  // Latest order of the district; the in-memory counter is read without the
  // warehouse lock (read-only txn), so the order may not be visible yet —
  // tolerated, exactly like any other snapshot-lagging read.
  uint32_t next;
  {
    std::lock_guard<std::mutex> guard(warehouse_mu_[home_w - 1]);
    next = next_o_id_[DistrictIndex(home_w, d)];
  }
  if (next <= 1) return Status::OK();
  const uint32_t o_id = next - 1;

  RowImage order;
  LASER_RETURN_IF_ERROR(ReadRow(OrderKey(home_w, d, o_id), &order));
  if (!order.found) return Status::OK();

  const KeyRange lines = OrderLineRange(home_w, d, o_id);
  auto scan = db_->NewScan(lines.lo, lines.hi,
                           {kColAmount, kColQuantity, kColAux});
  if (scan == nullptr) return Status::InvalidArgument("order-line scan");
  ScanBatch batch;
  uint64_t rows = 0;
  while (size_t n = scan->NextBatch(&batch)) rows += n;
  LASER_RETURN_IF_ERROR(scan->status());
  (void)rows;
  return Status::OK();
}

Status TpccDriver::RunQ1(std::vector<Q1Group>* groups) {
  Env* env = db_->shard(0)->options().env;
  // Projection positions of the columns folded below.
  constexpr size_t kStatusPos = 1, kTicketPos = 2, kAmountPos = 3,
                   kQuantityPos = 4;
  const ColumnSet projection = {kColTable, kColStatus, kColTicket, kColAmount,
                                kColQuantity};
  ScanSpec spec;
  spec.predicates.push_back(
      {kColTable, PredOp::kEq, static_cast<uint64_t>(Table::kOrderLine), 0});
  auto scan = db_->NewScan(0, UINT64_MAX, projection, spec);
  if (scan == nullptr) return Status::InvalidArgument("q1 scan");

  groups->clear();
  for (int status = 0; status < kNumStatuses; ++status) groups->push_back({status});
  ScanBatch batch;
  while (const size_t n = scan->NextBatch(&batch)) {
    const ScanBatch::Column& status = batch.columns[kStatusPos];
    const ScanBatch::Column& ticket = batch.columns[kTicketPos];
    const ScanBatch::Column& amount = batch.columns[kAmountPos];
    const ScanBatch::Column& quantity = batch.columns[kQuantityPos];
    for (size_t r = 0; r < n; ++r) {
      // A null or out-of-domain status matches no group's predicate.
      if (status.present[r] == 0 || status.values[r] >= kNumStatuses) continue;
      Q1Group& group = (*groups)[status.values[r]];
      ++group.rows;
      if (amount.present[r] != 0) group.sum_amount += amount.values[r];
      if (quantity.present[r] != 0) group.sum_quantity += quantity.values[r];
      if (ticket.present[r] != 0) {
        group.max_ticket = std::max(group.max_ticket, ticket.values[r]);
      }
    }
  }
  LASER_RETURN_IF_ERROR(scan->status());

  uint64_t max_ticket = 0;
  for (const Q1Group& group : *groups) {
    max_ticket = std::max(max_ticket, group.max_ticket);
  }
  probe_.ObserveVisible(max_ticket, env->NowMicros());
  return Status::OK();
}

Status TpccDriver::VerifyInvariants() {
  for (uint32_t w = 1; w <= spec_.warehouses; ++w) {
    RowImage warehouse;
    LASER_RETURN_IF_ERROR(ReadRow(WarehouseKey(w), &warehouse));
    if (!warehouse.found) return Mismatch("warehouse row missing", w, w);
    const uint64_t w_ytd = warehouse.cols[kColAmount - 1];

    uint64_t district_ytd_sum = 0;
    for (uint32_t d = 1; d <= spec_.districts; ++d) {
      RowImage district;
      LASER_RETURN_IF_ERROR(ReadRow(DistrictKey(w, d), &district));
      if (!district.found) return Mismatch("district row missing", d, d);
      district_ytd_sum += district.cols[kColAmount - 1];
      const uint64_t d_next = district.cols[kColCount - 1];
      if (d_next != next_o_id_[DistrictIndex(w, d)]) {
        return Mismatch("d_next_o_id vs frontend", d_next,
                        next_o_id_[DistrictIndex(w, d)]);
      }

      // Orders of this district: count them, note each order's o_ol_cnt.
      std::map<uint32_t, uint64_t> ol_cnt;  // o_id -> expected line count
      uint64_t orders = 0, max_o = 0;
      {
        const KeyRange range = DistrictRange(w, Table::kOrder, d);
        auto scan = db_->NewScan(range.lo, range.hi, {kColCount});
        if (scan == nullptr) return Status::InvalidArgument("order scan");
        for (; scan->Valid(); scan->Next()) {
          const uint32_t o_id = KeyMid(scan->key());
          ++orders;
          max_o = std::max<uint64_t>(max_o, o_id);
          ol_cnt[o_id] = scan->values()[0].value_or(0);
        }
        LASER_RETURN_IF_ERROR(scan->status());
      }
      if (orders != d_next - 1) {
        return Mismatch("order count vs d_next_o_id", orders, d_next - 1);
      }
      if (orders > 0 && max_o != d_next - 1) {
        return Mismatch("max o_id vs d_next_o_id", max_o, d_next - 1);
      }

      // Their order lines: per-order counts and acked tickets.
      std::map<uint32_t, uint64_t> lines_seen;
      {
        const KeyRange range = DistrictRange(w, Table::kOrderLine, d);
        auto scan = db_->NewScan(range.lo, range.hi, {kColTicket});
        if (scan == nullptr) return Status::InvalidArgument("line scan");
        for (; scan->Valid(); scan->Next()) {
          const uint32_t o_id = KeyMid(scan->key());
          ++lines_seen[o_id];
          const uint64_t ticket = scan->values()[0].value_or(0);
          if (ticket == 0 || !probe_.acked(ticket)) {
            return Mismatch("visible order_line with unacked ticket", ticket,
                            0);
          }
        }
        LASER_RETURN_IF_ERROR(scan->status());
      }
      if (lines_seen.size() != ol_cnt.size()) {
        return Mismatch("orders with lines vs orders", lines_seen.size(),
                        ol_cnt.size());
      }
      for (const auto& [o_id, want] : ol_cnt) {
        const auto it = lines_seen.find(o_id);
        const uint64_t got = it == lines_seen.end() ? 0 : it->second;
        if (got != want) {
          return Mismatch("o_ol_cnt of order " + std::to_string(o_id), got,
                          want);
        }
      }

      for (uint32_t c = 1; c <= spec_.customers; ++c) {
        RowImage customer;
        LASER_RETURN_IF_ERROR(ReadRow(CustomerKey(w, d, c), &customer));
        if (!customer.found) return Mismatch("customer row missing", c, c);
        const uint64_t want = expected_balance_[CustomerIndex(w, d, c)];
        if (customer.cols[kColAmount - 1] != want) {
          return Mismatch("c_balance of customer " + std::to_string(c),
                          customer.cols[kColAmount - 1], want);
        }
      }
    }

    if (w_ytd != district_ytd_sum) {
      return Mismatch("w_ytd vs sum(d_ytd)", w_ytd, district_ytd_sum);
    }
    if (w_ytd != expected_w_ytd_[w - 1]) {
      return Mismatch("w_ytd vs frontend payments", w_ytd,
                      expected_w_ytd_[w - 1]);
    }
  }
  return Status::OK();
}

}  // namespace laser::tpcc
