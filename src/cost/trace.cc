#include "cost/trace.h"

#include <algorithm>
#include <set>

namespace laser {

WorkloadTrace::WorkloadTrace(int num_levels) : num_levels_(num_levels) {}

void WorkloadTrace::AddInsert(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  inserts_ += count;
}

void WorkloadTrace::AddPointRead(const ColumnSet& projection, int level,
                                 uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& histogram = point_reads_[projection];
  if (histogram.empty()) histogram.resize(num_levels_, 0);
  if (level < 0) level = 0;
  if (level >= num_levels_) level = num_levels_ - 1;
  histogram[level] += count;
}

void WorkloadTrace::AddRangeScan(const ColumnSet& projection,
                                 double selected_entries, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& stats = range_scans_[projection];
  stats.count += count;
  stats.total_selected += selected_entries * static_cast<double>(count);
}

void WorkloadTrace::AddUpdate(const ColumnSet& columns, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  updates_[columns] += count;
}

uint64_t WorkloadTrace::inserts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inserts_;
}

std::map<ColumnSet, std::vector<uint64_t>> WorkloadTrace::point_reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return point_reads_;
}

std::map<ColumnSet, WorkloadTrace::ScanStats> WorkloadTrace::range_scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return range_scans_;
}

std::map<ColumnSet, uint64_t> WorkloadTrace::updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return updates_;
}

std::vector<ColumnSet> WorkloadTrace::CoAccessSets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<ColumnSet> sets;
  for (const auto& [proj, unused] : point_reads_) sets.insert(proj);
  for (const auto& [proj, unused] : range_scans_) sets.insert(proj);
  return std::vector<ColumnSet>(sets.begin(), sets.end());
}

namespace {

/// Groups columns by identical per-column counts: each distinct nonzero
/// count becomes one (column set, count) bucket.
std::map<uint64_t, ColumnSet> BucketByCount(
    const uint64_t (&by_column)[Stats::kStatsColumns]) {
  std::map<uint64_t, ColumnSet> buckets;
  for (int i = 0; i < Stats::kStatsColumns; ++i) {
    if (by_column[i] > 0) buckets[by_column[i]].push_back(i + 1);
  }
  return buckets;
}

}  // namespace

void BuildTraceFromStats(const Stats& stats, WorkloadTrace* trace) {
  // One copy of the counters, so every term below reads the same values
  // while writers keep counting.
  const StatsSnapshot s = stats.Snapshot();
  trace->AddInsert(s.inserts);

  // Range scans: one co-access set per equal-count bucket, all at the
  // global average selectivity.
  const double avg_selected =
      s.range_scans > 0 ? static_cast<double>(s.scan_rows_emitted) /
                              static_cast<double>(s.range_scans)
                        : 0.0;
  for (const auto& [count, columns] : BucketByCount(s.scan_projected_by_column)) {
    trace->AddRangeScan(columns, avg_selected, count);
  }

  // Point reads: spread each bucket over levels in proportion to where the
  // walk actually resolved reads (remainder lands on the busiest level).
  uint64_t level_total = 0;
  int busiest = 0;
  for (int l = 0; l < Stats::kStatsLevels; ++l) {
    level_total += s.point_reads_by_level[l];
    if (s.point_reads_by_level[l] > s.point_reads_by_level[busiest]) busiest = l;
  }
  for (const auto& [count, columns] : BucketByCount(s.point_projected_by_column)) {
    if (level_total == 0) {
      trace->AddPointRead(columns, 0, count);
      continue;
    }
    uint64_t assigned = 0;
    for (int l = 0; l < Stats::kStatsLevels; ++l) {
      const uint64_t share = count * s.point_reads_by_level[l] / level_total;
      if (share > 0) trace->AddPointRead(columns, l, share);
      assigned += share;
    }
    if (assigned < count) trace->AddPointRead(columns, busiest, count - assigned);
  }

  // Updates: per-column singletons (the engine sees individual update ops,
  // and CoAccessSets() excludes updates anyway).
  for (int i = 0; i < Stats::kStatsColumns; ++i) {
    if (s.updated_by_column[i] > 0) trace->AddUpdate({i + 1}, s.updated_by_column[i]);
  }
}

std::string WorkloadTrace::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Appends only: GCC 12 flags `"literal" + std::string&&` with a false
  // -Wrestrict.
  std::string out = "inserts=";
  out.append(std::to_string(inserts_)).append("\n");
  for (const auto& [proj, by_level] : point_reads_) {
    out.append("read <").append(ColumnSetToString(proj)).append(">:");
    for (uint64_t n : by_level) out.append(" ").append(std::to_string(n));
    out += "\n";
  }
  for (const auto& [proj, stats] : range_scans_) {
    const double avg_sel = stats.count ? stats.total_selected / stats.count : 0;
    out.append("scan <").append(ColumnSetToString(proj)).append(">: count=");
    out.append(std::to_string(stats.count)).append(" avg_sel=");
    out.append(std::to_string(avg_sel)).append("\n");
  }
  for (const auto& [cols, n] : updates_) {
    out.append("update <").append(ColumnSetToString(cols)).append(">: ");
    out.append(std::to_string(n)).append("\n");
  }
  return out;
}

}  // namespace laser
