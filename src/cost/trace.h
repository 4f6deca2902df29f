// WorkloadTrace: per-level workload statistics (§6.1) consumed by the design
// advisor — the number of point reads served at each level with their
// projections, range scans with projections and selectivities, updates with
// their column sets, and the insert count. The engine fills one from its
// Stats counters (BuildTraceFromStats, below); benches can also fill one from
// a workload spec.

#ifndef LASER_COST_TRACE_H_
#define LASER_COST_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "laser/schema.h"
#include "util/stats.h"

namespace laser {

class WorkloadTrace {
 public:
  /// `num_levels` sizes the per-level read histograms.
  explicit WorkloadTrace(int num_levels);

  void AddInsert(uint64_t count = 1);

  /// A point read of `projection` resolved at `level` (0-based; reads
  /// resolved in the memtable count toward level 0).
  void AddPointRead(const ColumnSet& projection, int level, uint64_t count = 1);

  /// A range scan of `projection` selecting ~`selected_entries` entries.
  void AddRangeScan(const ColumnSet& projection, double selected_entries,
                    uint64_t count = 1);

  void AddUpdate(const ColumnSet& columns, uint64_t count = 1);

  // -- aggregates --

  int num_levels() const { return num_levels_; }
  uint64_t inserts() const;

  struct ScanStats {
    uint64_t count = 0;
    double total_selected = 0;  ///< sum of selected entries over scans
  };

  /// projection -> per-level read counts.
  std::map<ColumnSet, std::vector<uint64_t>> point_reads() const;
  std::map<ColumnSet, ScanStats> range_scans() const;
  std::map<ColumnSet, uint64_t> updates() const;

  /// Co-access sets that define CG atoms for the advisor: the projections of
  /// point reads and range scans. Update column sets are excluded — the HW
  /// workload updates one uniformly random column per Q3, which would
  /// degenerate every atom to a singleton; updates still enter the cost
  /// function (Eq. 9) through updates().
  std::vector<ColumnSet> CoAccessSets() const;

  std::string ToString() const;

 private:
  const int num_levels_;
  mutable std::mutex mu_;
  uint64_t inserts_ = 0;
  std::map<ColumnSet, std::vector<uint64_t>> point_reads_;
  std::map<ColumnSet, ScanStats> range_scans_;
  std::map<ColumnSet, uint64_t> updates_;
};

/// Reconstructs an advisor-ready trace from the engine's aggregate Stats
/// counters — the live-telemetry bridge of the online design loop. The
/// per-column counters cannot recover the exact projection multiset, but
/// they do recover its atoms: columns sharing identical access counts are
/// co-accessed everywhere the workload touched them, so each equal-count
/// bucket becomes one co-access set (with overlapping projections the
/// buckets are exactly the intersection atoms the advisor would derive).
/// Per-column access frequencies — what the Eq. 9 cost terms actually
/// consume — are preserved exactly. Point-read sets are spread over levels
/// proportional to `point_reads_by_level`; updates enter as per-column
/// singletons; scan selectivity is scan_rows_emitted / range_scans.
/// Counters are folded into `trace` on top of whatever it already holds.
void BuildTraceFromStats(const Stats& stats, WorkloadTrace* trace);

}  // namespace laser

#endif  // LASER_COST_TRACE_H_
