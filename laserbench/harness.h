// Harness shared by the benchmark's workloads: the op loop, per-op timing,
// spans for the traced run, engine-counter deltas, and metric output.
//
// Every workload runs in one process with one client thread in a closed
// loop: the next op starts when the previous one returns. Engines run with
// one background thread and auto compaction off; the driver calls Flush()
// and CompactUntilStable() at fixed op indices, so at a fixed seed the
// engine does the same work on every run.

#ifndef LASERBENCH_HARNESS_H_
#define LASERBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "laser/laser_db.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace laserbench {

using laser::Status;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bijection on [0, 2^bits): distinct inputs give distinct, well-spread
/// outputs, so generated keys never collide.
uint64_t Scramble(uint64_t x, int bits = 64);

/// Deterministic 31-bit column value of (row id, version, column).
uint64_t CellValue(uint64_t row, uint64_t version, int column);

/// Engine counters the benchmark attributes to ops, read from laser::Stats
/// at op boundaries.
enum Counter {
  kIndexBlocks,
  kCacheHits,
  kCacheMisses,
  kBloomChecks,
  kBloomNegatives,
  kBloomFalsePositives,
  kReadsResolved,
  kReadsResolvedLevel0,
  kRowsMerged,
  kRowsEmitted,
  kHeapResifts,
  kZipRows,
  kBlocksSkipped,
  kFilesSkipped,
  kRowsFiltered,
  kAggsFromZonemap,
  kWalBytes,
  kWalSyncs,
  kBytesFlushed,
  kBytesCompacted,
  kNumCounters,
};

struct Counters {
  std::array<uint64_t, kNumCounters> v{};

  static Counters From(const laser::Stats& stats);
  uint64_t operator[](Counter c) const { return v[c]; }
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Spans of the traced run, kept in memory and written out at exit. A span
/// is one op (root) or one public call the driver makes inside an op.
/// Self time is a span's duration minus its children's.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int32_t parent = -1;  ///< index into the stored spans; -1 for a root
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct NameTotals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// Raw spans beyond this many are folded into the totals only, which
  /// bounds memory on the fastest workloads.
  static constexpr size_t kMaxStoredSpans = 1 << 20;

  int Intern(const std::string& name);
  const std::string& name(int id) const { return names_[id]; }

  void Begin(int name, uint64_t op, int64_t now_ns);
  void End(int64_t now_ns);

  const NameTotals& totals(int name) const { return totals_[name]; }
  size_t num_names() const { return names_.size(); }

  /// Writes the stored spans as tab-separated lines.
  Status Write(const std::string& path) const;

 private:
  struct Open {
    int name;
    int32_t stored;  ///< index into spans_, or -1 when past the cap
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<std::string> names_;
  std::vector<NameTotals> totals_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

/// One measured quantity, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one setup did, for setup_s and the deterministic shape checks.
struct SetupStats {
  double seconds = 0;
  int64_t select_design_ns = 0;
  int64_t flush_ns = 0;
  int64_t compact_ns = 0;
  uint64_t bytes_flushed = 0;
  uint64_t bytes_compacted = 0;
  uint64_t user_bytes = 0;  ///< logical bytes the driver wrote
  uint64_t sst_bytes = 0;   ///< SST bytes of the settled tree
  uint64_t live_bytes = 0;  ///< logical bytes of the live rows
  uint64_t fingerprint = 0;
};

/// Hash of per-level/per-group file counts, entries and bytes of every
/// tree, folded with the setup's exact flushed and compacted bytes. 48 bits,
/// so it prints exactly as a JSON number.
uint64_t ShapeFingerprint(const std::vector<laser::LaserDB*>& dbs,
                          uint64_t bytes_flushed, uint64_t bytes_compacted);

/// Sum of SST bytes over every tree.
uint64_t TreeBytes(const std::vector<laser::LaserDB*>& dbs);

/// Per-op outcome a workload hands back to the loop.
struct OpResult {
  Status status;       ///< non-OK: the op failed (counted, run continues)
  std::string wrong;   ///< non-empty: a wrong output (the run stops)
};

class Workload;

/// The op loop. Times each public call, records spans in the traced slices,
/// and accumulates per-kind latencies and counter deltas.
class Run {
 public:
  Run(Workload* workload, bool trace);

  /// Times one public call into the engine. The op's latency is the sum of
  /// its calls, so driver-side input generation and output checks are not
  /// part of it. Traced slices record the call as a child span of the op.
  template <class F>
  decltype(auto) Call(int span_name, F&& f) {
    const int64_t t0 = NowNanos();
    if (tracing_) tracer_.Begin(span_name, op_index_, t0);
    struct Finish {
      Run* run;
      int64_t t0;
      ~Finish() {
        const int64_t t1 = NowNanos();
        if (run->tracing_) run->tracer_.End(t1);
        run->op_call_ns_ += t1 - t0;
      }
    } finish{this, t0};
    return f();
  }

  /// Runs engine work that only checks outputs: it is not timed as a call,
  /// and its counters are left out of the op's deltas.
  template <class F>
  decltype(auto) Unattributed(F&& f);

  int Span(const std::string& name) { return tracer_.Intern(name); }

  /// Runs ops [0, count) untimed.
  Status Warmup(uint64_t count);
  /// Runs ops from the warm-up's end until `seconds` have passed.
  Status Measure(double seconds);

  struct KindTotals {
    uint64_t ops = 0;
    std::vector<int64_t> latency_ns;  ///< untraced ops only, in run order
    /// Index into latency_ns where each window of the measured phase starts.
    std::vector<size_t> window_begin;
    uint64_t traced_ops = 0;
    int64_t traced_wall_ns = 0;  ///< op wall time in traced slices
    int64_t untraced_wall_ns = 0;  ///< ... and in untraced slices
    Counters traced_delta;
  };
  const KindTotals& kind(int k) const { return kinds_[k]; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& wrong() const { return wrong_; }

  /// Traced run only: wall time and ops of the traced and untraced slices.
  double traced_seconds() const { return traced_wall_ns_ / 1e9; }
  double untraced_seconds() const { return (wall_ns_ - traced_wall_ns_) / 1e9; }
  const Tracer& tracer() const { return tracer_; }

  /// The measured phase is cut into windows of the workload's
  /// window_ops(), so every window holds the same ops of every kind, however
  /// fast the engine is; a window cut short by the end of the phase is
  /// dropped. A shared VM's speed can drop by half for seconds to minutes,
  /// so each end-to-end figure is taken per window and reported at the best
  /// window: the lowest latency, the highest rate. A latency percentile is
  /// taken over groups of consecutive windows that hold ten samples beyond
  /// it.
  size_t windows() const { return window_ops_per_s_.size(); }
  /// Latency percentile of kind `k` in microseconds (nearest rank); NaN
  /// when no group of windows holds enough samples of the kind.
  double PercentileMicros(int k, double p) const;
  double OpsPerSecond() const;

  /// Traced run: mean self time per span `name`, in microseconds.
  double SelfMicros(int name) const;
  /// Traced run: mean duration per span `name`, in microseconds.
  double SpanMicros(int name) const;
  /// Traced run: counter `c` summed over the traced ops of `kinds`.
  uint64_t TracedCount(std::initializer_list<int> kinds, Counter c) const;
  /// ... and over the traced ops of every kind.
  uint64_t TracedCountAll(Counter c) const;
  uint64_t TracedOps(std::initializer_list<int> kinds) const;

  /// Traced run: the tracing overhead, the spans' coverage of the traced
  /// wall time, and the self-time share of every module.
  void TraceSummary(Metrics* out) const;
  /// Traced run: prints every span name's count, mean and self time, then
  /// `metrics` grouped by layer, as a table for people.
  void PrintLayerReport(const Metrics& metrics, FILE* out) const;

 private:
  OpResult RunOp(uint64_t index, bool traced);

  Workload* const workload_;
  const bool trace_;
  bool tracing_ = false;
  uint64_t op_index_ = 0;
  int64_t op_call_ns_ = 0;
  Counters op_excluded_;
  uint64_t next_op_ = 0;
  std::vector<KindTotals> kinds_;
  std::vector<int> op_span_;  ///< span name per kind
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int64_t wall_ns_ = 0;
  std::vector<double> window_ops_per_s_;
  int64_t traced_wall_ns_ = 0;
  int64_t root_span_ns_ = 0;
  uint64_t traced_ops_ = 0;
  std::string wrong_;
  Tracer tracer_;
};

/// One benchmark workload. The loop calls Setup() several times (each into
/// a fresh directory, timed as setup_s), then Op() with increasing indices.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Names of the op kinds; KindAt() indexes this list.
  virtual std::vector<std::string> kinds() const = 0;

  /// Opens a fresh engine in `dir`, loads and settles it.
  virtual Status Setup(const std::string& dir, SetupStats* stats) = 0;
  /// Closes the engine of the last Setup().
  virtual void Close() = 0;

  /// Interns the span names the workload's calls use.
  virtual void RegisterSpans(Run* run) = 0;
  virtual uint64_t warmup_ops() const = 0;
  /// Ops per window of the measured phase: whole rounds of the schedule,
  /// enough for every percentile the workload reports.
  virtual uint64_t window_ops() const = 0;
  /// Called, untimed, before each window. A workload whose data grows with
  /// every op rebuilds the setup's state here, so every window runs over the
  /// same data.
  virtual Status Restart() { return Status::OK(); }
  /// The kind of op #index; fixed by the seed.
  virtual int KindAt(uint64_t index) = 0;
  virtual OpResult Op(int kind, Run* run) = 0;
  /// Checks the engine's state after the measured phase.
  virtual Status Verify() = 0;

  virtual Counters ReadCounters() const = 0;

  /// The kinds whose median latencies are op1_p50_us, op2_p50_us and
  /// op3_p50_us: the workload's three main query shapes, one each.
  virtual std::array<int, 3> LatencyKinds() const = 0;
  /// Per-layer metrics of the traced run that the workload's ops produce;
  /// the harness adds the setup's and the trace's own.
  virtual void PerLayer(const Run& run, Metrics* out) const = 0;
};

template <class F>
decltype(auto) Run::Unattributed(F&& f) {
  if (!tracing_) return f();
  const Counters before = workload_->ReadCounters();
  struct Finish {
    Run* run;
    const Counters& before;
    ~Finish() { run->op_excluded_ += run->workload_->ReadCounters() - before; }
  } finish{this, before};
  return f();
}

/// Shuffled rounds of op kinds: each round holds `body` (kind, count) pairs
/// in an order drawn from the seed, followed by `tail` kinds at fixed
/// positions (the driver's flushes, compactions and periodic queries).
class Schedule {
 public:
  Schedule(uint64_t seed, std::vector<std::pair<int, int>> body,
           std::vector<int> tail);
  int KindAt(uint64_t index);
  uint64_t round_size() const { return round_size_; }

 private:
  uint64_t seed_;
  std::vector<int> template_;
  std::vector<int> tail_;
  uint64_t round_size_;
  uint64_t cached_round_ = UINT64_MAX;
  std::vector<int> round_;
};

std::unique_ptr<Workload> MakeHwLifecycle(uint64_t seed);
std::unique_ptr<Workload> MakeOlapScan(uint64_t seed);
std::unique_ptr<Workload> MakePointLookup(uint64_t seed);
std::unique_ptr<Workload> MakeTpccCh(uint64_t seed);

/// Shared engine options: one background thread, auto compaction off, WAL
/// on with the engine's default sync policy, Posix files in `dir`.
laser::LaserOptions BaseOptions(const std::string& dir);

/// Calls CompactUntilStable() (or Flush()) as a timed setup step.
template <class Db>
Status TimedCompact(Db* db, SetupStats* stats) {
  const int64_t t0 = NowNanos();
  Status s = db->CompactUntilStable();
  stats->compact_ns += NowNanos() - t0;
  return s;
}
template <class Db>
Status TimedFlush(Db* db, SetupStats* stats) {
  const int64_t t0 = NowNanos();
  Status s = db->Flush();
  stats->flush_ns += NowNanos() - t0;
  return s;
}

/// Every run reports each end-to-end metric (untraced) or each per-layer
/// metric (traced) that BENCHMARK.json lists, under these names.
struct MetricName {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricName> kEndToEndNames;
extern const std::vector<MetricName> kPerLayerNames;

/// Ratio that is 0 when the base is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace laserbench

#endif  // LASERBENCH_HARNESS_H_
