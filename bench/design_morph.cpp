// Design morph: the closed online-design loop measured end to end. A
// workload that starts write/point-heavy (where the row-only design is
// right) shifts mid-run to narrow-projection analytics, and three arms run
// the same analytics phase over the same data:
//
//   static-mismatched — row-only design baked in at Open, no advisor: the
//                       design the adaptive arm starts from, never fixed;
//   static-optimal    — the design the §6 advisor picks from the mismatched
//                       arm's *live telemetry* (BuildTraceFromStats), baked
//                       in at Open: the oracle that knew the shift upfront;
//   adaptive          — starts row-only with the advisor daemon on; the
//                       daemon must notice the shift, install a morph
//                       target, and the tree must converge level by level.
//
// Scan throughput (best-of-3) is measured before / during / after the morph
// on the adaptive arm. Headline bars (default scale, 1-core dev VM):
// adaptive-after within 10% of static-optimal and >= 1.3x over
// static-mismatched. Every arm row carries a `predicted_cost` field (Eq. 9
// over the analytics trace; lower is better — bench_diff treats
// *predicted_cost* as regress-on-rise) so the nightly diff sees the cost
// model and the measured ranking move together. A `stats_dump` row exports
// the raw telemetry counters; `advisor_tool --stats-json BENCH_design_morph
// .json` replays the same BuildTraceFromStats bridge offline.
//
// The morph itself is a hard gate at every scale: if the daemon never
// installs (tiny smoke runs may not clear the hysteresis), the target is
// force-installed, and a run where CompactUntilStable does not complete the
// morph (design_morphs_completed == 0 or a mismatched final design) exits 1.

#include <cinttypes>

#include <chrono>
#include <thread>

#include "bench/bench_common.h"
#include "cost/design_advisor.h"
#include "cost/trace.h"

namespace laser::bench {
namespace {

constexpr int kColumns = 30;
constexpr int kLevels = 6;
constexpr int kSizeRatio = 2;

/// The analytics phase: repeated scans of the top 3 of 30 columns at 20%
/// selectivity — the projection the row-only design pays the full row width
/// for on every block, while a matched CG reads a tenth of the bytes.
const double kSelectivity = 0.2;

ColumnSet AnalyticsProjection() { return MakeColumnRange(28, kColumns); }

/// OLTP-ish phase 1: contiguous load plus point reads of full rows and
/// single-column updates, so the telemetry the advisor first sees is the
/// mix the row-only design is optimal for.
Status LoadAndOltpPhase(LaserDB* db, uint64_t rows, int point_reads,
                        int updates) {
  for (uint64_t k = 0; k < rows; ++k) {
    LASER_RETURN_IF_ERROR(db->Insert(k, BenchRow(k, kColumns)));
  }
  Random rng(0x0117);
  const ColumnSet full = MakeColumnRange(1, kColumns);
  LaserDB::ReadResult result;
  for (int i = 0; i < point_reads; ++i) {
    db->Read(rng.Uniform(rows), full, &result);
  }
  for (int i = 0; i < updates; ++i) {
    const int column = 1 + static_cast<int>(rng.Uniform(5));
    LASER_RETURN_IF_ERROR(db->Update(
        rng.Uniform(rows), {{column, static_cast<ColumnValue>(i)}}));
  }
  return db->CompactUntilStable();
}

struct ScanWindow {
  double rows_per_sec = 0;
  uint64_t rows = 0;
};

/// One measurement window: `scans` narrow scans over random ranges,
/// batch-consumed; best of `repeats` (small shared VMs jitter — the fastest
/// repeat of deterministic work is the least-perturbed one).
ScanWindow MeasureScanWindow(LaserDB* db, uint64_t key_domain, int scans,
                             uint64_t seed, int repeats = 5) {
  const ColumnSet projection = AnalyticsProjection();
  const uint64_t span = static_cast<uint64_t>(kSelectivity * key_domain);
  Env* env = Env::Default();
  ScanWindow window;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Random rng(seed);
    ScanBatch batch;
    uint64_t rows = 0;
    const uint64_t t0 = env->NowMicros();
    for (int i = 0; i < scans; ++i) {
      const uint64_t lo =
          span >= key_domain ? 0 : rng.Uniform(key_domain - span);
      auto scan = db->NewScan(lo, lo + span, projection);
      if (scan == nullptr) continue;
      while (size_t n = scan->NextBatch(&batch)) rows += n;
    }
    const double seconds = static_cast<double>(env->NowMicros() - t0) / 1e6;
    const double rps = seconds > 0 ? static_cast<double>(rows) / seconds : 0;
    if (rps > window.rows_per_sec) window.rows_per_sec = rps;
    window.rows = rows;
  }
  return window;
}

/// Eq. 9 cost of the analytics-phase trace under `config`, summed over
/// levels — the number the daemon's install decision is made of.
double PredictedCost(const Schema& schema, const LsmShape& shape,
                     const CgConfig& config, const WorkloadTrace& trace) {
  DesignAdvisor advisor(&schema, shape);
  double total = 0;
  for (int level = 0; level < config.num_levels(); ++level) {
    total += advisor.LevelCost(level, config.groups(level), trace);
  }
  return total;
}

/// The raw telemetry counters as JSON fields (scan_col_<c>, point_col_<c>,
/// upd_col_<c>, point_level_<l>, plus the scalar op counters) — the exact
/// inputs BuildTraceFromStats consumes, so `advisor_tool --stats-json` can
/// replay the bridge from the bench artifact.
std::vector<std::pair<std::string, double>> StatsDumpFields(
    const Stats& stats) {
  std::vector<std::pair<std::string, double>> fields;
  const auto load = [](const std::atomic<uint64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  fields.emplace_back("inserts", load(stats.inserts));
  fields.emplace_back("updates", load(stats.updates));
  fields.emplace_back("range_scans", load(stats.range_scans));
  fields.emplace_back("scan_rows_emitted", load(stats.scan_rows_emitted));
  for (int c = 1; c <= kColumns; ++c) {
    const int slot = Stats::ColumnSlot(c);
    fields.emplace_back("scan_col_" + std::to_string(c),
                        load(stats.scan_projected_by_column[slot]));
    fields.emplace_back("point_col_" + std::to_string(c),
                        load(stats.point_projected_by_column[slot]));
    fields.emplace_back("upd_col_" + std::to_string(c),
                        load(stats.updated_by_column[slot]));
  }
  for (int l = 0; l < kLevels; ++l) {
    fields.emplace_back("point_level_" + std::to_string(l),
                        load(stats.point_reads_by_level[l]));
  }
  return fields;
}

}  // namespace
}  // namespace laser::bench

int main() {
  using namespace laser;
  using namespace laser::bench;
  const double scale = ScaleFactor();
  BenchJson json("design_morph");

  const uint64_t rows = static_cast<uint64_t>(40000 * scale);
  // Full-row point reads dominate phase 1 so row-only stays the phase-1
  // optimum (a heavy single-column-update mix would already justify a split
  // before the analytics shift, blurring the before/after comparison);
  // updates stay nonzero so the update telemetry feeds the trace.
  const int point_reads = static_cast<int>(2000 * scale);
  const int updates = static_cast<int>(200 * scale);
  // A window must be long enough to dominate timer/scheduler noise on a
  // shared 1-core VM: ~400 scans x ~8k rows ~= 150-300ms per repeat.
  const int scans_per_window = scale < 0.5 ? 4 : 400;

  const CgConfig mismatched = CgConfig::RowOnly(kColumns, kLevels);

  // ---- Arm 1: static-mismatched. Also the telemetry source: its Stats
  // after the analytics phase feed BuildTraceFromStats, and the advisor's
  // pick from that live trace becomes arm 2's design.
  double mismatched_rps = 0;
  CgConfig optimal;
  WorkloadTrace analytics_trace(kLevels);
  LsmShape shape;
  Schema schema = Schema::UniformInt32(kColumns);
  {
    auto env = NewMemEnv();
    LaserOptions options = NarrowTableOptions(env.get(), "/morph_static",
                                              mismatched, kLevels, kSizeRatio);
    options.block_cache_bytes = 0;  // pay every block fetch: scan cost = blocks read (§5)
    options.background_threads = 1;  // deterministic tree shape
    std::unique_ptr<LaserDB> db;
    if (!LaserDB::Open(options, &db).ok()) {
      fprintf(stderr, "FAIL: cannot open static-mismatched arm\n");
      return 1;
    }
    if (!LoadAndOltpPhase(db.get(), rows, point_reads, updates).ok()) return 1;

    const ScanWindow window =
        MeasureScanWindow(db.get(), rows, scans_per_window, /*seed=*/101);
    mismatched_rps = window.rows_per_sec;

    shape = LaserDB::ShapeFromOptions(options);
    BuildTraceFromStats(db->stats(), &analytics_trace);
    DesignAdvisor advisor(&schema, shape);
    optimal = advisor.SelectDesign(analytics_trace);

    json.Record("morph/stats_dump", "static-mismatched",
                StatsDumpFields(db->stats()));
  }

  const double mismatched_cost =
      PredictedCost(schema, shape, mismatched, analytics_trace);
  const double optimal_cost =
      PredictedCost(schema, shape, optimal, analytics_trace);

  PrintHeader("design morph: workload shift, three arms");
  printf("advisor's pick from live telemetry:\n%s\n",
         optimal.ToString().c_str());
  printf("%-20s %14s %18s\n", "arm", "rows/sec", "predicted_cost");
  printf("%-20s %14.0f %18.1f\n", "static-mismatched", mismatched_rps,
         mismatched_cost);
  json.Record("morph/throughput", "static-mismatched",
              {{"rows_per_sec", mismatched_rps},
               {"predicted_cost", mismatched_cost}});

  // ---- Arm 2: static-optimal — the advisor's pick baked in at Open.
  double optimal_rps = 0;
  uint64_t optimal_blocks = 0;
  {
    auto env = NewMemEnv();
    LaserOptions options = NarrowTableOptions(env.get(), "/morph_optimal",
                                              optimal, kLevels, kSizeRatio);
    options.block_cache_bytes = 0;  // pay every block fetch: scan cost = blocks read (§5)
    options.background_threads = 1;
    std::unique_ptr<LaserDB> db;
    if (!LaserDB::Open(options, &db).ok()) {
      fprintf(stderr, "FAIL: cannot open static-optimal arm\n");
      return 1;
    }
    if (!LoadAndOltpPhase(db.get(), rows, point_reads, updates).ok()) return 1;
    const uint64_t blocks0 = db->stats().data_block_reads.load();
    optimal_rps =
        MeasureScanWindow(db.get(), rows, scans_per_window, /*seed=*/101)
            .rows_per_sec;
    optimal_blocks = db->stats().data_block_reads.load() - blocks0;
  }
  printf("%-20s %14.0f %18.1f\n", "static-optimal", optimal_rps, optimal_cost);
  json.Record("morph/throughput", "static-optimal",
              {{"rows_per_sec", optimal_rps},
               {"predicted_cost", optimal_cost},
               {"window_block_reads", static_cast<double>(optimal_blocks)}});

  // ---- Arm 3: adaptive — row-only at Open, advisor daemon on. The loop
  // under test: telemetry -> re-score -> install target -> morph compactions.
  double before_rps = 0, during_rps = 0, after_rps = 0;
  double adaptive_cost = 0;
  uint64_t after_blocks = 0;
  uint64_t morphs_completed = 0, morph_compactions = 0;
  bool forced_install = false;
  {
    auto env = NewMemEnv();
    LaserOptions options = NarrowTableOptions(env.get(), "/morph_adaptive",
                                              mismatched, kLevels, kSizeRatio);
    options.block_cache_bytes = 0;  // pay every block fetch: scan cost = blocks read (§5)
    options.background_threads = 1;
    options.enable_design_advisor = true;
    options.advisor_interval_ms = 25;
    options.advisor_min_predicted_gain = 0.05;
    std::unique_ptr<LaserDB> db;
    if (!LaserDB::Open(options, &db).ok()) {
      fprintf(stderr, "FAIL: cannot open adaptive arm\n");
      return 1;
    }
    if (!LoadAndOltpPhase(db.get(), rows, point_reads, updates).ok()) return 1;

    // The shift: first analytics window right away. The daemon reacts to
    // the scan telemetry this very window generates, so the tail of the
    // window can already overlap the morph — the static-mismatched arm is
    // the clean never-fixed reference; this number shows how quickly the
    // loop closes.
    before_rps = MeasureScanWindow(db.get(), rows, scans_per_window,
                                   /*seed=*/101)
                     .rows_per_sec;

    // Keep scanning until the daemon installs a target (the scans ARE the
    // telemetry it decides from), bounded so a smoke run cannot spin: if the
    // hysteresis never clears at tiny scale, force the install — the morph
    // machinery itself stays under test either way.
    for (int round = 0; round < 200; ++round) {
      if (db->TargetDesign().num_levels() > 0) break;
      MeasureScanWindow(db.get(), rows, /*scans=*/1, /*seed=*/202 + round,
                        /*repeats=*/1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (db->TargetDesign().num_levels() == 0 &&
        db->CurrentDesign() == mismatched) {
      forced_install = true;
      if (!db->SetTargetDesign(optimal).ok()) {
        fprintf(stderr, "FAIL: forced SetTargetDesign rejected\n");
        return 1;
      }
    }

    // Mid-morph window: the background morph job overlaps these scans,
    // which read the old design until it installs (the differential suite
    // owns correctness; here it must merely not fall over).
    during_rps = MeasureScanWindow(db.get(), rows, scans_per_window,
                                   /*seed=*/101)
                     .rows_per_sec;

    // Converge, then measure the settled tree.
    if (!db->CompactUntilStable().ok()) {
      fprintf(stderr, "FAIL: CompactUntilStable after morph\n");
      return 1;
    }
    const uint64_t blocks0 = db->stats().data_block_reads.load();
    after_rps = MeasureScanWindow(db.get(), rows, scans_per_window,
                                  /*seed=*/101)
                    .rows_per_sec;
    after_blocks = db->stats().data_block_reads.load() - blocks0;

    morphs_completed = db->stats().design_morphs_completed.load();
    morph_compactions = db->stats().design_morph_compactions.load();
    const CgConfig settled = db->CurrentDesign();
    adaptive_cost = PredictedCost(schema, shape, settled, analytics_trace);

    // Functional gate (all scales): the loop must have morphed the tree.
    if (morphs_completed == 0 || settled == mismatched) {
      fprintf(stderr,
              "FAIL: morph never completed (completed=%" PRIu64
              ", compactions=%" PRIu64 ", design still row-only=%d)\n",
              morphs_completed, morph_compactions,
              settled == mismatched ? 1 : 0);
      return 1;
    }
    json.Record("morph/stats_dump", "adaptive", StatsDumpFields(db->stats()));
  }

  printf("%-20s %14.0f %18.1f  (before %.0f, during %.0f%s)\n",
         "adaptive (after)", after_rps, adaptive_cost, before_rps, during_rps,
         forced_install ? ", forced install" : "");
  // No predicted_cost on the transitional windows: the design under them is
  // a race between the daemon and the clock.
  json.Record("morph/throughput", "adaptive-before",
              {{"rows_per_sec", before_rps}});
  json.Record("morph/throughput", "adaptive-during",
              {{"rows_per_sec", during_rps}});
  json.Record("morph/throughput", "adaptive-after",
              {{"rows_per_sec", after_rps},
               {"predicted_cost", adaptive_cost},
               {"window_block_reads", static_cast<double>(after_blocks)},
               {"design_morphs_completed",
                static_cast<double>(morphs_completed)},
               {"design_morph_compactions",
                static_cast<double>(morph_compactions)},
               {"forced_install", forced_install ? 1.0 : 0.0}});

  // Headline bars (meaningful at default scale; nightly gates the ratios).
  const double vs_optimal = optimal_rps > 0 ? after_rps / optimal_rps : 0;
  const double vs_mismatched =
      mismatched_rps > 0 ? after_rps / mismatched_rps : 0;
  // Wall-clock jitters on a shared VM; blocks fetched per identical window
  // do not — this is the deterministic convergence signal (1.0 = the morphed
  // tree reads exactly what the oracle's tree reads).
  const double blocks_vs_optimal =
      after_blocks > 0 ? static_cast<double>(optimal_blocks) /
                             static_cast<double>(after_blocks)
                       : 0;
  printf(
      "\nheadline: adaptive-after/static-optimal = %.2fx (bar: >= 0.90), "
      "adaptive-after/static-mismatched = %.2fx (bar: >= 1.3), "
      "morphs completed = %" PRIu64 ", block-read parity = %.2f\n",
      vs_optimal, vs_mismatched, morphs_completed, blocks_vs_optimal);
  json.Record("headline", "design_morph",
              {{"adaptive_vs_optimal_ratio", vs_optimal},
               {"adaptive_vs_mismatched_ratio", vs_mismatched},
               {"block_parity_ratio", blocks_vs_optimal},
               {"design_morphs_completed",
                static_cast<double>(morphs_completed)}});
  return 0;
}
