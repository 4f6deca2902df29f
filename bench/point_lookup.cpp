// Point-lookup throughput at cache-miss scale: the headline for Monkey-style
// per-level bloom allocation (ROADMAP item 5).
//
// Builds a settled multi-level tree whose data far exceeds the block cache,
// then sweeps {uniform, monkey} filter allocation × size_ratio ∈ {2, 4} at
// the SAME average filter budget (10 bits/key), measuring:
//   - existing-key lookups/s (every probe must find its row), and
//   - zero-result lookups/s (only odd keys are probed; even keys are loaded),
//     the case bloom filters exist for: the walk's cost is
//     walk + Σ_levels P(probe level)·FPR(level) × block-probe, and the
//     solver minimizes that sum at equal memory.
// Monkey is solved on the uniform twin's measured tree — per-level entry
// counts (equal filter bytes by construction) and per-level zero-result
// probe counts from an untimed calibration pass. The probe weights matter:
// this engine's walk does a file-range pre-pass and skips levels whose runs
// don't cover the key, so unlike the textbook model (every run probed on
// every lookup) levels see very different probe rates, and textbook Monkey —
// which fattens rarely-probed shallow filters at the expense of the heavily-
// probed deep ones — loses most of its edge unless the objective is
// probe-weighted.
//
// Both cells' DBs are built first, then the timed phases run INTERLEAVED
// (uniform rep, monkey rep, ...), best-of-3 per cell: back-to-back reps see
// the same machine, so slow VM-load drift — which dwarfs the filter effect
// when the cells run minutes apart — cancels out of the ratio.
//
// The tree uses 16KB LightLZ-compressed blocks: the realistic deployment
// where a false positive costs a read + checksum + decompress, not just a
// cached memcmp — the regime the Monkey trade-off is about.

#include <cinttypes>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench/bench_common.h"
#include "cost/bloom_allocation.h"
#include "lsm/version.h"

namespace laser::bench {
namespace {

constexpr int kColumns = 8;
constexpr double kBitsPerKey = 10.0;
constexpr int kReps = 3;

/// Entry bytes for the bench schema (must match
/// LaserOptions::ExpectedEntriesPerLevel's model: ikey 16B + bitmap + values).
constexpr double kEntryBytes = 16.0 + 1.0 + 4.0 * kColumns;

/// Levels needed so the settled tree is mostly full at `data_bytes`
/// (capacity = level0 · (T^L - 1)/(T - 1) >= data / 0.7). A mostly-full
/// tree keeps the solver's expected level sizes close to the real ones.
int LevelsFor(double data_bytes, double level0_bytes, int size_ratio) {
  const double target = data_bytes / 0.7;
  double capacity = level0_bytes;
  double level_bytes = level0_bytes;
  int levels = 1;
  while (capacity < target && levels < 16) {
    level_bytes *= size_ratio;
    capacity += level_bytes;
    ++levels;
  }
  return std::max(levels, 3);
}

LaserOptions CellOptions(Env* env, const std::string& path, uint64_t rows,
                         int size_ratio, BloomAllocation alloc) {
  const double data_bytes = static_cast<double>(rows) * kEntryBytes;
  LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = Schema::UniformInt32(kColumns);
  options.size_ratio = size_ratio;
  options.level0_bytes = 128 * 1024;
  options.num_levels =
      LevelsFor(data_bytes, static_cast<double>(options.level0_bytes), size_ratio);
  // Rescale level0 so total capacity lands at data/0.75 exactly: the
  // power-of-T rounding in LevelsFor can leave the tree at ~45% fill, where
  // the deepest level sits near-empty and the solver's capacity weights no
  // longer resemble real occupancy (the configured budget then under- or
  // over-spends in actual filter bytes).
  {
    double cap_units = 0, level_units = 1;
    for (int l = 0; l < options.num_levels; ++l) {
      cap_units += level_units;
      level_units *= size_ratio;
    }
    options.level0_bytes = std::max<size_t>(
        64 * 1024, static_cast<size_t>(data_bytes / (0.75 * cap_units)));
  }
  options.cg_config = CgConfig::RowOnly(kColumns, options.num_levels);
  // Big enough that a tail flush (8k entries, ~20 blocks) becomes one L0
  // file whose blocks cannot all sit in the block cache — otherwise L0
  // false positives would be absorbed by the LRU and the uniform cell never
  // pays for them.
  options.write_buffer_size = 1024 * 1024;
  options.target_sst_size = 256 * 1024;
  options.block_size = 16 * 1024;
  options.compression = CompressionType::kLightLZ;
  // One background thread: concurrent compactions interleave differently
  // run to run and can leave the uniform and monkey cells with structurally
  // different trees (3-4 vs 7 occupied levels measured), which swamps the
  // filter effect being compared. Single-threaded settle converges both
  // cells to the same shape for the same insert sequence.
  options.background_threads = 1;
  // Cache-miss scale: well under 1% of the data fits, so a filter false
  // positive really pays the block-probe cost (pread + checksum +
  // decompress) — the cold random-read stream floods the LRU faster than
  // any one block is re-touched, including the hot L0 blocks.
  options.block_cache_bytes = std::max<size_t>(
      256 * 1024, static_cast<size_t>(data_bytes / 256.0));
  options.use_wal = false;
  options.level0_stop_writes_trigger = 40;
  options.bloom_bits_per_key = static_cast<int>(kBitsPerKey);
  options.bloom_allocation = alloc;
  return options;
}

/// Even keys spread over [0, 2·rows) in shuffled order; odd keys stay absent
/// (the zero-result probe population).
uint64_t LoadKey(uint64_t i, uint64_t rows, uint64_t stride) {
  return 2 * ((i * stride) % rows);
}

/// Sums actual entries per level across column groups on the settled tree.
std::vector<double> MeasuredEntriesPerLevel(const LaserDB& db, int num_levels) {
  std::vector<double> entries(num_levels, 0.0);
  auto version = db.current_version();
  for (int level = 0; level < version->num_levels() && level < num_levels;
       ++level) {
    for (int g = 0; g < version->num_groups(level); ++g) {
      entries[level] += static_cast<double>(version->GroupEntries(level, g));
    }
  }
  return entries;
}

struct Cell {
  std::string path;
  std::string label;
  LaserOptions options;
  std::unique_ptr<LaserDB> db;
  std::vector<double> entries;  // measured per-level occupancy after settle

  double load_seconds = 0;
  double hit_seconds = 0;
  double neg_seconds = 0;
  StatsSnapshot neg_base;

  double hit_lookups_per_sec = 0;
  double neg_lookups_per_sec = 0;
  double measured_fpr = 0;  // fp / (neg + fp) over the zero-result phase
  uint64_t filter_bytes = 0;
};

bool BuildCell(const std::string& path, uint64_t rows, int size_ratio,
               BloomAllocation alloc, const std::vector<double>* bits_override,
               const char* label, Cell* cell) {
  Env* env = Env::Default();
  env->RemoveDir(path);
  cell->path = path;
  cell->label = label;
  cell->options = CellOptions(env, path, rows, size_ratio, alloc);
  // An explicit per-level vector (e.g. solved from the twin cell's measured
  // occupancy) survives Finalize untouched; Open() then carries it into the
  // engine's copy.
  if (bits_override != nullptr) cell->options.bloom_bits_per_level = *bits_override;
  // Open() finalizes its own copy; finalize ours too so the allocation table
  // printed below shows the derived per-level bits, not the fallback.
  if (!cell->options.Finalize().ok()) {
    fprintf(stderr, "point_lookup: bad options for %s\n", label);
    return false;
  }
  if (!LaserDB::Open(cell->options, &cell->db).ok()) {
    fprintf(stderr, "point_lookup: open failed for %s\n", label);
    return false;
  }

  // gcd guard keeps the stride a full cycle over [0, rows).
  uint64_t stride = 7919;
  while (std::gcd(stride, rows) != 1) ++stride;
  uint64_t stride2 = stride + 2;
  while (std::gcd(stride2, rows) != 1) ++stride2;

  const uint64_t t_load0 = env->NowMicros();
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t key = LoadKey(i, rows, stride);
    if (!cell->db->Insert(key, BenchRow(key, kColumns)).ok()) {
      fprintf(stderr, "point_lookup: insert failed for %s\n", label);
      return false;
    }
  }
  if (!cell->db->CompactUntilStable().ok()) {
    fprintf(stderr, "point_lookup: settle failed for %s\n", label);
    return false;
  }
  // CompactUntilStable only drains while the picker scores work: a
  // sub-trigger L0 (fewer files than level0_file_compaction_trigger) is
  // "stable" to it, and at small scales the whole load can fit there. The
  // tail flushes below would then push L0 over the trigger and the cascade
  // would still be draining when occupancy is measured. Feed single-key
  // flushes until L0 crosses the trigger and settles empty, so the tail
  // files are the ONLY L0 residents and nothing is left in flight.
  while (!cell->db->current_version()->files(0, 0).empty()) {
    const uint64_t key = LoadKey(0, rows, 1);
    if (!cell->db->Insert(key, BenchRow(key, kColumns)).ok() ||
        !cell->db->Flush().ok() || !cell->db->CompactUntilStable().ok()) {
      fprintf(stderr, "point_lookup: L0 drain failed for %s\n", label);
      return false;
    }
  }
  // HTAP steady state, not just a bulk load: a transactional backend's tree
  // always carries a few recent L0 flushes below the compaction trigger —
  // the picker has no work to do, so the tree is exactly as settled as it
  // ever gets under live writes. Those files span the whole key range and
  // are ALL probed on every lookup (L0 runs overlap), yet hold a few
  // thousand keys each: the highest probes-per-key runs in the tree by
  // orders of magnitude. This is the textbook Monkey setup — uniform spends
  // 10 bits/key on them and still eats their false positives on every
  // lookup, while the solver can push them to a negligible FPR for
  // thousandths of the budget. Three update batches, each flushed, stay
  // under the trigger of 4.
  constexpr int kTailFlushes = 3;
  const uint64_t kTailBatch = std::min<uint64_t>(8000, rows / 8);
  for (int batch = 0; batch < kTailFlushes; ++batch) {
    for (uint64_t i = 0; i < kTailBatch; ++i) {
      const uint64_t key =
          LoadKey(static_cast<uint64_t>(batch) * kTailBatch + i, rows, stride2);
      if (!cell->db->Insert(key, BenchRow(key, kColumns)).ok()) {
        fprintf(stderr, "point_lookup: update failed for %s\n", label);
        return false;
      }
    }
    if (!cell->db->Flush().ok()) {
      fprintf(stderr, "point_lookup: tail flush failed for %s\n", label);
      return false;
    }
  }
  // The tail stays under the trigger so no compaction should run, but any
  // straggling background work must finish before occupancy is measured —
  // the solver and the timed phases have to see the same tree.
  cell->db->WaitForBackgroundWork();
  cell->load_seconds = static_cast<double>(env->NowMicros() - t_load0) * 1e-6;
  cell->entries = MeasuredEntriesPerLevel(*cell->db, cell->options.num_levels);
  return true;
}

/// One untimed pass over the zero-result key sequence, returning the
/// per-level filter-probe deltas: the measured probability the walk reaches
/// each level's filter, which is the probe weight the allocation solver
/// optimizes against. Runs on the uniform twin before the monkey cell is
/// built (the trees are identical, so the weights carry over).
std::vector<double> MeasureNegChecks(Cell* cell, uint64_t rows,
                                     uint64_t neg_probes, int size_ratio) {
  const ColumnSet projection = {1};
  LaserDB::ReadResult result;
  const int num_levels = cell->options.num_levels;
  std::vector<uint64_t> base(num_levels, 0);
  for (int level = 0; level < num_levels; ++level) {
    base[level] = cell->db->stats().bloom_checks_by_level[level].load();
  }
  Random rng(0x0ddc0deu ^ static_cast<uint32_t>(size_ratio));
  for (uint64_t i = 0; i < neg_probes; ++i) {
    cell->db->Read(2 * rng.Uniform(rows) + 1, projection, &result);
  }
  std::vector<double> checks(num_levels, 0.0);
  for (int level = 0; level < num_levels; ++level) {
    checks[level] = static_cast<double>(
        cell->db->stats().bloom_checks_by_level[level].load() - base[level]);
  }
  return checks;
}

/// Interleaved timed phases: per repetition, every cell runs back-to-back
/// with an identical probe sequence, and each cell keeps its best rep.
/// Single-run numbers on a shared VM swing by 10%+ — slow drift hits
/// adjacent reps equally and cancels out of the cross-cell ratio, where
/// sequential whole-cell runs minutes apart do not. The FPR is unaffected
/// (deterministic filters see the same keys each repetition).
bool RunPhases(Cell* cells[2], uint64_t rows, uint64_t hit_probes,
               uint64_t neg_probes, int size_ratio) {
  Env* env = Env::Default();
  const ColumnSet projection = {1};
  LaserDB::ReadResult result;

  // Warm-up: touches index blocks and fault-in paths outside the timed loop.
  for (int c = 0; c < 2; ++c) {
    Random rng(0x9e3779b9u ^ static_cast<uint32_t>(size_ratio));
    for (int i = 0; i < 1000; ++i) {
      cells[c]->db->Read(2 * rng.Uniform(rows), projection, &result);
      cells[c]->db->Read(2 * rng.Uniform(rows) + 1, projection, &result);
    }
  }

  // Existing-key phase: every probe must resolve.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int c = 0; c < 2; ++c) {
      Cell* cell = cells[c];
      Random hit_rng(0x817f00du ^ static_cast<uint32_t>(size_ratio));
      uint64_t missing = 0;
      const uint64_t t_hit0 = env->NowMicros();
      for (uint64_t i = 0; i < hit_probes; ++i) {
        cell->db->Read(2 * hit_rng.Uniform(rows), projection, &result);
        if (!result.found) ++missing;
      }
      const double seconds =
          static_cast<double>(env->NowMicros() - t_hit0) * 1e-6;
      if (missing != 0) {
        fprintf(stderr, "point_lookup: %s lost %" PRIu64 " existing keys\n",
                cell->label.c_str(), missing);
        return false;
      }
      if (rep == 0 || seconds < cell->hit_seconds) cell->hit_seconds = seconds;
    }
  }

  // Zero-result phase: no probe may resolve.
  for (int c = 0; c < 2; ++c) {
    cells[c]->neg_base = cells[c]->db->stats().Snapshot();
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (int c = 0; c < 2; ++c) {
      Cell* cell = cells[c];
      Random neg_rng(0x0ddc0deu ^ static_cast<uint32_t>(size_ratio));
      uint64_t ghosts = 0;
      const uint64_t t_neg0 = env->NowMicros();
      for (uint64_t i = 0; i < neg_probes; ++i) {
        cell->db->Read(2 * neg_rng.Uniform(rows) + 1, projection, &result);
        if (result.found) ++ghosts;
      }
      const double seconds =
          static_cast<double>(env->NowMicros() - t_neg0) * 1e-6;
      if (ghosts != 0) {
        fprintf(stderr, "point_lookup: %s fabricated %" PRIu64 " absent keys\n",
                cell->label.c_str(), ghosts);
        return false;
      }
      if (rep == 0 || seconds < cell->neg_seconds) cell->neg_seconds = seconds;
    }
  }
  return true;
}

/// Computes the cell's headline numbers, emits its JSON rows, and tears the
/// DB down.
void FinishCell(Cell* cell, uint64_t rows, int size_ratio, uint64_t hit_probes,
                uint64_t neg_probes, BenchJson* json) {
  const Stats& stats = cell->db->stats();
  const StatsSnapshot neg_phase = stats.Snapshot() - cell->neg_base;
  const double neg = static_cast<double>(neg_phase.bloom_negatives);
  const double fp = static_cast<double>(neg_phase.bloom_false_positives);

  cell->hit_lookups_per_sec = hit_probes / cell->hit_seconds;
  cell->neg_lookups_per_sec = neg_probes / cell->neg_seconds;
  cell->measured_fpr = neg + fp > 0 ? fp / (neg + fp) : 0.0;
  cell->filter_bytes = stats.filter_bytes_total.load();

  std::vector<std::pair<std::string, double>> fields = {
      {"rows", static_cast<double>(rows)},
      {"size_ratio", static_cast<double>(size_ratio)},
      {"num_levels", static_cast<double>(cell->options.num_levels)},
      {"lookups_per_sec", cell->hit_lookups_per_sec},
      {"neg_lookups_per_sec", cell->neg_lookups_per_sec},
      {"load_seconds", cell->load_seconds},
  };
  AppendEngineStatsFields(stats, &fields, cell->neg_base);
  json->Record("point_lookup", cell->label.c_str(), fields);

  printf("  %-12s L=%d filter=%.2f MiB  hit=%.0f/s  neg=%.0f/s  fpr=%.5f\n",
         cell->label.c_str(), cell->options.num_levels,
         static_cast<double>(cell->filter_bytes) / (1024.0 * 1024.0),
         cell->hit_lookups_per_sec, cell->neg_lookups_per_sec,
         cell->measured_fpr);
  printf("    level:bits/key ");
  for (int level = 0; level < cell->options.num_levels; ++level) {
    const uint64_t checks = stats.bloom_checks_by_level[level].load();
    const uint64_t lneg = stats.bloom_negatives_by_level[level].load();
    const uint64_t lfp = stats.bloom_false_positives_by_level[level].load();
    const double bits = cell->options.bloom_bits_for_level(level);
    const double lfpr =
        lneg + lfp > 0 ? static_cast<double>(lfp) / static_cast<double>(lneg + lfp)
                       : 0.0;
    printf("%d:%.1f ", level, bits);
    char row_label[64];
    snprintf(row_label, sizeof(row_label), "%s_l%d", cell->label.c_str(), level);
    json->Record("fpr_by_level", row_label,
                 {{"level", static_cast<double>(level)},
                  {"bits_per_key", bits},
                  {"theoretical_fpr", BloomFpr(bits)},
                  {"bloom_checks", static_cast<double>(checks)},
                  {"bloom_negatives", static_cast<double>(lneg)},
                  {"bloom_false_positives", static_cast<double>(lfp)},
                  {"fpr", lfpr},
                  {"filter_bytes",
                   static_cast<double>(stats.filter_bytes_by_level[level].load())}});
  }
  printf("\n");

  cell->db.reset();
  Env::Default()->RemoveDir(cell->path);
}

}  // namespace
}  // namespace laser::bench

int main() {
  using namespace laser;
  using namespace laser::bench;
  const double scale = ScaleFactor();
  BenchJson json("point_lookup");

  const uint64_t rows = static_cast<uint64_t>(600000 * scale);
  const uint64_t hit_probes =
      std::max<uint64_t>(2000, std::min<uint64_t>(rows / 4, 100000));
  const uint64_t neg_probes =
      std::max<uint64_t>(4000, std::min<uint64_t>(rows, 400000));

  PrintHeader("point lookups at cache-miss scale (uniform vs monkey filters)");
  printf("rows=%" PRIu64 " hit_probes=%" PRIu64 " neg_probes=%" PRIu64
         " avg_bits_per_key=%.0f\n",
         rows, hit_probes, neg_probes, kBitsPerKey);

  bool all_ok = true;
  for (const int size_ratio : {2, 4}) {
    Cell uniform, monkey;
    char label[32];
    snprintf(label, sizeof(label), "uniform_T%d", size_ratio);
    bool ok = BuildCell("point_lookup_u.tmp", rows, size_ratio,
                        BloomAllocation::kUniform, nullptr, label, &uniform);
    // Solve Monkey on the uniform twin's measured tree: per-level occupancy
    // (so Σ entries·bits lands on the same total filter memory uniform
    // spent — equal budget by construction, not by a capacity model that
    // may misjudge fill) and per-level zero-result probe counts. The settle
    // is deterministic — one background thread, same insert sequence — so
    // the monkey cell grows the same tree and both measurements carry over.
    const std::vector<double>* bits = nullptr;
    BloomAllocationResult solved;
    std::vector<double> measured_checks;
    if (ok) {
      measured_checks = MeasureNegChecks(&uniform, rows, neg_probes, size_ratio);
      // Floor each weight at 1% of the hottest level's: the weights are a
      // sampled estimate from the uniform twin, and a level the sample never
      // reached would otherwise get NO filter at all — catastrophic if the
      // twins' tree shapes drift slightly (background flush/compaction
      // timing, visible at smoke scale) and the monkey walk does reach it.
      // At the measured profiles the floor is far below every real weight,
      // so it never moves the optimum; it only bounds sampling-error damage.
      double max_weight = 0;
      for (double w : measured_checks) max_weight = std::max(max_weight, w);
      for (double& w : measured_checks) w = std::max(w, 0.01 * max_weight);
      solved = SolveMonkeyAllocation(uniform.entries, kBitsPerKey,
                                     /*max_bits_per_key=*/40.0, measured_checks);
      bits = &solved.bits_per_key;
      printf("  solve_T%d     ", size_ratio);
      for (size_t l = 0; l < uniform.entries.size(); ++l) {
        printf("%zu:[n=%.0f w=%.0f b=%.1f] ", l, uniform.entries[l],
               measured_checks[l], solved.bits_per_key[l]);
      }
      printf("\n");
    }
    snprintf(label, sizeof(label), "monkey_T%d", size_ratio);
    ok = ok && BuildCell("point_lookup_m.tmp", rows, size_ratio,
                         BloomAllocation::kMonkey, bits, label, &monkey);
    if (ok) {
      Cell* cells[2] = {&uniform, &monkey};
      ok = RunPhases(cells, rows, hit_probes, neg_probes, size_ratio);
    }
    all_ok &= ok;
    if (!ok) continue;
    FinishCell(&uniform, rows, size_ratio, hit_probes, neg_probes, &json);
    FinishCell(&monkey, rows, size_ratio, hit_probes, neg_probes, &json);
    const double speedup =
        monkey.neg_lookups_per_sec / uniform.neg_lookups_per_sec;
    printf("  T=%d: monkey/uniform zero-result speedup %.2fx, "
           "fpr %.5f -> %.5f, filter %.2f -> %.2f MiB\n",
           size_ratio, speedup, uniform.measured_fpr, monkey.measured_fpr,
           static_cast<double>(uniform.filter_bytes) / (1024.0 * 1024.0),
           static_cast<double>(monkey.filter_bytes) / (1024.0 * 1024.0));
    char headline[32];
    snprintf(headline, sizeof(headline), "monkey_vs_uniform_T%d", size_ratio);
    json.Record("headline", headline,
                {{"size_ratio", static_cast<double>(size_ratio)},
                 {"neg_speedup", speedup},
                 {"uniform_fpr", uniform.measured_fpr},
                 {"monkey_fpr", monkey.measured_fpr}});
  }
  return all_ok ? 0 : 1;
}
