// In-flight design morphing, end to end: (1) differential scan correctness
// against a reference model across staged morphs — each staged target is an
// htap design (shallow levels row, deep levels columnar), so every read path
// runs over trees that mix both layouts; (2) the crash driver's morph script
// (tests/crash_harness.h) — killed at every filesystem operation from
// SetTargetDesign through convergence, the reopened tree must hold exactly
// the acknowledged writes AND keep converging to the persisted target
// instead of reverting; (3) a second morph of levels the first one narrowed;
// (4) reopening a tree saved mid-morph by a build that re-laid one level at
// a time; (5) the advisor daemon's hysteresis, driven deterministically
// through TickOnce.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "cost/design_advisor_daemon.h"
#include "cost/trace.h"
#include "laser/laser_db.h"
#include "lsm/compaction_picker.h"
#include "lsm/manifest.h"
#include "tests/model.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/env_fault.h"

namespace laser {
namespace {

// ---------------------------------------------------------------------------
// Differential scans across staged morphs.
// ---------------------------------------------------------------------------

constexpr int kColumns = 6;
constexpr int kLevels = 4;
constexpr uint64_t kKeySpace = 700;

class MidMorphScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    LaserOptions options =
        test::TinyTreeOptions(env_.get(), "/db", kColumns, kLevels);
    options.cg_config = CgConfig::RowOnly(kColumns, kLevels);
    options.use_wal = false;
    options.background_threads = 1;
    options.disable_auto_compactions = true;
    ASSERT_TRUE(LaserDB::Open(options, &db_).ok());

    // Inserts, partial updates, deletes — enough rows that the tiny tree
    // spreads files over several levels before the morph stages begin.
    for (uint64_t key = 1; key <= kKeySpace; ++key) {
      ASSERT_TRUE(db_->Insert(key, test::TestRow(key, kColumns)).ok());
      model_.Insert(key, test::TestRow(key, kColumns));
    }
    for (uint64_t key = 3; key <= kKeySpace; key += 3) {
      ASSERT_TRUE(db_->Update(key, {{2, key * 1000 + 2}}).ok());
      model_.Update(key, {{2, key * 1000 + 2}});
    }
    for (uint64_t key = 7; key <= kKeySpace; key += 7) {
      ASSERT_TRUE(db_->Delete(key).ok());
      model_.Delete(key);
    }
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->CompactUntilStable().ok());
  }

  /// Every read path against the reference model: full / narrow / single
  /// projections through every consumer, with and without a pushed-down
  /// predicate, and point reads over the whole key universe.
  void VerifyAllReadPaths() {
    const ColumnSet full = MakeColumnRange(1, kColumns);
    for (const ColumnSet& projection : std::vector<ColumnSet>{full, {2, 5}, {4}}) {
      test::ExpectScanMatches(db_.get(), model_, 1, kKeySpace, projection);
      // Selective pushdown on the projection's first column.
      ScanSpec spec;
      spec.predicates.push_back({projection[0], PredOp::kGe, kKeySpace * 50, 0});
      test::ExpectScanMatches(db_.get(), model_, 1, kKeySpace, projection, spec);
    }
    // A resurrected key (update after delete) holds only the updated
    // columns; the others read back null.
    test::ExpectReadsMatch(db_.get(), model_, 1, kKeySpace, full);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
  test::Model model_;
};

TEST_F(MidMorphScanTest, ScansExactWithTreeMixedAtEveryLevel) {
  const CgConfig row = CgConfig::RowOnly(kColumns, kLevels);
  const CgConfig columnar = CgConfig::ColumnOnly(kColumns, kLevels);

  // Converge through staged targets: stage k keeps levels [0, k) row and
  // lays [k, kLevels) out columnar. Each stage turns one more level
  // columnar, so every mix of the two layouts gets the full differential
  // sweep.
  VerifyAllReadPaths();  // pre-morph baseline
  for (int k = kLevels - 1; k >= 1; --k) {
    const CgConfig stage = CgConfig::HtapSimple(kColumns, kLevels, k);
    const uint64_t morphs_before = db_->stats().design_morphs_completed.load();
    ASSERT_TRUE(db_->SetTargetDesign(stage).ok()) << "stage " << k;
    ASSERT_TRUE(db_->CompactUntilStable().ok()) << "stage " << k;
    EXPECT_EQ(db_->CurrentDesign(), stage) << "stage " << k;
    EXPECT_EQ(db_->TargetDesign().num_levels(), 0) << "stage " << k;
    EXPECT_EQ(db_->stats().design_morphs_completed.load(), morphs_before + 1);
    VerifyAllReadPaths();
  }
  EXPECT_EQ(db_->CurrentDesign(), columnar);
  EXPECT_GE(db_->stats().design_morph_compactions.load(),
            static_cast<uint64_t>(kLevels - 1));

  // Writes keep working on the converged tree, and a morph straight back to
  // row (one target, all levels mismatched at once) stays exact too.
  for (uint64_t key = 1; key <= 8; ++key) {
    ASSERT_TRUE(db_->Update(key, {{5, key * 9000 + 5}}).ok());
    model_.Update(key, {{5, key * 9000 + 5}});
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->SetTargetDesign(row).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  EXPECT_EQ(db_->CurrentDesign(), row);
  VerifyAllReadPaths();
}

// ---------------------------------------------------------------------------
// The row -> column morph script under the crash driver.
// ---------------------------------------------------------------------------

CgConfig MorphFrom() {
  return CgConfig::RowOnly(test::kCrashColumns, test::kCrashLevels);
}
CgConfig MorphTo() {
  return CgConfig::ColumnOnly(test::kCrashColumns, test::kCrashLevels);
}

/// Builds a compacted row-format tree, morphs it to pure columnar and writes
/// on the morphed tree. Phases: "build", "set-target" (the target install, a
/// manifest write), "converge" (the morph: compaction outputs, manifest
/// installs, obsolete-file deletes).
test::CrashOutcome RowToColumnMorphScript(LaserDB* db, const FaultInjectionEnv& env) {
  test::CrashOutcome out(env);
  // Two flushed batches plus a compaction, so the morph has a multi-level row
  // tree to convert.
  for (uint64_t key = 1; key <= 24; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  if (!db->Flush().ok()) return out;
  for (uint64_t key = 25; key <= 40; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  if (!out.Update(db, 5, {{2, 5002}})) return out;
  if (!out.Delete(db, 40)) return out;
  if (!db->Flush().ok()) return out;
  if (!db->CompactUntilStable().ok()) return out;
  out.EndPhase("build", env);

  if (!db->SetTargetDesign(MorphTo()).ok()) return out;
  out.EndPhase("set-target", env);
  if (!db->CompactUntilStable().ok()) return out;
  out.EndPhase("converge", env);

  for (uint64_t key = 41; key <= 48; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  out.completed = true;
  return out;
}

TEST(MorphCrashMatrixTest, CrashAtEveryOperationOfTheMorphResumes) {
  LaserOptions options = test::CrashTreeOptions();
  options.cg_config = MorphFrom();
  test::CrashDriver<LaserDB> driver(RowToColumnMorphScript, options);
  driver.on_profile = [](LaserDB* db, const test::CrashProfile& profile) {
    EXPECT_EQ(db->CurrentDesign(), MorphTo());
    EXPECT_EQ(db->stats().design_morphs_completed.load(), 1u);
    EXPECT_GE(db->stats().design_morph_compactions.load(), 1u);
    EXPECT_GT(profile.history.size() - profile.outcome.Phase("build")->end, 10u)
        << "morph phase produced too few filesystem ops to be a matrix";
  };
  // After each reboot: the tree laid out either in the old or the target
  // design, never torn; and when the target install was acknowledged,
  // CompactUntilStable finishes the morph the crash interrupted.
  driver.on_recovered = [](LaserDB* db, const test::CrashOutcome& outcome) {
    const CgConfig recovered = db->CurrentDesign();
    EXPECT_TRUE(recovered == MorphFrom() || recovered == MorphTo())
        << "recovered mid-rewrite:\n" << recovered.ToString();
    const CgConfig pending = db->TargetDesign();
    if (pending.num_levels() > 0) {
      EXPECT_EQ(pending, MorphTo()) << "persisted target mutated across crash";
    }
    ASSERT_TRUE(db->CompactUntilStable().ok());
    if (outcome.Phase("set-target") != nullptr) {
      EXPECT_EQ(db->CurrentDesign(), MorphTo()) << "acked morph did not resume";
      EXPECT_EQ(db->TargetDesign().num_levels(), 0);
    }
    test::ExpectHoldsModel(db, outcome.model);
  };
  // Crash at every op from SetTargetDesign on.
  const test::PhaseSpan* build = driver.Profile().outcome.Phase("build");
  ASSERT_NE(build, nullptr);
  driver.CrashAtEveryOp(build->end);
}

// ---------------------------------------------------------------------------
// Successive morphs of one level.
// ---------------------------------------------------------------------------

/// CompactUntilStable, ending the test binary with a failure if it has not
/// returned within `limit`: a morph that never starts would otherwise hold
/// the suite until the ctest timeout.
Status CompactUntilStableWithin(LaserDB* db, std::chrono::seconds limit) {
  std::promise<Status> settled;
  std::future<Status> result = settled.get_future();
  std::thread settle([db, &settled] { settled.set_value(db->CompactUntilStable()); });
  if (result.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "CompactUntilStable did not return within %llds\n",
                 static_cast<long long>(limit.count()));
    std::_Exit(EXIT_FAILURE);
  }
  settle.join();
  return result.get();
}

TEST(SuccessiveMorphTest, MorphAfterShrinkingALevelStarts) {
  // The first morph shrinks every level below L0 from two groups to one;
  // the second grows the deep levels to one group per column. A job must
  // release every slot it claimed, the old groups' too, or the second morph
  // never starts.
  constexpr int kLvls = 5;
  const CgConfig initial = CgConfig::EquiWidth(kColumns, kLvls, 3);
  const std::vector<CgConfig> targets = {CgConfig::RowOnly(kColumns, kLvls),
                                         CgConfig::HtapSimple(kColumns, kLvls, 2)};
  for (const uint64_t rows : {uint64_t{0}, uint64_t{2000}}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    auto env = NewMemEnv();
    LaserOptions options = test::TinyTreeOptions(env.get(), "/db", kColumns, kLvls);
    options.cg_config = initial;
    options.background_threads = 1;
    options.disable_auto_compactions = true;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    test::Model model;
    for (uint64_t key = 1; key <= rows; ++key) {
      ASSERT_TRUE(db->Insert(key, test::TestRow(key, kColumns)).ok());
      model.Insert(key, test::TestRow(key, kColumns));
    }
    ASSERT_TRUE(CompactUntilStableWithin(db.get(), std::chrono::seconds(20)).ok());
    for (const CgConfig& target : targets) {
      ASSERT_TRUE(db->SetTargetDesign(target).ok());
      ASSERT_TRUE(CompactUntilStableWithin(db.get(), std::chrono::seconds(20)).ok());
      EXPECT_EQ(db->CurrentDesign(), target);
      test::ExpectReadsMatch(db.get(), model, 1, rows + 1,
                             MakeColumnRange(1, kColumns));
    }
  }
}

// ---------------------------------------------------------------------------
// A tree saved mid-morph by a build that re-laid one level at a time.
// ---------------------------------------------------------------------------

class MixedManifestTest : public ::testing::Test {
 protected:
  static constexpr int kLvls = 3;

  void SetUp() override {
    env_ = NewMemEnv();
    options_ = test::TinyTreeOptions(env_.get(), "/db", kColumns, kLvls);
    options_.cg_config = CgConfig::RowOnly(kColumns, kLvls);
    options_.use_wal = false;
    options_.background_threads = 1;
    options_.disable_auto_compactions = true;
    options_.level0_file_compaction_trigger = 1;
    options_.level0_bytes = 64;  // every L1 run overflows into L2
  }

  /// Builds a row tree that holds its rows in L2 and one more L0 file, over
  /// the compaction trigger, then saves its manifest the way such a build
  /// could have: L1 already re-laid columnar (and empty), L2 still row, and
  /// `target` pending (none if num_levels() == 0).
  void SaveMixedTree(const CgConfig& target) {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options_, &db).ok());
    for (uint64_t key = 1; key <= 300; ++key) {
      ASSERT_TRUE(db->Insert(key, test::TestRow(key, kColumns)).ok());
      model_.Insert(key, test::TestRow(key, kColumns));
    }
    for (uint64_t key = 5; key <= 300; key += 5) {
      ASSERT_TRUE(db->Update(key, {{3, key * 1000 + 3}}).ok());
      model_.Update(key, {{3, key * 1000 + 3}});
    }
    ASSERT_TRUE(db->CompactUntilStable().ok());
    for (uint64_t key = 290; key <= 320; ++key) {
      ASSERT_TRUE(db->Update(key, {{6, key * 1000 + 6}}).ok());
      model_.Update(key, {{6, key * 1000 + 6}});
    }
    ASSERT_TRUE(db->Delete(7).ok());
    model_.Delete(7);
    ASSERT_TRUE(db->Flush().ok());
    db.reset();

    Manifest manifest(env_.get(), "/db");
    ManifestData data;
    ASSERT_TRUE(manifest.Load(nullptr, nullptr, &data).ok());
    const Version& saved = *data.version;
    ASSERT_EQ(saved.files(0, 0).size(), 1u);
    ASSERT_TRUE(saved.files(1, 0).empty());
    ASSERT_FALSE(saved.files(2, 0).empty());
    const CgConfig row = options_.cg_config;
    auto mixed = Version::Empty(CgConfig(
        {row.groups(0), CgConfig::ColumnOnly(kColumns, kLvls).groups(1), row.groups(2)}));
    mixed->AddLevel0File(saved.files(0, 0)[0]);
    mixed->ReplaceFiles(2, 0, {}, saved.files(2, 0));
    data.version = mixed;
    data.target_design = target;
    ASSERT_TRUE(manifest.Save(data).ok());
  }

  std::unique_ptr<Env> env_;
  LaserOptions options_;
  test::Model model_;
};

TEST_F(MixedManifestTest, ReopenRunsTheWholeTreeMorphFirst) {
  const CgConfig target = CgConfig::EquiWidth(kColumns, kLvls, 2);
  ASSERT_NO_FATAL_FAILURE(SaveMixedTree(target));
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options_, &db).ok());
  ASSERT_EQ(db->TargetDesign(), target);

  // L0 is over its trigger, yet the first job is the morph: it reads L1's
  // six columnar runs and L2's row run and writes L2 in the target.
  LaserOptions finalized = options_;
  ASSERT_TRUE(finalized.Finalize().ok());
  const auto job = CompactionPicker(&finalized).Pick(*db->current_version(), {}, &target);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->design, target);
  EXPECT_EQ(job->output_level, kLvls - 1);
  EXPECT_EQ(job->inputs.size(), static_cast<size_t>(kColumns + 1));

  const ColumnSet all = MakeColumnRange(1, kColumns);
  test::ExpectReadsMatch(db.get(), model_, 0, 330, all);
  ASSERT_TRUE(db->CompactUntilStable().ok());
  EXPECT_EQ(db->CurrentDesign(), target);
  EXPECT_EQ(db->TargetDesign().num_levels(), 0);
  EXPECT_EQ(db->stats().design_morph_compactions.load(), 1u);
  EXPECT_EQ(db->stats().design_morphs_completed.load(), 1u);
  test::ExpectReadsMatch(db.get(), model_, 0, 330, all);
  for (const ColumnSet& projection : std::vector<ColumnSet>{all, {3}, {2, 6}}) {
    test::ExpectScanMatches(db.get(), model_, 0, 330, projection);
  }
}

TEST_F(MixedManifestTest, MixedDesignWithNoTargetIsCorruption) {
  ASSERT_NO_FATAL_FAILURE(SaveMixedTree(CgConfig()));
  std::unique_ptr<LaserDB> db;
  EXPECT_TRUE(LaserDB::Open(options_, &db).IsCorruption());
}

// ---------------------------------------------------------------------------
// Advisor-daemon hysteresis (deterministic, via TickOnce).
// ---------------------------------------------------------------------------

class DaemonHysteresisTest : public ::testing::Test {
 protected:
  static constexpr int kCols = 8;
  static constexpr int kLvls = 4;

  DesignAdvisorDaemonOptions MakeOptions(double gain) const {
    DesignAdvisorDaemonOptions options;
    options.min_predicted_gain = gain;
    options.shape.num_levels = kLvls;
    options.shape.size_ratio = 2;
    options.shape.entries_per_block = 4096.0 / (16.0 + 4.0 * kCols);
    options.shape.blocks_level0 = 64;
    options.shape.num_columns = kCols;
    return options;
  }

  /// Scan-heavy trace over a narrow projection: the advisor will want to
  /// split <7-8> off, which beats pure-row by far more than any reasonable
  /// hysteresis margin.
  void FillScanHeavyTrace(WorkloadTrace* trace) const {
    trace->AddInsert(10000);
    for (int i = 0; i < 500; ++i) trace->AddRangeScan({7, 8}, 4000.0);
    trace->AddPointRead(MakeColumnRange(1, kCols), 1);
  }

  DesignAdvisorDaemon::Hooks MakeHooks() {
    DesignAdvisorDaemon::Hooks hooks;
    hooks.fill_trace = [this](WorkloadTrace* trace) { FillScanHeavyTrace(trace); };
    hooks.design_to_beat = [this]() {
      return target_.num_levels() > 0 ? target_ : committed_;
    };
    hooks.install = [this](const CgConfig& config) {
      target_ = config;
      return Status::OK();
    };
    return hooks;
  }

  Schema schema_ = Schema::UniformInt32(kCols);
  CgConfig committed_ = CgConfig::RowOnly(kCols, kLvls);
  CgConfig target_;  // in-flight morph target (empty = none)
};

TEST_F(DaemonHysteresisTest, InstallsOnceThenHoldsSteady) {
  DesignAdvisorDaemon daemon(&schema_, MakeOptions(0.10), MakeHooks());

  // First pass: the candidate beats row-only by more than 10% — installed.
  EXPECT_TRUE(daemon.TickOnce());
  EXPECT_EQ(daemon.installs(), 1u);
  ASSERT_GT(target_.num_levels(), 0);
  const CgConfig first_target = target_;

  // Same telemetry, morph still in flight: the candidate now scores equal to
  // the design to beat (the target itself), so no tick may re-install — this
  // is the hysteresis that keeps a converging morph from being thrashed.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(daemon.TickOnce()) << "tick " << i;
  }
  EXPECT_EQ(daemon.installs(), 1u);
  EXPECT_EQ(target_, first_target);

  // Morph finishes (target becomes the committed design): still no churn.
  committed_ = target_;
  target_ = CgConfig();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(daemon.TickOnce()) << "tick " << i;
  }
  EXPECT_EQ(daemon.installs(), 1u);
  EXPECT_EQ(daemon.ticks(), 11u);
}

TEST_F(DaemonHysteresisTest, GainThresholdBlocksMarginalWins) {
  // An absurd margin: nothing can be predicted to win by 99.9%, so even a
  // clearly better design must not be installed.
  DesignAdvisorDaemon daemon(&schema_, MakeOptions(0.999), MakeHooks());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(daemon.TickOnce());
  }
  EXPECT_EQ(daemon.installs(), 0u);
  EXPECT_EQ(target_.num_levels(), 0);
}

TEST_F(DaemonHysteresisTest, ScoreDesignMatchesInstallDecision) {
  DesignAdvisorDaemon daemon(&schema_, MakeOptions(0.10), MakeHooks());
  WorkloadTrace trace(kLvls);
  FillScanHeavyTrace(&trace);

  ASSERT_TRUE(daemon.TickOnce());
  const double winner = daemon.ScoreDesign(target_, trace);
  const double row = daemon.ScoreDesign(CgConfig::RowOnly(kCols, kLvls), trace);
  EXPECT_LT(winner, row * (1.0 - 0.10))
      << "installed design does not clear the advertised margin";
}

}  // namespace
}  // namespace laser
