// Crash-recovery harness: a scripted LaserDB workload on a FaultInjectionEnv
// with a fully deterministic filesystem-operation stream, so tests can kill
// the "process" at every single operation, reopen, and check that exactly the
// acknowledged state survives.
//
// Determinism: one background thread, auto compactions off (the script
// flushes and compacts explicitly), a write buffer large enough that the
// memtable never rotates on its own, and a single scripted writer so every
// commit group holds exactly one write. The engine's I/O helper (one, as
// there is one background thread) syncs a compaction's finished outputs
// while the job writes the next one, and unlinks obsolete files while the
// next job runs, so ops inside one phase may interleave differently from run
// to run. What holds on every run: each phase performs the same multiset of
// ops (a flush does its file I/O on its own thread, and CompactUntilStable
// drains the helper before it returns), and every manifest rename has the
// same op index (a job installs only after its syncs, which the one helper
// runs after every earlier unlink). "Crash after op k" therefore always
// crashes inside the same phase, with a durable image the contracts below
// cover.
//
// The harness runs under any WalSyncPolicy. Under kSyncEveryWrite and
// kSyncEveryGroup, acknowledged == synced, so a crash must preserve exactly
// the acknowledged model. Under kSyncIntervalMs and kNoSync, acknowledged
// writes may be lost, but the survivors must still be a clean prefix of the
// acknowledged write stream — ScriptOutcome::snapshots records the model
// after every acknowledged op so tests can check prefix-ness exactly. (For
// kSyncIntervalMs the harness uses an hour-long interval: the background
// sync thread never fires mid-script, keeping the op stream deterministic;
// the interval thread's own behavior is covered by group_commit_test.)

#ifndef LASER_TESTS_RECOVERY_HARNESS_H_
#define LASER_TESTS_RECOVERY_HARNESS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/env_fault.h"

namespace laser::test {

/// One script phase mapped onto the mutating-op index range it produced.
struct PhaseSpan {
  std::string name;
  uint64_t begin = 0;  // first op index of the phase
  uint64_t end = 0;    // one past the last
};

struct ScriptOutcome {
  Model model;                    // state after acknowledged ops only
  std::vector<Model> snapshots;   // model after each acknowledged op ([0] = empty)
  std::vector<PhaseSpan> phases;  // complete only when the script completed
  bool completed = false;         // no op failed before the end
};

class RecoveryHarness {
 public:
  static constexpr int kColumns = 4;
  static constexpr int kLevels = 4;
  static constexpr uint64_t kMaxKey = 64;  // verification scans [1, kMaxKey]

  explicit RecoveryHarness(WalSyncPolicy policy = WalSyncPolicy::kSyncEveryWrite)
      : policy_(policy), base_(NewMemEnv()), fault_(base_.get()) {}

  FaultInjectionEnv* fault_env() { return &fault_; }
  WalSyncPolicy policy() const { return policy_; }

  /// True when the policy guarantees acknowledged == durable, i.e. a crash
  /// must preserve exactly the acknowledged model.
  bool acked_is_durable() const {
    return policy_ == WalSyncPolicy::kSyncEveryWrite ||
           policy_ == WalSyncPolicy::kSyncEveryGroup;
  }

  LaserOptions MakeOptions() const {
    LaserOptions options;
    options.env = const_cast<FaultInjectionEnv*>(&fault_);
    options.path = "/db";
    options.schema = Schema::UniformInt32(kColumns);
    options.num_levels = kLevels;
    options.size_ratio = 2;
    options.cg_config = CgConfig::EquiWidth(kColumns, kLevels, 2);
    options.write_buffer_size = 1 << 20;  // never rotates on its own
    options.level0_bytes = 2 * 1024;      // two tiny flushes trigger L0->L1
    options.level0_file_compaction_trigger = 2;
    options.target_sst_size = 2 * 1024;
    options.block_size = 1024;
    options.background_threads = 1;
    options.disable_auto_compactions = true;
    options.wal_sync_policy = policy_;
    // Keep the op stream deterministic: the interval thread must never fire
    // during a scripted run.
    options.wal_sync_interval_ms = 60 * 60 * 1000;
    return options;
  }

  Status Open(std::unique_ptr<LaserDB>* db) const {
    return LaserDB::Open(MakeOptions(), db);
  }

  /// Runs the scripted workload, applying each op to the model only when the
  /// engine acknowledged it. Stops at the first failed op (the crash).
  ScriptOutcome RunScript(LaserDB* db) const {
    ScriptOutcome out;
    out.snapshots.push_back(out.model);  // pre-script (empty) state
    uint64_t phase_begin = fault_.mutating_ops();

    auto end_phase = [&](const std::string& name) {
      const uint64_t now = fault_.mutating_ops();
      out.phases.push_back(PhaseSpan{name, phase_begin, now});
      phase_begin = now;
    };
    auto insert = [&](uint64_t key) {
      if (!db->Insert(key, TestRow(key, kColumns)).ok()) return false;
      out.model.Insert(key, TestRow(key, kColumns));
      out.snapshots.push_back(out.model);
      return true;
    };
    auto update = [&](uint64_t key, const std::vector<ColumnValuePair>& values) {
      if (!db->Update(key, values).ok()) return false;
      out.model.Update(key, values);
      out.snapshots.push_back(out.model);
      return true;
    };
    auto remove = [&](uint64_t key) {
      if (!db->Delete(key).ok()) return false;
      out.model.Delete(key);
      out.snapshots.push_back(out.model);
      return true;
    };

    // Phase 1: pure WAL appends.
    for (uint64_t key = 1; key <= 24; ++key) {
      if (!insert(key)) return out;
    }
    end_phase("wal-append-1");

    // Phase 2: memtable flush + manifest install + old-WAL delete.
    if (!db->Flush().ok()) return out;
    end_phase("flush-1");

    // Phase 3: overwrites, partial updates, tombstones, fresh inserts.
    for (uint64_t key = 1; key <= 8; ++key) {
      if (!update(key, {{2, key * 1000 + 2}})) return out;
    }
    for (uint64_t key = 9; key <= 12; ++key) {
      if (!update(key, {{1, key * 1000 + 1}, {4, key * 1000 + 4}})) return out;
    }
    for (uint64_t key = 21; key <= 24; ++key) {
      if (!remove(key)) return out;
    }
    for (uint64_t key = 25; key <= 40; ++key) {
      if (!insert(key)) return out;
    }
    end_phase("wal-append-2");

    // Phase 4: second flush — L0 now exceeds its compaction trigger.
    if (!db->Flush().ok()) return out;
    end_phase("flush-2");

    // Phase 5: column-group compactions (L0 -> CG levels) + manifest
    // installs + obsolete-file deletes.
    if (!db->CompactUntilStable().ok()) return out;
    end_phase("compaction");

    // Phase 6: writes on top of the compacted tree.
    for (uint64_t key = 41; key <= 48; ++key) {
      if (!insert(key)) return out;
    }
    if (!update(3, {{3, 3303}})) return out;
    if (!remove(40)) return out;
    end_phase("wal-append-3");

    out.completed = true;
    return out;
  }

  /// Asserts the reopened database (a LaserDB or a ShardedLaserDB) matches
  /// `model` exactly over the key universe: point reads of every key,
  /// including never-written and deleted ones, and one scan through every
  /// consumer. Every acknowledged write survived; nothing unacknowledged
  /// resurrected.
  template <typename Db>
  static void VerifyMatchesModel(Db* db, const Model& model) {
    const ColumnSet all = MakeColumnRange(1, kColumns);
    ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, model, 1, kMaxKey, all));
    ExpectScanMatches(db, model, 1, kMaxKey, all);
  }

  /// Reads the whole key universe into a Model via one full scan.
  static Model DumpModel(LaserDB* db) {
    Model state;
    const auto scan = db->NewScan(1, kMaxKey, MakeColumnRange(1, kColumns));
    for (const ResultRow& row : DrainCursor(scan.get())) {
      std::vector<ColumnValuePair> values;
      for (size_t c = 0; c < row.values.size(); ++c) {
        if (row.values[c]) values.push_back({static_cast<int>(c) + 1, *row.values[c]});
      }
      state.Update(row.key, values);
    }
    return state;
  }

  /// For policies where acknowledged writes may be lost on a crash
  /// (kSyncIntervalMs, kNoSync): the recovered state must still be a clean
  /// prefix of the acknowledged write stream — exactly one of the per-op
  /// model snapshots. Nothing torn, nothing reordered, nothing resurrected.
  static void VerifyMatchesSomeSnapshot(LaserDB* db,
                                        const std::vector<Model>& snapshots) {
    const Model state = DumpModel(db);
    // An empty snapshot list means nothing was ever acknowledged (e.g. the
    // crash hit Open itself); only the empty state is acceptable then.
    std::vector<Model> acceptable = snapshots;
    if (acceptable.empty()) acceptable.push_back(Model());
    // Newest-first: recovery usually preserves most of the stream.
    for (auto it = acceptable.rbegin(); it != acceptable.rend(); ++it) {
      if (*it == state) {
        VerifyMatchesModel(db, *it);  // also exercise the point-read path
        return;
      }
    }
    ADD_FAILURE() << "recovered state (" << state.rows().size()
                  << " keys) matches no acknowledged prefix of the script";
  }

 private:
  WalSyncPolicy policy_;
  std::unique_ptr<Env> base_;
  FaultInjectionEnv fault_;
};

}  // namespace laser::test

#endif  // LASER_TESTS_RECOVERY_HARNESS_H_
