// The one crash driver. Every crash-at-every-op and crash-during-recovery
// check in tests/ runs a script through it: a workload on a LaserDB or a
// ShardedLaserDB over a FaultInjectionEnv, killed at every mutating
// filesystem operation, with the durable image reopened and checked against
// what the script saw acknowledged.
//
// Determinism: CrashTreeOptions runs one background thread with auto
// compactions off (a script flushes and compacts explicitly) and a write
// buffer large enough that the memtable never rotates on its own. The
// engine's I/O helper (one, as there is one background thread) syncs a
// compaction's finished outputs while the job writes the next one, and
// unlinks obsolete files while the next job runs, so ops inside one phase
// may interleave differently from run to run. What holds on every run of a
// single-writer script: each phase performs the same multiset of ops (a
// flush does its file I/O on its own thread, and CompactUntilStable drains
// the helper before it returns), and every manifest rename has the same op
// index (a job installs only after its syncs, which the one helper runs
// after every earlier unlink). "Crash after op k" therefore always crashes
// inside the same phase. A script with several writer threads is not
// deterministic: its op count depends on the schedule.
//
// The check holds under any WalSyncPolicy. Under kSyncEveryWrite and
// kSyncEveryGroup, acknowledged == synced, so a crash must preserve exactly
// the acknowledged model. Under kSyncIntervalMs and kNoSync, acknowledged
// writes may be lost, but the survivors must still be a clean prefix of the
// acknowledged write stream: exactly one of CrashOutcome::snapshots. (The
// interval is an hour, so the background sync thread never fires
// mid-script; group_commit_test covers that thread.)

#ifndef LASER_TESTS_CRASH_HARNESS_H_
#define LASER_TESTS_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/env_fault.h"

namespace laser::test {

using OpKind = FaultInjectionEnv::OpKind;
using OpRecord = FaultInjectionEnv::OpRecord;

inline constexpr int kCrashColumns = 4;
inline constexpr int kCrashLevels = 4;
inline constexpr uint64_t kCrashMaxKey = 64;  // the check reads [1, kCrashMaxKey]

/// The deterministic crash tree: 4 int32 columns, 4 levels in 2-column
/// groups, 2KB L0 and SSTs (two tiny flushes trigger L0->L1), one background
/// thread, auto compactions off. The caller sets `env`.
inline LaserOptions CrashTreeOptions(
    WalSyncPolicy policy = WalSyncPolicy::kSyncEveryWrite) {
  LaserOptions options;
  options.path = "/db";
  options.schema = Schema::UniformInt32(kCrashColumns);
  options.num_levels = kCrashLevels;
  options.size_ratio = 2;
  options.cg_config = CgConfig::EquiWidth(kCrashColumns, kCrashLevels, 2);
  options.write_buffer_size = 1 << 20;  // never rotates on its own
  options.level0_bytes = 2 * 1024;
  options.level0_file_compaction_trigger = 2;
  options.target_sst_size = 2 * 1024;
  options.block_size = 1024;
  options.background_threads = 1;
  options.disable_auto_compactions = true;
  options.wal_sync_policy = policy;
  options.wal_sync_interval_ms = 60 * 60 * 1000;
  return options;
}

/// True when `policy` acknowledges a write only once it is synced.
inline bool AckedIsDurable(WalSyncPolicy policy) {
  return policy == WalSyncPolicy::kSyncEveryWrite ||
         policy == WalSyncPolicy::kSyncEveryGroup;
}

inline bool HasSuffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The ops of `history` in [begin, end) of `kind` on a file ending in `suffix`.
inline size_t CountOps(const std::vector<OpRecord>& history, uint64_t begin, uint64_t end,
                       OpKind kind, const std::string& suffix) {
  size_t count = 0;
  for (uint64_t i = begin; i < end && i < history.size(); ++i) {
    count += history[i].kind == kind && HasSuffix(history[i].fname, suffix);
  }
  return count;
}

/// The index of the first op of `history` at or after `begin` of `kind` on a
/// file ending in `suffix`, or history.size().
inline uint64_t FirstOp(const std::vector<OpRecord>& history, uint64_t begin, OpKind kind,
                        const std::string& suffix) {
  for (uint64_t i = begin; i < history.size(); ++i) {
    if (history[i].kind == kind && HasSuffix(history[i].fname, suffix)) return i;
  }
  return history.size();
}

/// One script phase mapped onto the op index range it produced.
struct PhaseSpan {
  std::string name;
  uint64_t begin = 0;  // first op index of the phase
  uint64_t end = 0;    // one past the last
};

/// What a script saw acknowledged. A script advances it only on an
/// acknowledged op and returns it at the first failed one (the crash).
struct CrashOutcome {
  Model model;                            // state after acknowledged ops only
  std::vector<Model> snapshots{Model()};  // model after each acknowledged op
  std::vector<PhaseSpan> phases;          // the phases the script finished
  bool completed = false;                 // no op failed before the end

  CrashOutcome() = default;
  /// Starts recording a script on `env`: its first phase begins now.
  explicit CrashOutcome(const FaultInjectionEnv& env)
      : phase_begin_(env.mutating_ops()) {}

  template <typename Db>
  bool Insert(Db* db, uint64_t key) {
    return Acked(db->Insert(key, TestRow(key, kCrashColumns)),
                 [&] { model.Insert(key, TestRow(key, kCrashColumns)); });
  }
  template <typename Db>
  bool Update(Db* db, uint64_t key, const std::vector<ColumnValuePair>& values) {
    return Acked(db->Update(key, values), [&] { model.Update(key, values); });
  }
  template <typename Db>
  bool Delete(Db* db, uint64_t key) {
    return Acked(db->Delete(key), [&] { model.Delete(key); });
  }
  template <typename Db>
  bool Write(Db* db, const WriteBatch& batch) {
    return Acked(db->Write(batch), [&] { model.Apply(batch); });
  }

  /// Closes the current phase at `env`'s op count; the next one begins.
  void EndPhase(const std::string& name, const FaultInjectionEnv& env) {
    const uint64_t now = env.mutating_ops();
    phases.push_back(PhaseSpan{name, phase_begin_, now});
    phase_begin_ = now;
  }

  /// The finished phase `name`, or nullptr.
  const PhaseSpan* Phase(const std::string& name) const {
    for (const PhaseSpan& span : phases) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }

 private:
  template <typename Apply>
  bool Acked(const Status& status, Apply apply) {
    if (!status.ok()) return false;
    apply();
    snapshots.push_back(model);
    return true;
  }

  uint64_t phase_begin_ = 0;
};

/// Expects `db` (a LaserDB or a ShardedLaserDB) to hold exactly `model` over
/// [1, kCrashMaxKey]: point reads of every key, including never-written and
/// deleted ones, and one scan through every consumer. Every acknowledged
/// write survived; nothing unacknowledged resurrected.
template <typename Db>
void ExpectHoldsModel(Db* db, const Model& model) {
  const ColumnSet all = MakeColumnRange(1, kCrashColumns);
  ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, model, 1, kCrashMaxKey, all));
  ExpectScanMatches(db, model, 1, kCrashMaxKey, all);
}

/// The recovery check. Under an acked == durable policy `db` holds exactly
/// the acknowledged model; otherwise it holds one of the per-op snapshots, a
/// clean prefix of the acknowledged stream: nothing torn, nothing
/// reordered, nothing resurrected.
template <typename Db>
void ExpectRecovered(Db* db, const CrashOutcome& outcome, WalSyncPolicy policy) {
  if (AckedIsDurable(policy)) {
    ExpectHoldsModel(db, outcome.model);
    return;
  }
  const ColumnSet all = MakeColumnRange(1, kCrashColumns);
  const Rows state = DrainCursor(db->NewScan(1, kCrashMaxKey, all).get());
  // Newest first: recovery usually keeps most of the stream.
  for (auto it = outcome.snapshots.rbegin(); it != outcome.snapshots.rend(); ++it) {
    if (Expected(*it, 1, kCrashMaxKey, all) == state) {
      ExpectHoldsModel(db, *it);  // the point-read path too
      return;
    }
  }
  ADD_FAILURE() << "recovered state (" << state.size()
                << " rows) matches no acknowledged prefix of the script";
}

/// An unfaulted run of a script: what it acknowledged and every op it made.
struct CrashProfile {
  CrashOutcome outcome;
  std::vector<OpRecord> history;
};

/// Runs `script` on the crash tree, once unfaulted and then crashed at every
/// op. `Db` is LaserDB or ShardedLaserDB (2 shards split at kCrashMaxKey / 2).
template <typename Db>
class CrashDriver {
 public:
  using Script = std::function<CrashOutcome(Db*, const FaultInjectionEnv&)>;

  CrashDriver(Script script, LaserOptions options)
      : script_(std::move(script)), options_(std::move(options)) {}

  /// False for a script whose op count depends on the thread schedule: a
  /// crash after op k may then come after its last op.
  bool deterministic = true;
  /// Checks an unfaulted run on its still-open database.
  std::function<void(Db*, const CrashProfile&)> on_profile;
  /// Checks each reopened database after the recovery check.
  std::function<void(Db*, const CrashOutcome&)> on_recovered;
  /// Runs before every file sync of the unfaulted runs.
  SyncHookEnv::Hook profile_sync_hook = [](const std::string&) {};

  /// One unfaulted run. The script must complete, the database must hold
  /// its model, and on_profile checks the rest.
  void RunUnfaulted(CrashProfile* profile) {
    Machine machine(profile_sync_hook);
    std::unique_ptr<Db> db;
    ASSERT_TRUE(Open(&machine, &db).ok());
    profile->outcome = script_(db.get(), machine.fault);
    ASSERT_TRUE(profile->outcome.completed);
    // Taken before the destructor's own close ops: every op index below it
    // crashes the script.
    profile->history = machine.fault.history();
    ExpectHoldsModel(db.get(), profile->outcome.model);
    if (on_profile) on_profile(db.get(), *profile);
  }

  /// The first unfaulted run, made once.
  const CrashProfile& Profile() {
    if (!profiled_) {
      RunUnfaulted(&profile_);
      profiled_ = true;
    }
    return profile_;
  }

  /// For every op k of the unfaulted run from `from_op` on: crash after op
  /// k, drop unsynced data, reopen, check.
  void CrashAtEveryOp(uint64_t from_op = 0) {
    ASSERT_NO_FATAL_FAILURE(Profile());
    const uint64_t total_ops = profile_.history.size();
    ASSERT_LT(from_op, total_ops);
    for (uint64_t k = from_op; k < total_ops; ++k) {
      SCOPED_TRACE("crash after op " + std::to_string(k));
      Machine machine;
      const CrashOutcome outcome = CrashAndReboot(&machine, k);
      ASSERT_NO_FATAL_FAILURE(ReopenAndCheck(&machine, outcome));
    }
  }

  /// Crashes the script after op `first_crash_op`, then crashes the
  /// recovery of that image at each of its ops; every clean reopen after
  /// that must pass the same check: recovery is idempotent.
  void CrashRecoveryAtEveryOp(uint64_t first_crash_op) {
    Machine machine;
    const CrashOutcome outcome = CrashAndReboot(&machine, first_crash_op);
    const FaultInjectionEnv::DurableState image = machine.fault.SnapshotDurableState();

    // How many ops one clean recovery from this image performs.
    const uint64_t before = machine.fault.mutating_ops();
    ASSERT_NO_FATAL_FAILURE(ReopenAndCheck(&machine, outcome));
    const uint64_t recovery_ops = machine.fault.mutating_ops() - before;
    ASSERT_GT(recovery_ops, 0u);

    for (uint64_t j = 0; j < recovery_ops; ++j) {
      SCOPED_TRACE("second crash after recovery op " + std::to_string(j));
      machine.fault.RestoreDurableState(image);
      CrashAndReboot(&machine, j, /*run_script=*/false);
      ASSERT_NO_FATAL_FAILURE(ReopenAndCheck(&machine, outcome));
    }
  }

 private:
  /// One simulated machine: an in-memory filesystem under a
  /// FaultInjectionEnv, with a sync hook on top.
  struct Machine {
    explicit Machine(SyncHookEnv::Hook before_sync = [](const std::string&) {})
        : base(NewMemEnv()), fault(base.get()), env(&fault, std::move(before_sync)) {}

    std::unique_ptr<Env> base;
    FaultInjectionEnv fault;
    SyncHookEnv env;  // what the database opens
  };

  Status Open(Machine* machine, std::unique_ptr<Db>* db) const {
    LaserOptions options = options_;
    options.env = &machine->env;
    if constexpr (std::is_same_v<Db, ShardedLaserDB>) {
      ShardedLaserOptions sharded;
      sharded.base = options;
      sharded.num_shards = 2;
      sharded.key_domain = kCrashMaxKey;
      return ShardedLaserDB::Open(sharded, db);
    } else {
      return LaserDB::Open(options, db);
    }
  }

  /// Kills `machine` after `k` more ops of an open and, when `run_script`,
  /// the script that follows it; then reboots it: unsynced data is dropped
  /// and the faults cleared. Returns what the script saw acknowledged.
  CrashOutcome CrashAndReboot(Machine* machine, uint64_t k, bool run_script = true) {
    machine->fault.CrashAfterOps(k);
    CrashOutcome outcome;
    {
      std::unique_ptr<Db> db;
      if (Open(machine, &db).ok() && run_script) {
        outcome = script_(db.get(), machine->fault);
        if (deterministic) {
          EXPECT_FALSE(outcome.completed);
        }
      }
    }
    machine->fault.DropUnsyncedData();
    machine->fault.ClearFaults();
    return outcome;
  }

  void ReopenAndCheck(Machine* machine, const CrashOutcome& outcome) {
    std::unique_ptr<Db> db;
    ASSERT_TRUE(Open(machine, &db).ok());
    ExpectRecovered(db.get(), outcome, options_.wal_sync_policy);
    if (on_recovered) on_recovered(db.get(), outcome);
  }

  const Script script_;
  const LaserOptions options_;
  CrashProfile profile_;
  bool profiled_ = false;
};

}  // namespace laser::test

#endif  // LASER_TESTS_CRASH_HARNESS_H_
