// The per-database I/O helpers (IoQueue): with one helper tasks run in FIFO
// order, with several a wait covers only its own task, a sync failure
// reaches the job that queued it, and the ring and the destructor run every
// queued task. At the engine level: a compaction whose output sync
// fails is never installed, removes its own outputs, keeps its parents, and
// poisons the engine, and a reopen holds exactly the acknowledged writes.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "laser/laser_db.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/env_fault.h"
#include "util/io_queue.h"

namespace laser {
namespace {

using OpKind = FaultInjectionEnv::OpKind;
using OpRecord = FaultInjectionEnv::OpRecord;
using test::HasSuffix;

std::set<std::string> SstsOnDisk(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  std::set<std::string> ssts;
  for (const std::string& name : children) {
    if (HasSuffix(name, ".sst")) ssts.insert(dir + "/" + name);
  }
  return ssts;
}

std::set<std::string> LiveSsts(const Version& version, const std::string& dir) {
  std::set<std::string> live;
  for (int level = 0; level < version.num_levels(); ++level) {
    for (int group = 0; group < version.num_groups(level); ++group) {
      for (const auto& f : version.files(level, group)) {
        live.insert(dir + "/" + SstFileName(f->file_number));
      }
    }
  }
  return live;
}

// ---------------------------------------------------------------------------
// IoQueue
// ---------------------------------------------------------------------------

class IoQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = NewMemEnv();
    fault_ = std::make_unique<FaultInjectionEnv>(base_.get());
    ASSERT_TRUE(fault_->CreateDir("/q").ok());
  }

  std::unique_ptr<WritableFile> Create(const std::string& fname) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(fault_->NewWritableFile(fname, &file).ok());
    EXPECT_TRUE(file->Append(Slice("data")).ok());
    return file;
  }

  /// The ops recorded since `begin`, as "kind:fname" words.
  std::string OpsSince(size_t begin) const {
    std::string ops;
    const std::vector<OpRecord> history = fault_->history();
    for (size_t i = begin; i < history.size(); ++i) {
      if (!ops.empty()) ops += ' ';
      switch (history[i].kind) {
        case OpKind::kSync:
          ops += "sync";
          break;
        case OpKind::kClose:
          ops += "close";
          break;
        case OpKind::kRemove:
          ops += "remove";
          break;
        default:
          ops += "other";
      }
      ops += ':';
      ops += history[i].fname;
    }
    return ops;
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> fault_;
};

TEST_F(IoQueueTest, RunsTasksInFifoOrder) {
  auto a = Create("/q/a");
  auto b = Create("/q/b");
  auto c = Create("/q/c");
  ASSERT_TRUE(a->Close().ok());
  ASSERT_TRUE(c->Close().ok());
  const size_t begin = fault_->history().size();

  IoQueue io(fault_.get(), 1);
  Status error;
  io.RemoveFile("/q/a");
  io.SyncAndClose(b.get(), &error);
  io.RemoveFile("/q/c");
  io.Drain();

  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(OpsSince(begin), "remove:/q/a sync:/q/b close:/q/b remove:/q/c");
  EXPECT_FALSE(fault_->FileExists("/q/a"));
  EXPECT_TRUE(fault_->FileExists("/q/b"));
  EXPECT_FALSE(fault_->FileExists("/q/c"));
}

TEST_F(IoQueueTest, SyncFailureReachesTheCallerAndTheFileIsStillClosed) {
  auto a = Create("/q/a");
  auto b = Create("/q/b");
  auto c = Create("/q/c");
  fault_->FailOperation(OpKind::kSync, "/q/b");
  const size_t begin = fault_->history().size();

  IoQueue io(fault_.get(), 1);
  Status first_error;
  io.SyncAndClose(a.get(), &first_error);
  io.Wait(io.SyncAndClose(b.get(), &first_error));
  // A later failure does not overwrite the first one.
  fault_->FailOperation(OpKind::kSync, "/q/c");
  const uint64_t last = io.SyncAndClose(c.get(), &first_error);
  io.Wait(last);

  ASSERT_FALSE(first_error.ok());
  EXPECT_NE(first_error.ToString().find("/q/b"), std::string::npos)
      << first_error.ToString();
  EXPECT_EQ(OpsSince(begin),
            "sync:/q/a close:/q/a sync:/q/b close:/q/b sync:/q/c close:/q/c");
}

TEST_F(IoQueueTest, RingWrapsAndDestructorRunsEveryQueuedTask) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto name = [threads](uint64_t i) {
      std::string fname = "/q/t";
      fname += std::to_string(threads);
      fname += 'f';
      fname += std::to_string(i);
      return fname;
    };
    // Three times the ring: the producer blocks on a full ring and resumes.
    const uint64_t n = 3 * IoQueue::kCapacity;
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(fault_->WriteStringToFile(Slice("x"), name(i)).ok());
    }
    const uint64_t half = n / 2;
    {
      IoQueue io(fault_.get(), threads);
      for (uint64_t i = 0; i < half; ++i) io.RemoveFile(name(i));
      io.Drain();
      std::vector<std::string> children;
      ASSERT_TRUE(fault_->GetChildren("/q", &children).ok());
      EXPECT_EQ(children.size(), n - half);
      for (uint64_t i = half; i < n; ++i) io.RemoveFile(name(i));
      // No wait: the destructor must run what is still queued.
    }
    std::vector<std::string> children;
    ASSERT_TRUE(fault_->GetChildren("/q", &children).ok());
    EXPECT_TRUE(children.empty());
  }
}

/// A file whose Sync blocks until Release(): it stands for a slow device.
class BlockingFile final : public WritableFile {
 public:
  Status Append(const Slice&) override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST_F(IoQueueTest, WaitCoversOnlyItsOwnTaskWithSeveralHelpers) {
  // Two jobs' syncs run side by side: the second job's wait returns while
  // the first job's sync is still running.
  BlockingFile slow;
  auto fast = Create("/q/fast");
  IoQueue io(fault_.get(), 2);
  Status slow_error;
  Status fast_error;
  const uint64_t slow_ticket = io.SyncAndClose(&slow, &slow_error);
  const uint64_t fast_ticket = io.SyncAndClose(fast.get(), &fast_error);
  // Polled with a deadline, not Wait(): a queue whose waits covered earlier
  // tasks would block here until the slow sync is released.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!io.Done(fast_ticket) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(io.Done(fast_ticket)) << "the fast sync waited for the slow one";
  EXPECT_TRUE(fast_error.ok()) << fast_error.ToString();
  EXPECT_FALSE(io.Done(slow_ticket));

  // An unlink queued behind both runs too; Drain still waits for the slow
  // sync queued before it.
  ASSERT_TRUE(fault_->WriteStringToFile(Slice("x"), "/q/old").ok());
  io.RemoveFile("/q/old");
  slow.Release();
  io.Drain();
  EXPECT_TRUE(io.Done(slow_ticket));
  EXPECT_TRUE(slow_error.ok()) << slow_error.ToString();
  EXPECT_FALSE(fault_->FileExists("/q/old"));
}

// ---------------------------------------------------------------------------
// A failed output sync in a compaction job
// ---------------------------------------------------------------------------

constexpr uint64_t kKeys = 600;
constexpr int kColumns = test::kCrashColumns;

/// Two L0 files of fresh keys: the L0 -> L1 job that merges them writes
/// several 2KB outputs.
Status LoadTwoFlushes(LaserDB* db) {
  for (uint64_t key = 1; key <= kKeys; ++key) {
    LASER_RETURN_IF_ERROR(db->Insert(key, test::TestRow(key, kColumns)));
    if (key == kKeys / 2) LASER_RETURN_IF_ERROR(db->Flush());
  }
  return db->Flush();
}

TEST(CompactionSyncFailureTest, FailedOutputSyncFailsTheJobBeforeInstall) {
  // Profiling run: the SSTs the first multi-output job creates. Creates run
  // on the job thread, so the list is the same on every run.
  std::vector<std::string> job_outputs;
  {
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get());
    LaserOptions options = test::CrashTreeOptions();
    options.env = &fault;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    ASSERT_TRUE(LoadTwoFlushes(db.get()).ok());
    const uint64_t begin = fault.mutating_ops();
    ASSERT_TRUE(db->CompactUntilStable().ok());
    const std::vector<OpRecord> history = fault.history();
    std::vector<std::string> window;
    for (uint64_t i = begin; i < history.size(); ++i) {
      if (history[i].kind == OpKind::kRename) {
        if (window.size() >= 3) break;
        window.clear();
      } else if (history[i].kind == OpKind::kCreate &&
                 HasSuffix(history[i].fname, ".sst")) {
        window.push_back(history[i].fname);
      }
    }
    job_outputs = window;
  }
  ASSERT_GE(job_outputs.size(), 3u) << "no compaction job wrote three outputs";

  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  FaultInjectionEnv* env = &fault;
  LaserOptions options = test::CrashTreeOptions();
  options.env = env;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  ASSERT_TRUE(LoadTwoFlushes(db.get()).ok());
  env->FailOperation(OpKind::kSync, job_outputs[1]);
  EXPECT_FALSE(db->CompactUntilStable().ok());

  // The failed sync was attempted, and no manifest rename came after it.
  const std::vector<OpRecord> history = env->history();
  uint64_t failed_at = history.size();
  for (uint64_t i = 0; i < history.size(); ++i) {
    if (history[i].kind == OpKind::kSync && history[i].fname == job_outputs[1]) {
      failed_at = i;
    }
  }
  ASSERT_LT(failed_at, history.size());
  size_t renames_after = 0;
  for (uint64_t i = failed_at; i < history.size(); ++i) {
    renames_after += history[i].kind == OpKind::kRename;
  }
  EXPECT_EQ(renames_after, 0u) << "a manifest install followed the failed sync";

  // The job's outputs are gone; its parents, and every other live file, stay.
  const std::set<std::string> on_disk = SstsOnDisk(env, "/db");
  for (const std::string& output : job_outputs) {
    EXPECT_EQ(on_disk.count(output), 0u) << output << " left behind";
  }
  EXPECT_EQ(on_disk, LiveSsts(*db->current_version(), "/db"));

  // The engine is poisoned: a later write is refused.
  EXPECT_FALSE(db->Insert(kKeys + 1, test::TestRow(kKeys + 1, kColumns)).ok());

  db.reset();
  env->DropUnsyncedData();
  env->ClearFaults();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  const ColumnSet all = MakeColumnRange(1, kColumns);
  for (uint64_t key = 1; key <= kKeys + 1; ++key) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(key, all, &result).ok()) << "key " << key;
    if (key > kKeys) {
      EXPECT_FALSE(result.found) << "unacked key " << key << " resurrected";
      continue;
    }
    ASSERT_TRUE(result.found) << "acked key " << key << " lost";
    const std::vector<ColumnValue> row = test::TestRow(key, kColumns);
    for (int c = 0; c < kColumns; ++c) {
      ASSERT_EQ(result.values[c], row[c]) << "key " << key << " column " << c + 1;
    }
  }
}

}  // namespace
}  // namespace laser
