// Concurrency stress for the background-compaction path, aimed at the PR-1
// BackgroundCompact race: the job's stack frame kept file references past
// the mutex release, so a preempted thread could leave undeletable obsolete
// SSTs on disk. A tight loop of writers, auto compactions, concurrent
// readers, and an obsolete-file sweeper reproduces that interleaving; the
// test then asserts the on-disk file set is exactly the live version. Run
// under TSan in CI (see .github/workflows/ci.yml) to catch data races too.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "laser/laser_db.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kColumns = 4;
constexpr int kLevels = 4;
constexpr int kWriters = 4;
constexpr int kOpsPerWriter = 8000;
constexpr uint64_t kKeysPerWriter = 200;

TEST(CompactionStressTest, WritersCompactionsAndSweepsLeaveNoOrphans) {
  auto env = NewMemEnv();
  LaserOptions options =
      test::TinyTreeOptions(env.get(), "/db", kColumns, kLevels);
  options.cg_config = CgConfig::EquiWidth(kColumns, kLevels, 2);
  options.background_threads = 4;  // flushes and compactions overlap

  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  // Writers own disjoint key ranges so each can verify its own final state.
  // last_op[key - base]: 0 = deleted/never written, otherwise the op id
  // whose deterministic row must be visible.
  std::vector<std::vector<int>> last_op(kWriters,
                                        std::vector<int>(kKeysPerWriter, 0));
  std::atomic<bool> stop{false};

  auto writer = [&](int t) {
    Random rng(1000 + t);
    const uint64_t base = 1000 * (t + 1);
    for (int i = 1; i <= kOpsPerWriter; ++i) {
      const uint64_t offset = rng.Uniform(kKeysPerWriter);
      const uint64_t key = base + offset;
      const uint32_t dice = rng.Uniform(10);
      if (dice < 7) {
        ASSERT_TRUE(db->Insert(key, test::TestRow(key + i, kColumns)).ok());
        last_op[t][offset] = i;
      } else if (dice < 9 && last_op[t][offset] != 0) {
        // Full-row overwrite via Insert keeps the per-key model one value.
        ASSERT_TRUE(db->Insert(key, test::TestRow(key + i, kColumns)).ok());
        last_op[t][offset] = i;
      } else {
        ASSERT_TRUE(db->Delete(key).ok());
        last_op[t][offset] = 0;
      }
    }
  };

  // Sweeper: hammers the obsolete-file collection that raced in PR 1.
  auto sweeper = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      db->WaitForBackgroundWork();
      db->DebugString();
      std::this_thread::yield();
    }
  };

  // Reader: pins read views against concurrent installs.
  auto reader = [&] {
    Random rng(77);
    const ColumnSet all = MakeColumnRange(1, kColumns);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key =
          1000 * (1 + rng.Uniform(kWriters)) + rng.Uniform(kKeysPerWriter);
      LaserDB::ReadResult result;
      ASSERT_TRUE(db->Read(key, all, &result).ok());
      auto scan = db->NewScan(key, key + 20, all);
      ASSERT_NE(scan, nullptr);
      for (int n = 0; scan->Valid() && n < 30; ++n) scan->Next();
      ASSERT_TRUE(scan->status().ok());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) threads.emplace_back(writer, t);
  std::thread sweep_thread(sweeper);
  std::thread read_thread(reader);
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  sweep_thread.join();
  read_thread.join();

  ASSERT_TRUE(db->CompactUntilStable().ok());
  db->WaitForBackgroundWork();

  // The run must actually have exercised the contended paths.
  EXPECT_GT(db->stats().flush_jobs.load(), 10u);
  EXPECT_GT(db->stats().compaction_jobs.load(), 10u);

  // Every writer's final state must be visible.
  const ColumnSet all = MakeColumnRange(1, kColumns);
  for (int t = 0; t < kWriters; ++t) {
    const uint64_t base = 1000 * (t + 1);
    for (uint64_t offset = 0; offset < kKeysPerWriter; ++offset) {
      const uint64_t key = base + offset;
      LaserDB::ReadResult result;
      ASSERT_TRUE(db->Read(key, all, &result).ok());
      if (last_op[t][offset] == 0) {
        EXPECT_FALSE(result.found) << "key " << key;
      } else {
        ASSERT_TRUE(result.found) << "key " << key;
        const uint64_t seed = key + last_op[t][offset];
        for (int c = 1; c <= kColumns; ++c) {
          EXPECT_EQ(result.values[c - 1], std::optional<ColumnValue>(seed * 100 + c))
              << "key " << key << " column " << c;
        }
      }
    }
  }

  // The race left undeletable orphans behind: assert the on-disk SSTs are
  // exactly the live set of the current version.
  std::set<std::string> live;
  auto version = db->current_version();
  for (int level = 0; level < version->num_levels(); ++level) {
    for (int group = 0; group < version->num_groups(level); ++group) {
      for (const auto& f : version->files(level, group)) {
        live.insert(SstFileName(f->file_number));
      }
    }
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  size_t ssts_on_disk = 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0) {
      ++ssts_on_disk;
      EXPECT_TRUE(live.count(name) > 0) << "orphan SST " << name;
    }
  }
  EXPECT_EQ(ssts_on_disk, live.size());

  // And the whole thing must still reopen cleanly.
  db.reset();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  for (int t = 0; t < kWriters; ++t) {
    const uint64_t base = 1000 * (t + 1);
    for (uint64_t offset = 0; offset < kKeysPerWriter; ++offset) {
      if (last_op[t][offset] == 0) continue;
      LaserDB::ReadResult result;
      ASSERT_TRUE(db->Read(base + offset, all, &result).ok());
      EXPECT_TRUE(result.found) << "key " << base + offset << " lost on reopen";
    }
  }
}

}  // namespace
}  // namespace laser
