// Tests for the skiplist and memtable: ordering, version visibility,
// iterator behaviour, GetVersions folding semantics.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "lsm/dbformat.h"
#include "memtable/memtable.h"
#include "memtable/skiplist.h"
#include "util/coding.h"
#include "util/random.h"

namespace laser {
namespace {

struct IntComparator {
  int operator()(uint64_t a, uint64_t b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random rng(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.Uniform(10000);
    if (keys.insert(k).second) list.Insert(k);
  }
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_EQ(list.Contains(k), keys.count(k) > 0) << k;
  }
}

TEST(SkipListTest, IteratorYieldsSortedSequence) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random rng(55);
  std::set<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const uint64_t k = rng.Uniform(100000);
    if (keys.insert(k).second) list.Insert(k);
  }
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t k : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), k);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k = 0; k < 100; k += 10) list.Insert(k);
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.Seek(35);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(40);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(95);
  EXPECT_FALSE(iter.Valid());
}

// ---------------------------------------------------------------- MemTable --

class MemTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_ = new MemTable();
    mem_->Ref();
  }
  void TearDown() override { mem_->Unref(); }

  static std::string Key(uint64_t k) { return EncodeKey64(k); }

  MemTable* mem_;
};

TEST_F(MemTableTest, AddThenGetNewest) {
  mem_->Add(1, kTypeFullRow, Key(42), "v1");
  mem_->Add(2, kTypeFullRow, Key(42), "v2");
  MemTable::GetResult result;
  ASSERT_TRUE(mem_->Get(Key(42), kMaxSequenceNumber, &result));
  EXPECT_EQ(result.value, "v2");
  EXPECT_EQ(result.sequence, 2u);
  EXPECT_EQ(result.type, kTypeFullRow);
}

TEST_F(MemTableTest, SnapshotHidesNewerVersions) {
  mem_->Add(1, kTypeFullRow, Key(42), "v1");
  mem_->Add(5, kTypeFullRow, Key(42), "v5");
  MemTable::GetResult result;
  ASSERT_TRUE(mem_->Get(Key(42), 3, &result));
  EXPECT_EQ(result.value, "v1");
  ASSERT_TRUE(mem_->Get(Key(42), 5, &result));
  EXPECT_EQ(result.value, "v5");
}

TEST_F(MemTableTest, MissingKeyNotFound) {
  mem_->Add(1, kTypeFullRow, Key(42), "v");
  MemTable::GetResult result;
  EXPECT_FALSE(mem_->Get(Key(43), kMaxSequenceNumber, &result));
  EXPECT_FALSE(mem_->Get(Key(41), kMaxSequenceNumber, &result));
}

TEST_F(MemTableTest, TombstoneIsVisible) {
  mem_->Add(1, kTypeFullRow, Key(7), "v");
  mem_->Add(2, kTypeDeletion, Key(7), "");
  MemTable::GetResult result;
  ASSERT_TRUE(mem_->Get(Key(7), kMaxSequenceNumber, &result));
  EXPECT_EQ(result.type, kTypeDeletion);
}

TEST_F(MemTableTest, GetVersionsStopsAtFullRow) {
  mem_->Add(1, kTypeFullRow, Key(9), "full1");
  mem_->Add(2, kTypePartialRow, Key(9), "part2");
  mem_->Add(3, kTypePartialRow, Key(9), "part3");
  std::vector<KeyVersion> versions;
  ASSERT_TRUE(mem_->GetVersions(Key(9), kMaxSequenceNumber, &versions));
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].value, "part3");
  EXPECT_EQ(versions[1].value, "part2");
  EXPECT_EQ(versions[2].value, "full1");  // terminator included
  EXPECT_EQ(versions[2].type, kTypeFullRow);
}

TEST_F(MemTableTest, GetVersionsStopsAtTombstone) {
  mem_->Add(1, kTypeFullRow, Key(9), "old");
  mem_->Add(2, kTypeDeletion, Key(9), "");
  mem_->Add(3, kTypePartialRow, Key(9), "newer");
  std::vector<KeyVersion> versions;
  ASSERT_TRUE(mem_->GetVersions(Key(9), kMaxSequenceNumber, &versions));
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].type, kTypePartialRow);
  EXPECT_EQ(versions[1].type, kTypeDeletion);  // "old" is never reached
}

TEST_F(MemTableTest, GetVersionsRespectsSnapshot) {
  mem_->Add(5, kTypePartialRow, Key(9), "p5");
  mem_->Add(8, kTypePartialRow, Key(9), "p8");
  std::vector<KeyVersion> versions;
  ASSERT_TRUE(mem_->GetVersions(Key(9), 6, &versions));
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "p5");
}

TEST_F(MemTableTest, IteratorOrderedByKeyThenSeqDesc) {
  mem_->Add(1, kTypeFullRow, Key(2), "a");
  mem_->Add(2, kTypeFullRow, Key(1), "b");
  mem_->Add(3, kTypeFullRow, Key(2), "c");
  auto iter = mem_->NewIterator();
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), Key(1));
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), Key(2));
  EXPECT_EQ(ExtractSequence(iter->key()), 3u);  // newer version first
  EXPECT_EQ(iter->value().ToString(), "c");
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractSequence(iter->key()), 1u);
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(MemTableTest, ApproximateMemoryGrows) {
  const size_t before = mem_->ApproximateMemoryUsage();
  for (uint64_t i = 0; i < 1000; ++i) {
    mem_->Add(i + 1, kTypeFullRow, Key(i), std::string(100, 'x'));
  }
  EXPECT_GT(mem_->ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(mem_->num_entries(), 1000u);
}

TEST_F(MemTableTest, SequenceBounds) {
  mem_->Add(10, kTypeFullRow, Key(1), "a");
  mem_->Add(3, kTypeFullRow, Key(2), "b");
  mem_->Add(20, kTypeFullRow, Key(3), "c");
  EXPECT_EQ(mem_->smallest_sequence(), 3u);
  EXPECT_EQ(mem_->largest_sequence(), 20u);
}

// Randomized consistency versus std::map reference (property test).
TEST_F(MemTableTest, RandomizedAgainstReferenceModel) {
  Random rng(77);
  std::map<std::string, std::pair<SequenceNumber, std::string>> model;
  SequenceNumber seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Uniform(300);
    const std::string value = std::string("v").append(std::to_string(rng.Next() % 1000));
    ++seq;
    mem_->Add(seq, kTypeFullRow, Key(k), value);
    model[Key(k)] = {seq, value};
  }
  for (uint64_t k = 0; k < 300; ++k) {
    MemTable::GetResult result;
    const bool found = mem_->Get(Key(k), kMaxSequenceNumber, &result);
    const auto it = model.find(Key(k));
    ASSERT_EQ(found, it != model.end());
    if (found) {
      EXPECT_EQ(result.value, it->second.second);
      EXPECT_EQ(result.sequence, it->second.first);
    }
  }
}

// -------------------------------------------------------------- dbformat --

TEST(DbFormatTest, InternalKeyRoundTrip) {
  const std::string ikey = MakeInternalKey("userkey", 12345, kTypePartialRow);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(Slice(ikey), &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "userkey");
  EXPECT_EQ(parsed.sequence, 12345u);
  EXPECT_EQ(parsed.type, kTypePartialRow);
  EXPECT_EQ(ExtractSequence(Slice(ikey)), 12345u);
  EXPECT_EQ(ExtractValueType(Slice(ikey)), kTypePartialRow);
}

TEST(DbFormatTest, ComparatorOrdersUserKeyAscSeqDesc) {
  InternalKeyComparator cmp;
  const std::string a1 = MakeInternalKey("a", 5, kTypeFullRow);
  const std::string a2 = MakeInternalKey("a", 9, kTypeFullRow);
  const std::string b1 = MakeInternalKey("b", 1, kTypeFullRow);
  EXPECT_LT(cmp.Compare(Slice(a2), Slice(a1)), 0);  // higher seq first
  EXPECT_LT(cmp.Compare(Slice(a1), Slice(b1)), 0);
  EXPECT_EQ(cmp.Compare(Slice(a1), Slice(a1)), 0);
}

TEST(DbFormatTest, LookupKeySortsBeforeEqualSeqEntries) {
  InternalKeyComparator cmp;
  const std::string lookup = MakeLookupKey("k", 7);
  const std::string entry_at_7 = MakeInternalKey("k", 7, kTypeFullRow);
  const std::string entry_at_8 = MakeInternalKey("k", 8, kTypeFullRow);
  EXPECT_LE(cmp.Compare(Slice(lookup), Slice(entry_at_7)), 0);
  EXPECT_GT(cmp.Compare(Slice(lookup), Slice(entry_at_8)), 0);
}

TEST(DbFormatTest, RejectsMalformedKeys) {
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice("short"), &parsed));
}

}  // namespace
}  // namespace laser
