// Unit tests for the utility substrate: Status, Slice, coding, CRC32C,
// hashing, Random, Arena, Histogram, LightLZ codec, Env implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/codec.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "util/env.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace laser {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::Corruption("bad block");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.ToString(), s.ToString());
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status s = Status::IOError("disk");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsIOError());
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Busy().IsBusy());
}

// ----------------------------------------------------------------- Slice --

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("hello").starts_with(Slice("he")));
  EXPECT_FALSE(Slice("hello").starts_with(Slice("el")));
}

// ---------------------------------------------------------------- Coding --

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  for (uint32_t v : {0u, 1u, 255u, 0xdeadbeefu, 0xffffffffu}) {
    s.clear();
    PutFixed32(&s, v);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(DecodeFixed32(s.data()), v);
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed64(s.data()), 0x0123456789abcdefull);
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 32; ++i) {
    values.push_back(1u << i);
    values.push_back((1u << i) - 1);
  }
  for (uint32_t v : values) PutVarint32(&s, v);
  Slice in(s);
  for (uint32_t v : values) {
    uint32_t decoded;
    ASSERT_TRUE(GetVarint32(&in, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::string s;
  std::vector<uint64_t> values = {0, 127, 128, 16383, 16384, (1ull << 56),
                                  ~0ull};
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&in, &decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 1ull << 40, ~0ull}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint32(&s, 1u << 30);
  Slice in(s.data(), s.size() - 1);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("abc"));
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("0123456789"));
  Slice in(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &v));
  EXPECT_EQ(v.ToString(), "abc");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &v));
  EXPECT_EQ(v.ToString(), "");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &v));
  EXPECT_EQ(v.ToString(), "0123456789");
}

TEST(CodingTest, BigEndianKeyPreservesOrder) {
  // memcmp order of encodings must equal numeric order.
  std::vector<uint64_t> keys = {0, 1, 255, 256, 1ull << 31, 1ull << 32,
                                (1ull << 63) + 5, ~0ull};
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const std::string a = EncodeKey64(keys[i]);
    const std::string b = EncodeKey64(keys[i + 1]);
    EXPECT_LT(Slice(a).compare(Slice(b)), 0) << keys[i] << " vs " << keys[i + 1];
    EXPECT_EQ(DecodeKey64(Slice(a)), keys[i]);
  }
}

// ---------------------------------------------------------------- CRC32C --

TEST(Crc32cTest, KnownValues) {
  // Standard test vector: 32 bytes of zeros.
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x8a9136aau);
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x62a8ab43u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 appendix B.4: ascending and descending byte sequences.
  char buf[32];
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x46dd794eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x113fdb5cu);
}

// The dispatched routine (a CRC32C instruction where the CPU has one) must
// equal the table routine for every length across a few blocks, from every
// start alignment: the hardware loops split input into an unaligned head,
// 8-byte words and a tail, and each split point is covered here.
TEST(Crc32cTest, DispatchedMatchesTableAtEveryLengthAndAlignment) {
  const bool hardware = crc32c::internal::HardwareAccelerated();
  std::printf("crc32c: %s\n", hardware ? "hardware instruction" : "table fallback");
  constexpr size_t kMaxLen = 4160;
  Random rng(3720);
  std::string buf(kMaxLen + 8, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const char* data = buf.data() + offset;
      ASSERT_EQ(crc32c::Extend(0x12345678u, data, len),
                crc32c::internal::ExtendPortable(0x12345678u, data, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendSplitAtRandomPointsEqualsWhole) {
  Random rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data(rng.Uniform(5000), '\0');
    for (char& ch : data) ch = static_cast<char>(rng.Next());
    const uint32_t whole = crc32c::Value(data.data(), data.size());
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t piece = std::min<size_t>(rng.Uniform(300) + 1, data.size() - pos);
      crc = crc32c::Extend(crc, data.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
    EXPECT_EQ(crc32c::internal::ExtendPortable(0, data.data(), data.size()), whole);
  }
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is a crc test";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  const uint32_t part = crc32c::Extend(crc32c::Value(data.data(), 10),
                                       data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, ~0u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsCorruption) {
  std::string data = "some block contents";
  const uint32_t crc = crc32c::Value(data.data(), data.size());
  data[3] ^= 0x40;
  EXPECT_NE(crc32c::Value(data.data(), data.size()), crc);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, DeterministicAndSeedSensitive) {
  const std::string data = "hash me";
  EXPECT_EQ(Hash32(data.data(), data.size(), 7),
            Hash32(data.data(), data.size(), 7));
  EXPECT_NE(Hash32(data.data(), data.size(), 7),
            Hash32(data.data(), data.size(), 8));
  EXPECT_EQ(Hash64(data.data(), data.size(), 7),
            Hash64(data.data(), data.size(), 7));
}

TEST(HashTest, SpreadsBits) {
  std::set<uint32_t> values;
  for (int i = 0; i < 1000; ++i) {
    std::string s = "key" + std::to_string(i);
    values.insert(Hash32(s.data(), s.size(), 0));
  }
  EXPECT_GT(values.size(), 990u);  // essentially no collisions
}

// ---------------------------------------------------------------- Random --

TEST(RandomTest, UniformStaysInRange) {
  Random rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const uint64_t r = rng.Range(10, 20);
    EXPECT_GE(r, 10u);
    EXPECT_LT(r, 20u);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, GaussianMoments) {
  Random rng(7);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// ----------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocatesUsableMemory) {
  Arena arena;
  char* p = arena.Allocate(100);
  memset(p, 0xab, 100);
  char* q = arena.Allocate(100);
  EXPECT_NE(p, q);
  memset(q, 0xcd, 100);
  EXPECT_EQ(static_cast<unsigned char>(p[0]), 0xab);  // no overlap
}

TEST(ArenaTest, AlignedAllocations) {
  Arena arena;
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(ArenaTest, MemoryUsageGrows) {
  Arena arena;
  const size_t before = arena.MemoryUsage();
  arena.Allocate(100000);
  EXPECT_GT(arena.MemoryUsage(), before + 99999);
}

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Average(), 50.5, 1e-9);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Average(), 2);
}

// --------------------------------------------------------------- LightLZ --

TEST(CodecTest, RoundTripSimple) {
  const std::string input = "abcabcabcabcabcabc hello hello hello";
  std::string compressed;
  LightLZCompress(Slice(input), &compressed);
  std::string output;
  ASSERT_TRUE(LightLZDecompress(Slice(compressed), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CodecTest, CompressesRepetitiveData) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "4-byte int columns! ";
  std::string compressed;
  LightLZCompress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 4);
  std::string output;
  ASSERT_TRUE(LightLZDecompress(Slice(compressed), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CodecTest, EmptyInput) {
  std::string compressed;
  LightLZCompress(Slice(""), &compressed);
  std::string output;
  ASSERT_TRUE(LightLZDecompress(Slice(compressed), &output).ok());
  EXPECT_TRUE(output.empty());
}

TEST(CodecTest, RejectsCorruptInput) {
  const std::string input(1000, 'x');
  std::string compressed;
  LightLZCompress(Slice(input), &compressed);
  std::string corrupted = compressed;
  corrupted[corrupted.size() / 2] ^= 0xff;
  std::string output;
  // Either an error or a wrong-length result; never a crash. Flipping a bit
  // may keep the stream well-formed, so only check for no false "identical".
  Status s = LightLZDecompress(Slice(corrupted), &output);
  if (s.ok()) {
    EXPECT_NE(output, input);
  }
}

// Property sweep: random binary data of many sizes round-trips.
class CodecRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CodecRoundTrip, RandomData) {
  Random rng(GetParam());
  std::string input;
  const int n = GetParam() * 379 % 10000;
  for (int i = 0; i < n; ++i) {
    // Mix random bytes and runs to exercise both literal and copy paths.
    if (rng.OneIn(4)) {
      input.append(rng.Uniform(30) + 4, static_cast<char>(rng.Uniform(256)));
    } else {
      input.push_back(static_cast<char>(rng.Uniform(256)));
    }
  }
  std::string compressed;
  LightLZCompress(Slice(input), &compressed);
  std::string output;
  ASSERT_TRUE(LightLZDecompress(Slice(compressed), &output).ok());
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecRoundTrip, ::testing::Range(1, 20));

// ------------------------------------------------------------------- Env --

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      owned_ = NewMemEnv();
      env_ = owned_.get();
      dir_ = "/testdir";
    } else {
      env_ = Env::Default();
      dir_ = ::testing::TempDir() + "laser_env_test";
      env_->RemoveDir(dir_);
    }
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
  }

  void TearDown() override {
    if (!GetParam()) env_->RemoveDir(dir_);
  }

  std::unique_ptr<Env> owned_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  const std::string fname = dir_ + "/file1";
  ASSERT_TRUE(env_->WriteStringToFile(Slice("hello world"), fname).ok());
  std::string data;
  ASSERT_TRUE(env_->ReadFileToString(fname, &data).ok());
  EXPECT_EQ(data, "hello world");
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  EXPECT_EQ(size, 11u);
}

TEST_P(EnvTest, RandomAccessRead) {
  const std::string fname = dir_ + "/file2";
  ASSERT_TRUE(env_->WriteStringToFile(Slice("0123456789"), fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  ASSERT_TRUE(file->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");  // short read at EOF
  ASSERT_TRUE(file->Read(10, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());  // at EOF: empty, not an error
  ASSERT_TRUE(file->Read(20, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());  // past EOF likewise

  // Larger than one write buffer, so the file is written in several calls;
  // a read straddling its end returns every byte up to EOF.
  std::string contents(200 * 1024, '\0');
  for (size_t i = 0; i < contents.size(); ++i) contents[i] = static_cast<char>(i * 7);
  const std::string big = dir_ + "/big";
  ASSERT_TRUE(env_->WriteStringToFile(Slice(contents), big).ok());
  ASSERT_TRUE(env_->NewRandomAccessFile(big, &file).ok());
  std::string big_scratch(128 * 1024, 'x');
  const uint64_t offset = contents.size() - 3000;
  ASSERT_TRUE(file->Read(offset, big_scratch.size(), &result, big_scratch.data()).ok());
  EXPECT_EQ(result.ToString(), contents.substr(offset));
}

TEST_P(EnvTest, RenameIsAtomicReplace) {
  const std::string a = dir_ + "/a";
  const std::string b = dir_ + "/b";
  ASSERT_TRUE(env_->WriteStringToFile(Slice("new"), a).ok());
  ASSERT_TRUE(env_->WriteStringToFile(Slice("old"), b).ok());
  ASSERT_TRUE(env_->RenameFile(a, b).ok());
  EXPECT_FALSE(env_->FileExists(a));
  std::string data;
  ASSERT_TRUE(env_->ReadFileToString(b, &data).ok());
  EXPECT_EQ(data, "new");
}

TEST_P(EnvTest, GetChildrenListsFiles) {
  ASSERT_TRUE(env_->WriteStringToFile(Slice("x"), dir_ + "/c1").ok());
  ASSERT_TRUE(env_->WriteStringToFile(Slice("y"), dir_ + "/c2").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  std::set<std::string> names(children.begin(), children.end());
  EXPECT_TRUE(names.count("c1"));
  EXPECT_TRUE(names.count("c2"));
}

TEST_P(EnvTest, RemoveFile) {
  const std::string fname = dir_ + "/victim";
  ASSERT_TRUE(env_->WriteStringToFile(Slice("z"), fname).ok());
  ASSERT_TRUE(env_->RemoveFile(fname).ok());
  EXPECT_FALSE(env_->FileExists(fname));
  EXPECT_FALSE(env_->RemoveFile(fname).ok());
}

TEST_P(EnvTest, MissingFileIsError) {
  std::unique_ptr<SequentialFile> f;
  EXPECT_FALSE(env_->NewSequentialFile(dir_ + "/nope", &f).ok());
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MemEnv" : "PosixEnv";
                         });

// ----------------------------------------------------------------- Stats --

// Walks the field table: every slot of two Stats gets a distinct value, then
// each derived operation is checked slot by slot against the row's kind.
TEST(StatsTest, TableDerivesAddResetAndSnapshotDifference) {
  Stats a;
  Stats b;
  uint64_t slot = 0;
  int max_gauge_rows = 0;
  ForEachStat(
      [&](StatKind kind, const char*, int n, std::atomic<uint64_t>* x,
          std::atomic<uint64_t>* y) {
        if (kind == StatKind::kMaxGauge) ++max_gauge_rows;
        for (int i = 0; i < n; ++i, ++slot) {
          x[i] = 1000 + 3 * slot;
          // Alternate the larger side so a max gauge must choose per slot.
          y[i] = slot % 2 == 0 ? x[i] + 7 : x[i] - 5;
        }
      },
      a, b);
  EXPECT_EQ(max_gauge_rows, 2);
  const StatsSnapshot a0 = a.Snapshot();
  const StatsSnapshot b0 = b.Snapshot();
  ForEachStat(
      [](StatKind, const char* name, int n, const std::atomic<uint64_t>* live,
         const uint64_t* copy) {
        for (int i = 0; i < n; ++i) EXPECT_EQ(copy[i], live[i].load()) << name << i;
      },
      a, a0);

  // AddCountersTo sums counters and sum gauges, and takes the max of max gauges.
  a.AddCountersTo(&b);
  const StatsSnapshot sum = b.Snapshot();
  ForEachStat(
      [](StatKind kind, const char* name, int n, const uint64_t* x, const uint64_t* y,
         const uint64_t* out) {
        for (int i = 0; i < n; ++i) {
          const uint64_t want =
              kind == StatKind::kMaxGauge ? std::max(x[i], y[i]) : x[i] + y[i];
          EXPECT_EQ(out[i], want) << name << i;
        }
      },
      a0, b0, sum);

  // A snapshot difference subtracts counters and keeps the later gauges.
  const StatsSnapshot diff = sum - b0;
  ForEachStat(
      [](StatKind kind, const char* name, int n, const uint64_t* now,
         const uint64_t* then, const uint64_t* out) {
        for (int i = 0; i < n; ++i) {
          const uint64_t want = kind == StatKind::kCounter ? now[i] - then[i] : now[i];
          EXPECT_EQ(out[i], want) << name << i;
        }
      },
      sum, b0, diff);

  // Reset zeroes every counter and no gauge.
  a.Reset();
  const StatsSnapshot reset = a.Snapshot();
  ForEachStat(
      [](StatKind kind, const char* name, int n, const uint64_t* before,
         const uint64_t* after) {
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(after[i], kind == StatKind::kCounter ? 0 : before[i]) << name << i;
        }
      },
      a0, reset);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace laser
