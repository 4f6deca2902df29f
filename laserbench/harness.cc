#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace laserbench {

uint64_t Scramble(uint64_t x, int bits) {
  const uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  // xor-shift and odd multiplication are each invertible modulo 2^bits.
  x &= mask;
  x ^= x >> 31;
  x = (x * 0xbf58476d1ce4e5b9ull) & mask;
  x ^= x >> 27;
  x = (x * 0x94d049bb133111ebull) & mask;
  x ^= x >> 31;
  return x;
}

uint64_t CellValue(uint64_t row, uint64_t version, int column) {
  uint64_t x = row * 0x9e3779b97f4a7c15ull ^ (version << 40) ^
               static_cast<uint64_t>(column) * 0xc2b2ae3d27d4eb4full;
  return Scramble(x) & 0x7fffffffull;
}

Counters Counters::From(const laser::Stats& s) {
  Counters c;
  c.v[kIndexBlocks] = s.index_block_reads.load(std::memory_order_relaxed);
  c.v[kCacheHits] = s.block_cache_hits.load(std::memory_order_relaxed);
  c.v[kCacheMisses] = s.block_cache_misses.load(std::memory_order_relaxed);
  c.v[kBloomChecks] = s.bloom_checks.load(std::memory_order_relaxed);
  c.v[kBloomNegatives] = s.bloom_negatives.load(std::memory_order_relaxed);
  c.v[kBloomFalsePositives] =
      s.bloom_false_positives.load(std::memory_order_relaxed);
  uint64_t resolved = 0;
  for (const auto& level : s.point_reads_by_level) {
    resolved += level.load(std::memory_order_relaxed);
  }
  c.v[kReadsResolved] = resolved;
  c.v[kReadsResolvedLevel0] =
      s.point_reads_by_level[0].load(std::memory_order_relaxed);
  c.v[kRowsMerged] = s.scan_rows_merged.load(std::memory_order_relaxed);
  c.v[kRowsEmitted] = s.scan_rows_emitted.load(std::memory_order_relaxed);
  c.v[kHeapResifts] = s.scan_heap_resifts.load(std::memory_order_relaxed);
  c.v[kZipRows] = s.scan_zip_rows.load(std::memory_order_relaxed);
  c.v[kBlocksSkipped] = s.blocks_skipped_zonemap.load(std::memory_order_relaxed);
  c.v[kFilesSkipped] = s.files_skipped_zonemap.load(std::memory_order_relaxed);
  c.v[kRowsFiltered] = s.rows_filtered_pushdown.load(std::memory_order_relaxed);
  c.v[kAggsFromZonemap] = s.aggs_from_zonemap.load(std::memory_order_relaxed);
  c.v[kWalBytes] = s.bytes_written_wal.load(std::memory_order_relaxed);
  c.v[kWalSyncs] = s.wal_syncs.load(std::memory_order_relaxed);
  c.v[kBytesFlushed] = s.bytes_flushed.load(std::memory_order_relaxed);
  c.v[kBytesCompacted] = s.bytes_compacted.load(std::memory_order_relaxed);
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  for (int i = 0; i < kNumCounters; ++i) d.v[i] = v[i] - o.v[i];
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
  return *this;
}

// ---------------------------------------------------------------------------

int Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void Tracer::Begin(int name, uint64_t op, int64_t now_ns) {
  int32_t stored = -1;
  if (spans_.size() < kMaxStoredSpans) {
    stored = static_cast<int32_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back().stored;
    span.op = op;
    span.start_ns = now_ns;
    spans_.push_back(span);
  }
  stack_.push_back({name, stored, now_ns, 0});
}

void Tracer::End(int64_t now_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  NameTotals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (open.stored >= 0) spans_[open.stored].end_ns = now_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

Status Tracer::Write(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  fprintf(f, "op\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& span : spans_) {
    fprintf(f, "%llu\t%s\t%d\t%lld\t%lld\n",
            static_cast<unsigned long long>(span.op), names_[span.name].c_str(),
            span.parent, static_cast<long long>(span.start_ns - origin),
            static_cast<long long>(span.end_ns - origin));
  }
  return fclose(f) == 0 ? Status::OK() : Status::IOError("close " + path);
}

// ---------------------------------------------------------------------------

uint64_t ShapeFingerprint(const std::vector<laser::LaserDB*>& dbs,
                          uint64_t bytes_flushed, uint64_t bytes_compacted) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (laser::LaserDB* db : dbs) {
    auto version = db->current_version();
    for (int level = 0; level < version->num_levels(); ++level) {
      for (int group = 0; group < version->num_groups(level); ++group) {
        mix(version->files(level, group).size());
        mix(version->GroupEntries(level, group));
        mix(version->GroupBytes(level, group));
      }
    }
  }
  mix(bytes_flushed);
  mix(bytes_compacted);
  return h & ((1ull << 48) - 1);
}

uint64_t TreeBytes(const std::vector<laser::LaserDB*>& dbs) {
  uint64_t bytes = 0;
  for (laser::LaserDB* db : dbs) bytes += db->current_version()->TotalBytes();
  return bytes;
}

const std::vector<MetricName> kEndToEndNames = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"op1_p50_us", "us"},
    {"op2_p50_us", "us"},
    {"op3_p50_us", "us"},
    {"write_amp", "ratio"},
    {"space_amp", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricName> kPerLayerNames = {
    {"laser.insert_self_us", "us"},
    {"laser.read_self_us", "us"},
    {"laser.newscan_us", "us"},
    {"laser.drain_us", "us"},
    {"laser.rows_merged_per_emitted", "ratio"},
    {"laser.heap_resifts_per_row", "ratio"},
    {"laser.zip_row_share", "ratio"},
    {"laser.rows_filtered_per_scan", "count"},
    {"laser.aggs_from_zonemap_per_scan", "count"},
    {"wal.bytes_per_write", "bytes"},
    {"wal.syncs_per_new_order", "count"},
    {"sst.data_blocks_per_get", "count"},
    {"sst.index_blocks_per_get", "count"},
    {"sst.cache_hit_rate", "ratio"},
    {"sst.bloom_checks_per_absent_get", "count"},
    {"sst.bloom_fpr", "ratio"},
    {"sst.data_blocks_per_scan", "count"},
    {"sst.blocks_skipped_per_scan", "count"},
    {"sst.files_skipped_per_scan", "count"},
    {"lsm.flush_s", "s"},
    {"lsm.compact_s", "s"},
    {"lsm.compact_mb_per_s", "MB/s"},
    {"lsm.compact_share", "ratio"},
    {"lsm.bytes_flushed_per_user_byte", "ratio"},
    {"lsm.bytes_compacted_per_user_byte", "ratio"},
    {"lsm.get_level_share", "ratio"},
    {"lsm.shape_fingerprint", "hash"},
    {"lsm.setup_bytes_flushed", "bytes"},
    {"lsm.setup_bytes_compacted", "bytes"},
    {"cost.select_design_ms", "ms"},
    {"workload.new_order_us", "us"},
    {"workload.payment_us", "us"},
    {"workload.order_status_us", "us"},
    {"workload.q1_us", "us"},
    {"laser.self_share", "ratio"},
    {"lsm.self_share", "ratio"},
    {"workload.self_share", "ratio"},
    {"driver.self_share", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"trace.call_coverage", "ratio"},
    {"trace.traced_ops_per_s", "ops/s"},
    {"trace.untraced_ops_per_s", "ops/s"},
    {"trace.overhead_pct", "%"},
};

laser::LaserOptions BaseOptions(const std::string& dir) {
  laser::LaserOptions options;
  options.env = laser::Env::Default();
  options.path = dir;
  options.background_threads = 1;
  options.disable_auto_compactions = true;
  options.use_wal = true;
  return options;
}

// ---------------------------------------------------------------------------

Schedule::Schedule(uint64_t seed, std::vector<std::pair<int, int>> body,
                   std::vector<int> tail)
    : seed_(seed), tail_(std::move(tail)) {
  for (const auto& [kind, count] : body) {
    template_.insert(template_.end(), count, kind);
  }
  round_size_ = template_.size() + tail_.size();
}

int Schedule::KindAt(uint64_t index) {
  const uint64_t round = index / round_size_;
  const uint64_t pos = index % round_size_;
  if (pos >= template_.size()) return tail_[pos - template_.size()];
  if (round != cached_round_) {
    round_ = template_;
    laser::Random rng(Scramble(seed_ ^ 0x5c4ed01e) + round);
    for (size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[rng.Uniform(i)]);
    }
    cached_round_ = round;
  }
  return round_[pos];
}

// ---------------------------------------------------------------------------

namespace {
// The traced run alternates traced and untraced slices of this length, so
// slow drift of the machine hits both alike and their rates compare.
constexpr int64_t kTraceSliceNs = 250'000'000;
}  // namespace

Run::Run(Workload* workload, bool trace) : workload_(workload), trace_(trace) {
  for (const std::string& kind : workload_->kinds()) {
    kinds_.emplace_back();
    op_span_.push_back(tracer_.Intern("op." + kind));
  }
}

OpResult Run::RunOp(uint64_t index, bool traced) {
  const int kind = workload_->KindAt(index);
  KindTotals& totals = kinds_[kind];
  op_index_ = index;
  op_call_ns_ = 0;
  op_excluded_ = Counters();
  tracing_ = traced;
  // The op span holds the counter reads too: they are the driver's time.
  Counters before;
  int64_t t0 = 0;
  if (traced) {
    t0 = NowNanos();
    tracer_.Begin(op_span_[kind], index, t0);
    before = workload_->ReadCounters();
  }
  OpResult result = workload_->Op(kind, this);
  if (traced) {
    totals.traced_delta += workload_->ReadCounters() - before - op_excluded_;
    const int64_t t1 = NowNanos();
    tracer_.End(t1);
    root_span_ns_ += t1 - t0;
    ++totals.traced_ops;
  }
  tracing_ = false;
  ++totals.ops;
  if (result.status.ok() && result.wrong.empty() && !trace_) {
    totals.latency_ns.push_back(op_call_ns_);
  }
  return result;
}

Status Run::Warmup(uint64_t count) {
  for (; next_op_ < count; ++next_op_) {
    OpResult result = RunOp(next_op_, false);
    if (!result.wrong.empty()) {
      wrong_ = result.wrong;
      return Status::Corruption(result.wrong);
    }
  }
  // Warm-up ops are not part of the measured phase.
  for (KindTotals& totals : kinds_) totals = KindTotals();
  return Status::OK();
}

Status Run::Measure(double seconds) {
  const uint64_t window_ops = workload_->window_ops();
  // Restarts between windows are not measured: the clock stops during them.
  int64_t paused_ns = 0;
  auto clock = [&paused_ns] { return NowNanos() - paused_ns; };
  const int64_t start = clock();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  int64_t window_start = start;
  while (now < end) {
    if (attempted_ % window_ops == 0) {
      if (attempted_ > 0) {
        window_ops_per_s_.push_back(window_ops / ((now - window_start) / 1e9));
      }
      for (KindTotals& totals : kinds_) {
        totals.window_begin.push_back(totals.latency_ns.size());
      }
      const int64_t pause = NowNanos();
      Status s = workload_->Restart();
      paused_ns += NowNanos() - pause;
      if (!s.ok()) return s;
      now = window_start = clock();
    }
    const bool traced = trace_ && ((now - start) / kTraceSliceNs) % 2 == 1;
    OpResult result = RunOp(next_op_++, traced);
    const int64_t after = clock();
    KindTotals& totals = kinds_[workload_->KindAt(next_op_ - 1)];
    if (traced) {
      traced_wall_ns_ += after - now;
      totals.traced_wall_ns += after - now;
      ++traced_ops_;
    } else {
      totals.untraced_wall_ns += after - now;
    }
    now = after;
    ++attempted_;
    if (!result.status.ok()) {
      ++failed_;
      fprintf(stderr, "op %llu failed: %s\n",
              static_cast<unsigned long long>(next_op_ - 1),
              result.status.ToString().c_str());
    }
    if (!result.wrong.empty()) {
      wrong_ = result.wrong;
      return Status::Corruption(wrong_);
    }
  }
  if (attempted_ > 0 && attempted_ % window_ops == 0) {
    window_ops_per_s_.push_back(window_ops / ((now - window_start) / 1e9));
  }
  wall_ns_ = now - start;
  return Status::OK();
}

namespace {

/// The lowest of `values`, or the highest when `highest`; NaN when empty.
double Best(const std::vector<double>& values, bool highest) {
  if (values.empty()) return std::nan("");
  return highest ? *std::max_element(values.begin(), values.end())
                 : *std::min_element(values.begin(), values.end());
}

/// Nearest-rank percentile of samples[begin, end), in microseconds.
double Percentile(std::vector<int64_t>::const_iterator begin,
                  std::vector<int64_t>::const_iterator end, double p) {
  std::vector<int64_t> samples(begin, end);
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1] / 1e3;
}

}  // namespace

double Run::PercentileMicros(int k, double p) const {
  const KindTotals& totals = kinds_[k];
  const auto& samples = totals.latency_ns;
  // Ten samples beyond the percentile: consecutive windows are grouped
  // until they hold that many. Every window holds the same ops, so the
  // grouping is fixed by the workload, not by the engine's speed.
  const size_t need = static_cast<size_t>(std::ceil(10 / (1 - p / 100)));
  std::vector<double> per_group;
  size_t group_begin = totals.window_begin.empty() ? 0 : totals.window_begin[0];
  for (size_t w = 0; w < windows(); ++w) {
    const size_t end = w + 1 < totals.window_begin.size() ? totals.window_begin[w + 1]
                                                          : samples.size();
    if (end - group_begin < need) continue;
    per_group.push_back(
        Percentile(samples.begin() + group_begin, samples.begin() + end, p));
    group_begin = end;
  }
  return Best(per_group, false);
}

double Run::OpsPerSecond() const { return Best(window_ops_per_s_, true); }

double Run::SelfMicros(int name) const {
  const Tracer::NameTotals& t = tracer_.totals(name);
  return Ratio(t.self_ns / 1e3, t.count);
}

double Run::SpanMicros(int name) const {
  const Tracer::NameTotals& t = tracer_.totals(name);
  return Ratio(t.total_ns / 1e3, t.count);
}

uint64_t Run::TracedCount(std::initializer_list<int> kinds, Counter c) const {
  uint64_t sum = 0;
  for (int k : kinds) sum += kinds_[k].traced_delta[c];
  return sum;
}

uint64_t Run::TracedCountAll(Counter c) const {
  uint64_t sum = 0;
  for (const KindTotals& k : kinds_) sum += k.traced_delta[c];
  return sum;
}

uint64_t Run::TracedOps(std::initializer_list<int> kinds) const {
  uint64_t sum = 0;
  for (int k : kinds) sum += kinds_[k].traced_ops;
  return sum;
}

void Run::TraceSummary(Metrics* out) const {
  // Rates of the whole measured mix at each kind's mean op time in the
  // traced and in the untraced slices: a slice that happens to hold more
  // slow ops then does not count as overhead.
  double traced_total_s = 0, untraced_total_s = 0;
  for (const KindTotals& k : kinds_) {
    const uint64_t untraced_ops = k.ops - k.traced_ops;
    if (k.traced_ops == 0 || untraced_ops == 0) continue;
    traced_total_s += k.ops * (k.traced_wall_ns / 1e9) / k.traced_ops;
    untraced_total_s += k.ops * (k.untraced_wall_ns / 1e9) / untraced_ops;
  }
  const double traced_rate = Ratio(attempted_, traced_total_s);
  const double untraced_rate = Ratio(attempted_, untraced_total_s);
  out->push_back({"trace.traced_ops_per_s", traced_rate, "ops/s"});
  out->push_back({"trace.untraced_ops_per_s", untraced_rate, "ops/s"});
  out->push_back({"trace.overhead_pct",
                  traced_rate > 0 ? (untraced_rate / traced_rate - 1) * 100 : 0,
                  "%"});
  const double traced_ns = static_cast<double>(traced_wall_ns_);
  out->push_back({"trace.span_coverage", Ratio(root_span_ns_, traced_ns), "ratio"});
  // Self time by module: the span-name prefix; op spans' own time is the
  // driver's (input generation and output checks).
  std::map<std::string, int64_t> self_by_module;
  int64_t call_ns = 0;
  for (size_t i = 0; i < tracer_.num_names(); ++i) {
    const std::string& name = tracer_.name(static_cast<int>(i));
    const Tracer::NameTotals& t = tracer_.totals(static_cast<int>(i));
    if (t.count == 0) continue;
    std::string module = name.substr(0, name.find('.'));
    if (module == "op") {
      module = "driver";
    } else {
      call_ns += t.total_ns;
    }
    self_by_module[module] += t.self_ns;
  }
  out->push_back({"trace.call_coverage", Ratio(call_ns, traced_ns), "ratio"});
  for (const auto& [module, ns] : self_by_module) {
    out->push_back({module + ".self_share", Ratio(ns, traced_ns), "ratio"});
  }
}


void Run::PrintLayerReport(const Metrics& metrics, FILE* out) const {
  fprintf(out, "traced %.2f s of %.2f s measured, %llu ops traced\n",
          traced_seconds(), wall_ns_ / 1e9,
          static_cast<unsigned long long>(traced_ops_));
  fprintf(out, "%-28s %10s %12s %12s %8s\n", "span", "count", "mean_us",
          "self_us", "self%");
  for (size_t i = 0; i < tracer_.num_names(); ++i) {
    const Tracer::NameTotals& t = tracer_.totals(static_cast<int>(i));
    if (t.count == 0) continue;
    fprintf(out, "%-28s %10llu %12.2f %12.2f %7.1f%%\n",
            tracer_.name(static_cast<int>(i)).c_str(),
            static_cast<unsigned long long>(t.count), t.total_ns / 1e3 / t.count,
            t.self_ns / 1e3 / t.count, 100.0 * t.self_ns / traced_wall_ns_);
  }
  std::vector<const Metric*> sorted;
  for (const Metric& m : metrics) sorted.push_back(&m);
  std::stable_sort(sorted.begin(), sorted.end(), [](const Metric* a, const Metric* b) {
    return a->name.substr(0, a->name.find('.')) < b->name.substr(0, b->name.find('.'));
  });
  for (const Metric* m : sorted) {
    fprintf(out, "%-36s %16.6g %s\n", m->name.c_str(), m->value, m->unit.c_str());
  }
}

}  // namespace laserbench
