#include "util/stats.h"

#include <cstdio>

namespace laser {

void Stats::Reset() {
  ForEachStat(
      [](StatKind kind, const char*, int n, std::atomic<uint64_t>* slots) {
        if (kind != StatKind::kCounter) return;
        for (int i = 0; i < n; ++i) slots[i].store(0, std::memory_order_relaxed);
      },
      *this);
}

void Stats::AddCountersTo(Stats* out) const {
  ForEachStat(
      [](StatKind kind, const char*, int n, const std::atomic<uint64_t>* from,
         std::atomic<uint64_t>* to) {
        for (int i = 0; i < n; ++i) {
          const uint64_t v = from[i].load(std::memory_order_relaxed);
          if (kind != StatKind::kMaxGauge) {
            to[i].fetch_add(v, std::memory_order_relaxed);
          } else if (v > to[i].load(std::memory_order_relaxed)) {
            to[i].store(v, std::memory_order_relaxed);
          }
        }
      },
      *this, *out);
}

StatsSnapshot Stats::Snapshot() const {
  StatsSnapshot snap;
  ForEachStat(
      [](StatKind, const char*, int n, const std::atomic<uint64_t>* from,
         uint64_t* to) {
        for (int i = 0; i < n; ++i) to[i] = from[i].load(std::memory_order_relaxed);
      },
      *this, snap);
  return snap;
}

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& since) const {
  StatsSnapshot diff;
  ForEachStat(
      [](StatKind kind, const char*, int n, const uint64_t* now, const uint64_t* then,
         uint64_t* out) {
        for (int i = 0; i < n; ++i) {
          out[i] = kind == StatKind::kCounter ? now[i] - then[i] : now[i];
        }
      },
      *this, since, diff);
  return diff;
}

std::string Stats::ToString() const {
  std::string out;
  ForEachStat(
      [&out](StatKind, const char* name, int n, const std::atomic<uint64_t>* slots) {
        if (n != 1) return;
        if (!out.empty()) out += ' ';
        out += name;
        out += '=';
        out += std::to_string(slots->load(std::memory_order_relaxed));
      },
      *this);

  // Per-level filter line: only levels with configured bits, live filter
  // bytes, or probe activity (keeps the line empty on fresh/filterless DBs).
  for (int i = 0; i < kStatsLevels; ++i) {
    const unsigned long long mb = bloom_millibits_by_level[i].load();
    const unsigned long long fb = filter_bytes_by_level[i].load();
    const unsigned long long checks = bloom_checks_by_level[i].load();
    if (mb == 0 && fb == 0 && checks == 0) continue;
    char lv[160];
    snprintf(lv, sizeof(lv),
             " L%d[bits=%.2f filter=%lluB checks=%llu neg=%llu fp=%llu]", i,
             static_cast<double>(mb) / 1000.0, fb, checks,
             static_cast<unsigned long long>(bloom_negatives_by_level[i].load()),
             static_cast<unsigned long long>(
                 bloom_false_positives_by_level[i].load()));
    out += lv;
  }
  return out;
}

}  // namespace laser
