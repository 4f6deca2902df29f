#include "laser/options.h"

#include "cost/bloom_allocation.h"

namespace laser {

std::vector<double> LaserOptions::ExpectedEntriesPerLevel() const {
  // Encoded entry footprint: 8-byte user key + 8-byte seq/type tag, plus the
  // full-row payload (presence bitmap over the schema + every column's
  // fixed-width value). Block/restart overhead is ignored — the solver only
  // needs the level-size *ratios*, which it cancels out of.
  const int c = schema.num_columns();
  double entry_bytes = 16.0 + (c + 7) / 8;
  for (int id = 1; id <= c; ++id) entry_bytes += schema.value_size(id);

  // Capacity shape, not measured occupancy: callers that know the real
  // settled tree (e.g. bench_point_lookup) can pass measured per-level
  // entry counts straight to SolveMonkeyAllocation and set
  // bloom_bits_per_level explicitly instead.
  std::vector<double> entries(num_levels, 0.0);
  double level_bytes = static_cast<double>(level0_bytes);
  for (int level = 0; level < num_levels; ++level) {
    entries[level] = level_bytes / entry_bytes;
    level_bytes *= size_ratio;
  }
  return entries;
}

Status LaserOptions::Finalize() {
  if (env == nullptr) env = Env::Default();
  if (path.empty()) return Status::InvalidArgument("options.path is empty");
  if (schema.num_columns() <= 0) {
    return Status::InvalidArgument("schema has no columns");
  }
  if (num_levels < 2) return Status::InvalidArgument("num_levels must be >= 2");
  if (size_ratio < 2) return Status::InvalidArgument("size_ratio must be >= 2");
  if (cg_config.num_levels() == 0) {
    cg_config = CgConfig::RowOnly(schema.num_columns(), num_levels);
  }
  if (cg_config.num_levels() != num_levels) {
    return Status::InvalidArgument("cg_config level count != num_levels");
  }
  {
    // Prefix validation errors with the failing field so a bad config is
    // attributable from the Status message alone.
    Status s = cg_config.Validate(schema.num_columns());
    if (!s.ok()) {
      return Status::InvalidArgument("cg_config: " + s.ToString());
    }
  }
  if (write_buffer_size < 4096) {
    return Status::InvalidArgument("write_buffer_size too small");
  }
  if (target_sst_size < block_size) {
    return Status::InvalidArgument("target_sst_size must be >= block_size");
  }
  if (level0_stop_writes_trigger <= level0_file_compaction_trigger) {
    return Status::InvalidArgument(
        "level0_stop_writes_trigger must exceed the compaction trigger");
  }
  if (background_threads < 1) {
    return Status::InvalidArgument("background_threads must be >= 1");
  }
  if (wal_sync_policy == WalSyncPolicy::kSyncIntervalMs && wal_sync_interval_ms < 1) {
    return Status::InvalidArgument("wal_sync_interval_ms must be >= 1");
  }
  if (advisor_interval_ms < 1) {
    return Status::InvalidArgument("advisor_interval_ms must be >= 1");
  }
  if (advisor_min_predicted_gain < 0 || advisor_min_predicted_gain >= 1) {
    return Status::InvalidArgument(
        "advisor_min_predicted_gain must be in [0, 1)");
  }

  // Derive the per-level filter allocation (idempotent: an explicit or
  // previously-derived vector of the right length is kept as-is).
  if (static_cast<int>(bloom_bits_per_level.size()) != num_levels) {
    bloom_bits_per_level.assign(num_levels, 0.0);
    if (bloom_bits_per_key > 0) {
      const std::vector<double> entries = ExpectedEntriesPerLevel();
      const BloomAllocationResult alloc =
          bloom_allocation == BloomAllocation::kMonkey
              ? SolveMonkeyAllocation(entries, bloom_bits_per_key)
              : UniformAllocation(entries, bloom_bits_per_key);
      bloom_bits_per_level = alloc.bits_per_key;
    }
  }
  return Status::OK();
}

}  // namespace laser
