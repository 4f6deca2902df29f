#include "lsm/compaction_picker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace laser {

CompactionPicker::CompactionPicker(const LaserOptions* options)
    : options_(options) {}

double CompactionPicker::GroupWeight(const ColumnSet& columns) const {
  double width = 8.0;  // key stored with every CG (simulated columns)
  for (int col : columns) {
    width += static_cast<double>(options_->schema.value_size(col));
  }
  return width;
}

uint64_t CompactionPicker::GroupCapacityBytes(const Version& version, int level,
                                              int group) const {
  // Weights come from the Version's own design, not the options config: a
  // morph changes the partition the level is stored in.
  const std::vector<ColumnSet>& groups = version.design().groups(level);
  double total = 0;
  for (const ColumnSet& g : groups) total += GroupWeight(g);
  if (total == 0) return 0;
  const double level_bytes = static_cast<double>(options_->level0_bytes) *
                             std::pow(options_->size_ratio, level);
  const double share = GroupWeight(groups[group]) / total;
  return static_cast<uint64_t>(level_bytes * share);
}

double CompactionPicker::Score(const Version& version, int level, int group) const {
  if (level == 0) {
    return static_cast<double>(version.files(0, 0).size()) /
           static_cast<double>(options_->level0_file_compaction_trigger);
  }
  const uint64_t capacity = GroupCapacityBytes(version, level, group);
  if (capacity == 0) return 0;
  // Data bytes, not file bytes: per-level filter allocation (Monkey) makes
  // filter blocks a level-dependent fraction of each file, and scoring on
  // raw file sizes would let the filter policy steer compaction into a
  // different tree shape than the same writes produce under uniform
  // filters — breaking equal-shape comparisons and coupling unrelated
  // policies.
  return static_cast<double>(version.GroupDataBytes(level, group)) /
         static_cast<double>(capacity);
}

namespace {

/// The run (level, group) of `version` restricted to `files`.
CompactionInput RunOf(const Version& version, int level, int group,
                      Version::FileList files) {
  return {level, group, version.design().groups(level)[group], std::move(files)};
}

/// The job merging `inputs` into groups `output_groups` of `output_level`,
/// laid out per `partition` (that level's groups). The claims are fixed
/// here, so the job releases exactly what it took.
CompactionJob BuildJob(const Version& version, std::vector<CompactionInput> inputs,
                       int output_level, const std::vector<ColumnSet>& partition,
                       std::vector<int> output_groups) {
  CompactionJob job;
  job.inputs = std::move(inputs);
  job.output_level = output_level;
  job.output_groups = std::move(output_groups);
  job.to_bottom_level = output_level == version.num_levels() - 1;
  std::set<std::pair<int, int>> claims;
  for (const CompactionInput& in : job.inputs) claims.emplace(in.level, in.group);
  for (const int g : job.output_groups) {
    job.output_columns.push_back(partition[g]);
    claims.emplace(output_level, g);
  }
  job.claims.assign(claims.begin(), claims.end());
  return job;
}

}  // namespace

bool CompactionPicker::NeedsCompaction(const Version& version,
                                       const CgConfig* target) const {
  if (target != nullptr && version.design() != *target) return true;
  for (int level = 0; level + 1 < version.num_levels(); ++level) {
    for (int group = 0; group < version.num_groups(level); ++group) {
      if (Score(version, level, group) >= 1.0) return true;
    }
  }
  return false;
}

std::shared_ptr<FileMetaData> CompactionPicker::PickParentFile(
    const Version::FileList& run) const {
  assert(!run.empty());
  if (options_->compaction_priority == CompactionPriority::kByCompensatedSize) {
    // Compare data footprints (file minus filter block) so the pick order
    // is independent of the per-level filter allocation.
    const auto data_bytes = [](const FileMetaData& f) {
      return f.file_size - std::min(f.props.filter_bytes, f.file_size);
    };
    return *std::max_element(run.begin(), run.end(),
                             [&](const auto& a, const auto& b) {
                               return data_bytes(*a) < data_bytes(*b);
                             });
  }
  // kOldestSmallestSeqFirst: the SST whose key range has gone longest
  // without compaction.
  return *std::min_element(run.begin(), run.end(), [](const auto& a, const auto& b) {
    return a->props.smallest_seq < b->props.smallest_seq;
  });
}

std::optional<CompactionJob> CompactionPicker::Pick(
    const Version& version, const std::set<std::pair<int, int>>& busy,
    const CgConfig* target) const {
  const auto no_conflict = [&](const CompactionJob& job) {
    for (const auto& claim : job.claims) {
      if (busy.count(claim) > 0) return false;
    }
    return true;
  };

  // A pending target outranks overflow work, and blocks it: one job folds
  // every run below L0 into the target's partition of the bottom level.
  // Every L0 job takes every L0 file, so a key's L0 entries are newer than
  // all of its entries below L0, and the fold never hides a newer column.
  if (target != nullptr && version.design() != *target) {
    std::vector<CompactionInput> runs;
    for (int level = 1; level < version.num_levels(); ++level) {
      for (int g = 0; g < version.num_groups(level); ++g) {
        runs.push_back(RunOf(version, level, g, version.files(level, g)));
      }
    }
    const int bottom = version.num_levels() - 1;
    const std::vector<ColumnSet>& partition = target->groups(bottom);
    std::vector<int> all(partition.size());
    std::iota(all.begin(), all.end(), 0);
    CompactionJob job =
        BuildJob(version, std::move(runs), bottom, partition, std::move(all));
    job.design = *target;
    if (no_conflict(job)) return job;
    return std::nullopt;
  }

  struct Candidate {
    double score;
    int level;
    int group;
  };
  std::vector<Candidate> candidates;
  for (int level = 0; level + 1 < version.num_levels(); ++level) {
    const int groups = version.num_groups(level);
    for (int group = 0; group < groups; ++group) {
      const double score = Score(version, level, group);
      if (score >= 1.0) candidates.push_back(Candidate{score, level, group});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

  for (const Candidate& cand : candidates) {
    const auto& run = version.files(cand.level, cand.group);
    if (run.empty()) continue;

    // Level 0's files overlap, so they compact together. Deeper runs give
    // up one file.
    const Version::FileList parents =
        cand.level == 0 ? run : Version::FileList{PickParentFile(run)};

    // Combined user-key range of the parent files.
    Slice lo = parents[0]->smallest_user_key();
    Slice hi = parents[0]->largest_user_key();
    for (const auto& f : parents) {
      if (f->smallest_user_key().compare(lo) < 0) lo = f->smallest_user_key();
      if (f->largest_user_key().compare(hi) > 0) hi = f->largest_user_key();
    }

    // Each parent file is a run of its own, newest (last flushed) first.
    std::vector<CompactionInput> inputs;
    for (auto f = parents.rbegin(); f != parents.rend(); ++f) {
      inputs.push_back(RunOf(version, cand.level, cand.group, {*f}));
    }

    // Children are the groups at level+1 inside the parent's columns (CG
    // containment), which are the ones that intersect them.
    const int child_level = cand.level + 1;
    std::vector<int> children =
        version.design().OverlappingGroups(child_level, inputs[0].columns);
    for (const int child : children) {
      inputs.push_back(RunOf(version, child_level, child,
                             version.OverlappingFiles(child_level, child, lo, hi)));
    }
    CompactionJob job = BuildJob(version, std::move(inputs), child_level,
                                 version.design().groups(child_level),
                                 std::move(children));
    if (no_conflict(job)) return job;
  }
  return std::nullopt;
}

std::shared_ptr<Version> CompactionJob::Apply(
    const Version& base, const std::vector<Version::FileList>& outputs) const {
  auto next = base.Clone();
  for (const CompactionInput& in : inputs) {
    next->ReplaceFiles(in.level, in.group, in.files, {});
  }
  if (design.num_levels() > 0) next->Relayout(design);
  for (size_t i = 0; i < output_groups.size(); ++i) {
    next->ReplaceFiles(output_level, output_groups[i], {}, outputs[i]);
  }
  return next;
}

}  // namespace laser
