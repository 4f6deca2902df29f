// DesignAdvisorDaemon: the decision stage of the online design loop (§6 run
// continuously). Periodically rebuilds a workload trace from live telemetry,
// re-runs the design advisor, scores the candidate against the design the
// tree is already committed to, and installs the candidate as the new morph
// target when the predicted win clears a configurable threshold.
//
// The daemon is engine-agnostic: it talks to its host through three hooks
// (fill a trace, report the design to beat, install a target), so a single
// LaserDB and a ShardedLaserDB (one daemon over aggregated shard telemetry)
// drive it identically. TickOnce() exposes one deterministic decision pass
// for tests; Start()/Stop() wrap it in a periodic thread.

#ifndef LASER_COST_DESIGN_ADVISOR_DAEMON_H_
#define LASER_COST_DESIGN_ADVISOR_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "cost/design_advisor.h"
#include "util/status.h"

namespace laser {

struct DesignAdvisorDaemonOptions {
  /// Decision cadence of the background thread.
  int interval_ms = 1000;
  /// Hysteresis: a candidate is installed only when its predicted cost is
  /// below (1 - min_predicted_gain) times the incumbent's. Keeps two designs
  /// that score within noise of each other from thrashing the tree.
  double min_predicted_gain = 0.10;
  /// Tree shape handed to the cost model (Eq. 9 terms).
  LsmShape shape;
  AdvisorOptions advisor;
};

class DesignAdvisorDaemon {
 public:
  struct Hooks {
    /// Folds the host's live telemetry into the (empty) trace.
    std::function<void(WorkloadTrace*)> fill_trace;
    /// The design the candidate must beat: the in-flight morph target if one
    /// exists, else the current design. Comparing against the target (not
    /// the old design the tree holds until the morph installs) is what makes
    /// the hysteresis stable while a morph converges.
    std::function<CgConfig()> design_to_beat;
    /// Commits the candidate as the host's new morph target.
    std::function<Status(const CgConfig&)> install;
  };

  /// `schema` must outlive the daemon.
  DesignAdvisorDaemon(const Schema* schema, DesignAdvisorDaemonOptions options,
                      Hooks hooks);
  ~DesignAdvisorDaemon();  // implies Stop()

  DesignAdvisorDaemon(const DesignAdvisorDaemon&) = delete;
  DesignAdvisorDaemon& operator=(const DesignAdvisorDaemon&) = delete;

  /// Starts the periodic thread. No-op if already running.
  void Start();

  /// Stops and joins the thread. Safe to call repeatedly.
  void Stop();

  /// One decision pass: trace -> SelectDesign -> score vs the design to
  /// beat -> maybe install. Returns true iff a new target was installed.
  /// Deterministic given the hooks; tests drive this directly.
  bool TickOnce();

  /// Eq. 9 cost of running `trace` against `config`, summed over levels.
  double ScoreDesign(const CgConfig& config, const WorkloadTrace& trace) const;

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t installs() const { return installs_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  const DesignAdvisorDaemonOptions options_;
  const Hooks hooks_;
  DesignAdvisor advisor_;
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> installs_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace laser

#endif  // LASER_COST_DESIGN_ADVISOR_DAEMON_H_
