#ifndef ADYA_PERFBENCH_CHECKS_H_
#define ADYA_PERFBENCH_CHECKS_H_

// The audit round every workload runs on its inputs — load the text, then
// check it without a pool and on a 4-thread pool — timed call by call, and
// the metrics it yields.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/phenomena.h"
#include "history/history.h"
#include "history/source.h"
#include "obs/stats.h"
#include "perfbench/report.h"

namespace adya::perfbench {

/// The pool the 4-thread check runs on.
constexpr int kPoolThreads = 4;

/// The checker's own phase timers (DESIGN.md §9) a traced run reports.
inline constexpr const char* kCheckerPhases[] = {
    "checker.conflicts_us",    "checker.dsg_build_us",
    "checker.cycle_search_us", "checker.phenomenon_us",
    "checker.witness_us",      "checker.phenomenon.ssg_build_us",
    "checker.phenomenon.gsib_us"};

/// The levels every check also answers (untimed, after the timed calls,
/// from the same checker's shared artifacts): the PL-1 < PL-2 < PL-2.99 <
/// PL-3 chain, then PL-SI.
inline constexpr IsolationLevel kAuditLevels[] = {
    IsolationLevel::kPL1, IsolationLevel::kPL2, IsolationLevel::kPL299,
    IsolationLevel::kPL3, IsolationLevel::kPLSI};

struct CheckRun {
  double build_s = 0;
  double level_s = 0;
  double all_s = 0;
  bool satisfied = false;
  /// Verdict plus witness text of Check(level) and of CheckAll, then
  /// level_text.
  std::string text;
  /// The verdict at each of kAuditLevels, with the phenomena named.
  std::string level_text;
  /// Whether each of kAuditLevels is satisfied, in that order.
  std::vector<bool> levels;
  /// The phenomena CheckAll found.
  std::vector<Phenomenon> found;
  /// With a registry attached: each of kCheckerPhases' time (us) inside
  /// the timed calls alone.
  std::vector<double> phase_us;

  double total_s() const { return build_s + level_s + all_s; }
};

/// Checker constructor, Check(level), CheckAll — each timed. Without a pool
/// the facade runs serially; with one it runs the way --check-threads=N
/// runs it (parallel mode on that pool).
CheckRun TimedCheck(const History& h, IsolationLevel level, ThreadPool* pool,
                    obs::StatsRegistry* stats);

/// True when `levels` (from CheckRun) holds the PL-1 < PL-2 < PL-2.99 <
/// PL-3 lattice: a history satisfying a level satisfies every weaker one.
bool HoldsLattice(const std::vector<bool>& levels);

/// One input's audit rounds over a run, and the registries a traced run
/// attaches to its loads and to each check configuration.
struct InputSeries {
  std::vector<double> load_s;
  std::vector<double> build_s, level_s, all_s, check_s;
  std::vector<double> build_4t_s, level_4t_s, all_4t_s, check_4t_s;
  /// Per round, per kCheckerPhases entry (traced runs only).
  std::vector<std::vector<double>> phase_us, phase_4t_us;
  double events = 0;
  double pool_cpu_s = 0;
  double pool_wall_s = 0;
  obs::StatsRegistry load_stats, serial_stats, pooled_stats;
};

/// What an audit round hands to the workload's own checks.
struct AuditRound {
  LoadedHistory loaded;
  CheckRun serial;
};

/// One audit round of `text`: LoadHistory, then TimedCheck without a pool
/// and on `pool`, recorded into `series`. Checks that the two checks agree
/// byte for byte and hold the lattice; counts 3 operations. Returns nothing
/// when the text did not load (recorded as a failed check).
std::optional<AuditRound> RunAuditRound(const std::string& text,
                                        std::string_view format,
                                        IsolationLevel level, ThreadPool& pool,
                                        bool trace, InputSeries& series,
                                        Report& report);

/// load_s, check_s, events_per_s and core.check_s_4t (also printed as the
/// note check_4t_s): each the mean over the inputs of the input's median
/// over its rounds.
void SetAuditEndToEnd(const std::vector<InputSeries>& inputs, Report& report);
/// ingest.*, core.*, checker.* and pool.cpu_per_wall_4t, likewise.
void SetAuditLayers(std::vector<InputSeries>& inputs, Report& report);

}  // namespace adya::perfbench

#endif  // ADYA_PERFBENCH_CHECKS_H_
