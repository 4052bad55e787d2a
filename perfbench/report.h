#ifndef ADYA_PERFBENCH_REPORT_H_
#define ADYA_PERFBENCH_REPORT_H_

// What one benchmark run hands back: the correctness verdict, the
// operation counts, and the named metrics. The last line of standard output
// is the JSON form; every metric is also printed on its own line first.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adya::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric values by name. main.cc holds the two lists of names and
  /// units (end-to-end, per-layer) and prints each list in its order; a
  /// per-layer metric a workload does not reach reads 0.
  std::map<std::string, double> values;
  /// Printed as text only: context such as the core count and round count.
  std::vector<Metric> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }

  /// Records a failed correctness check (printed to stderr at once).
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// The q-quantile (0 <= q <= 1) by nearest rank (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

// The workloads. Each fills `report` from one run.
void RunAuditEngine(const RunArgs& args, Report& report);
void RunAuditElle(const RunArgs& args, Report& report);
void RunServeStream(const RunArgs& args, Report& report);

}  // namespace adya::perfbench

#endif  // ADYA_PERFBENCH_REPORT_H_
