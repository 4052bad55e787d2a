#include "perfbench/checks.h"

#include <optional>

#include "core/checker_api.h"

namespace adya::perfbench {
namespace {

std::string RenderViolations(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += PhenomenonName(v.phenomenon);
    out += '\n';
    out += v.description;
    out += '\n';
  }
  return out;
}

std::vector<double> PhaseSums(obs::StatsRegistry* stats) {
  std::vector<double> sums;
  if (stats == nullptr) return sums;
  for (const char* phase : kCheckerPhases) {
    sums.push_back(static_cast<double>(stats->histogram(phase).sum()));
  }
  return sums;
}

/// The mean over inputs of `statistic(input)`; inputs with no rounds (not
/// reached before the run's time was up) take no part.
template <typename Statistic>
double MeanOverInputs(const std::vector<InputSeries>& inputs,
                      Statistic statistic) {
  double sum = 0;
  int n = 0;
  for (const InputSeries& s : inputs) {
    if (s.load_s.empty()) continue;
    sum += statistic(s);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

}  // namespace

CheckRun TimedCheck(const History& h, IsolationLevel level, ThreadPool* pool,
                    obs::StatsRegistry* stats) {
  CheckerOptions options;
  options.stats = stats;
  if (pool != nullptr) {
    options.mode = CheckMode::kParallel;
    options.threads = pool->threads();
  }
  CheckRun run;
  std::vector<double> phases_before = PhaseSums(stats);
  Clock::time_point start = Clock::now();
  Checker checker(h, options, pool);
  run.build_s = SecondsSince(start);
  start = Clock::now();
  CheckReport report = checker.Check(level);
  run.level_s = SecondsSince(start);
  start = Clock::now();
  std::vector<Violation> all = checker.CheckAll();
  run.all_s = SecondsSince(start);
  run.phase_us = PhaseSums(stats);
  for (size_t i = 0; i < run.phase_us.size(); ++i) {
    run.phase_us[i] -= phases_before[i];
  }

  run.satisfied = report.satisfied;
  for (const Violation& v : all) run.found.push_back(v.phenomenon);
  for (IsolationLevel audit_level : kAuditLevels) {
    CheckReport verdict = checker.Check(audit_level);
    run.levels.push_back(verdict.satisfied);
    run.level_text += IsolationLevelName(audit_level);
    run.level_text += ':';
    for (const Violation& v : verdict.violations) {
      run.level_text += ' ';
      run.level_text += PhenomenonName(v.phenomenon);
    }
    run.level_text += '\n';
  }
  run.text = std::string(report.satisfied ? "satisfied\n" : "violated\n") +
             RenderViolations(report.violations) + "--\n" +
             RenderViolations(all) + run.level_text;
  return run;
}

bool HoldsLattice(const std::vector<bool>& levels) {
  for (size_t i = 1; i < 4 && i < levels.size(); ++i) {
    if (levels[i] && !levels[i - 1]) return false;
  }
  return true;
}

std::optional<AuditRound> RunAuditRound(const std::string& text,
                                        std::string_view format,
                                        IsolationLevel level, ThreadPool& pool,
                                        bool trace, InputSeries& series,
                                        Report& report) {
  Clock::time_point start = Clock::now();
  Result<LoadedHistory> loaded =
      LoadHistory(text, format, trace ? &series.load_stats : nullptr);
  double load_s = SecondsSince(start);
  report.attempted += 3;
  if (!loaded.ok()) {
    report.Fail("LoadHistory(" + std::string(format) +
                "): " + loaded.status().ToString());
    return std::nullopt;
  }
  const History& h = loaded->history;
  CheckRun serial =
      TimedCheck(h, level, nullptr, trace ? &series.serial_stats : nullptr);
  double cpu_before = ProcessCpuSeconds();
  start = Clock::now();
  CheckRun pooled =
      TimedCheck(h, level, &pool, trace ? &series.pooled_stats : nullptr);
  series.pool_wall_s += SecondsSince(start);
  series.pool_cpu_s += ProcessCpuSeconds() - cpu_before;
  report.Expect(serial.text == pooled.text,
                "verdicts or witness text differ between 1 and " +
                    std::to_string(pool.threads()) + " threads");
  report.Expect(HoldsLattice(serial.levels),
                "verdicts break the PL-1 < PL-2 < PL-2.99 < PL-3 lattice");

  series.load_s.push_back(load_s);
  series.build_s.push_back(serial.build_s);
  series.level_s.push_back(serial.level_s);
  series.all_s.push_back(serial.all_s);
  series.check_s.push_back(serial.total_s());
  series.build_4t_s.push_back(pooled.build_s);
  series.level_4t_s.push_back(pooled.level_s);
  series.all_4t_s.push_back(pooled.all_s);
  series.check_4t_s.push_back(pooled.total_s());
  if (trace) {
    series.phase_us.push_back(serial.phase_us);
    series.phase_4t_us.push_back(pooled.phase_us);
  }
  series.events = static_cast<double>(h.events().size());
  return AuditRound{std::move(*loaded), std::move(serial)};
}

void SetAuditEndToEnd(const std::vector<InputSeries>& inputs, Report& report) {
  double load = MeanOverInputs(
      inputs, [](const InputSeries& s) { return Median(s.load_s); });
  double check = MeanOverInputs(
      inputs, [](const InputSeries& s) { return Median(s.check_s); });
  double events =
      MeanOverInputs(inputs, [](const InputSeries& s) { return s.events; });
  double check_4t = MeanOverInputs(
      inputs, [](const InputSeries& s) { return Median(s.check_4t_s); });
  report.Set("load_s", load);
  report.Set("check_s", check);
  report.Set("events_per_s", events / (load + check));
  // The 4-thread check's wall time follows how busy the host's other
  // vCPUs are (every fork-join waits for the slowest of four) far more
  // than the serial figures do, so it is a per-layer metric; every run
  // still prints it.
  report.Set("core.check_s_4t", check_4t);
  report.Note("check_4t_s", check_4t, "s");
}

void SetAuditLayers(std::vector<InputSeries>& inputs, Report& report) {
  auto set = [&](const char* name, std::vector<double> InputSeries::*field) {
    report.Set(name, MeanOverInputs(inputs, [field](const InputSeries& s) {
                 return Median(s.*field);
               }));
  };
  set("core.checker_build_s", &InputSeries::build_s);
  set("core.check_level_s", &InputSeries::level_s);
  set("core.checkall_s", &InputSeries::all_s);
  set("core.checker_build_s_4t", &InputSeries::build_4t_s);
  set("core.check_level_s_4t", &InputSeries::level_4t_s);
  set("core.checkall_s_4t", &InputSeries::all_4t_s);

  for (size_t i = 0; i < std::size(kCheckerPhases); ++i) {
    auto phase = [i](const std::vector<std::vector<double>>& rounds) {
      std::vector<double> values;
      for (const std::vector<double>& round : rounds) values.push_back(round[i]);
      return Median(values);
    };
    report.Set(kCheckerPhases[i],
               MeanOverInputs(inputs, [&](const InputSeries& s) {
                 return phase(s.phase_us);
               }));
    report.Set(std::string(kCheckerPhases[i]) + "_4t",
               MeanOverInputs(inputs, [&](const InputSeries& s) {
                 return phase(s.phase_4t_us);
               }));
  }

  // LoadHistory's own ingest.* metrics, per load.
  auto per_load = [&](const char* name, bool histogram) {
    double sum = 0;
    int n = 0;
    for (InputSeries& s : inputs) {
      if (s.load_s.empty()) continue;
      double total =
          histogram ? static_cast<double>(s.load_stats.histogram(name).sum())
                    : static_cast<double>(s.load_stats.counter(name).Value());
      sum += total / static_cast<double>(s.load_s.size());
      ++n;
    }
    report.Set(name, n == 0 ? 0 : sum / n);
  };
  per_load("ingest.parse_us", true);
  per_load("ingest.ops", false);
  per_load("ingest.inferred_edges", false);

  double cpu = 0, wall = 0;
  for (const InputSeries& s : inputs) {
    cpu += s.pool_cpu_s;
    wall += s.pool_wall_s;
  }
  report.Set("pool.cpu_per_wall_4t", wall > 0 ? cpu / wall : 0);
}

}  // namespace adya::perfbench
