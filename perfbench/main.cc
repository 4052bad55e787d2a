// adya_perfbench: the repository's end-to-end benchmark (see README.md).
//
//   adya_perfbench --workload audit-engine|audit-elle|serve-stream
//                  --seed N --seconds S --trace 0|1
//
// Prints each metric on a line of its own, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit code 0
// when the run completed (correct or not), 1 when a workload stopped
// without figures, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <string_view>
#include <thread>

#include "ingest/elle.h"
#include "perfbench/report.h"

namespace adya::perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    size_t mid = values.size() / 2;
    return (values[mid - 1] + values[mid]) / 2;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json lists, in its order. README.md says which
// end-to-end metric each per-layer metric should move, and on which
// workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"load_s", "s"},
    {"check_s", "s"},         {"events_per_s", "events/s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"engine.run_s", "s"},
    {"engine.commits", "count"},
    {"history.render_s", "s"},
    {"history.input_mb", "MB"},
    {"history.load_mb_per_s", "MB/s"},
    {"history.finalize_s", "s"},
    {"history.finalize_4t_s", "s"},
    {"ingest.export_s", "s"},
    {"ingest.parse_us", "us"},
    {"ingest.ops", "count"},
    {"ingest.inferred_edges", "count"},
    {"core.checker_build_s", "s"},
    {"core.check_level_s", "s"},
    {"core.checkall_s", "s"},
    {"core.checker_build_s_4t", "s"},
    {"core.check_level_s_4t", "s"},
    {"core.checkall_s_4t", "s"},
    {"core.check_s_4t", "s"},
    {"checker.conflicts_us", "us"},
    {"checker.conflicts_us_4t", "us"},
    {"checker.dsg_build_us", "us"},
    {"checker.dsg_build_us_4t", "us"},
    {"checker.cycle_search_us", "us"},
    {"checker.cycle_search_us_4t", "us"},
    {"checker.phenomenon_us", "us"},
    {"checker.phenomenon_us_4t", "us"},
    {"checker.witness_us", "us"},
    {"checker.witness_us_4t", "us"},
    {"checker.phenomenon.ssg_build_us", "us"},
    {"checker.phenomenon.ssg_build_us_4t", "us"},
    {"checker.phenomenon.gsib_us", "us"},
    {"checker.phenomenon.gsib_us_4t", "us"},
    {"graph.dsg_nodes", "count"},
    {"graph.dsg_edges", "count"},
    {"pool.cpu_per_wall_4t", "ratio"},
    {"serve.batch_p50_us", "us"},
    {"serve.batch_p99_us", "us"},
    {"serve.certify_us", "us"},
    {"serve.reply_us", "us"},
    {"serve.client_residual_us", "us"},
    {"serve.first_tenth_us", "us"},
    {"serve.last_tenth_us", "us"},
    {"checker.delta_edges", "count"},
    {"serve.busy_retries", "count"},
};

template <size_t N>
std::vector<Metric> Collect(const Report& report, const MetricSpec (&specs)[N],
                            bool required) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    auto it = report.values.find(spec.name);
    if (it == report.values.end() && required) continue;
    out.push_back({spec.name, it == report.values.end() ? 0 : it->second,
                   spec.unit});
  }
  return out;
}

std::string JsonLine(const Report& report, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void PrintLines(const char* section, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-11s %-36s %s %s\n", section, m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload audit-engine|audit-elle|serve-stream "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

bool ParseUint(std::string_view text, uint64_t* out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace
}  // namespace adya::perfbench

int main(int argc, char** argv) {
  using namespace adya::perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    std::string_view value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = std::string(value);
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      Usage(argv[0]);
    }
  }

  adya::ingest::RegisterElleFormats();
  Report report;
  if (args.workload == "audit-engine") {
    RunAuditEngine(args, report);
  } else if (args.workload == "audit-elle") {
    RunAuditElle(args, report);
  } else if (args.workload == "serve-stream") {
    RunServeStream(args, report);
  } else {
    Usage(argv[0]);
  }

  std::vector<Metric> end_to_end = Collect(report, kEndToEnd, true);
  if (end_to_end.size() != std::size(kEndToEnd)) {
    // A workload that stopped early (its input failed to load) has no
    // figures to report.
    std::fprintf(stderr, "perfbench: %s produced no result\n",
                 args.workload.c_str());
    return 1;
  }
  std::printf("workload    %s seed=%llu seconds=%g trace=%d cores=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  PrintLines("note", report.notes);
  // A traced run's end-to-end figures carry the cost of tracing: they are
  // printed for comparison with an untraced run, not reported.
  PrintLines(args.trace ? "traced" : "end-to-end", end_to_end);
  std::vector<Metric> per_layer;
  if (args.trace) {
    per_layer = Collect(report, kPerLayer, false);
    PrintLines("per-layer", per_layer);
  }
  std::printf("operations  attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  std::printf("%s\n",
              JsonLine(report, args.trace ? per_layer : end_to_end).c_str());
  return 0;
}
