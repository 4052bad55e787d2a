// serve-stream: an in-process serve::Server on a Unix socket with 4
// workers, and 4 clients. A session streams one engine-recorded PL-SI
// history (the audit-engine generator at a smaller size): OPEN at PL-SI,
// then 64-event batches through Client::Certify, each sent when the
// previous verdict arrived (the declarations ride in the first batch),
// then CLOSE.
//
// The run is made of rounds until its time is up, and of at least 12. In a
// round the 4 clients each stream one session concurrently, client i taking
// history i, i+4 or i+8 of the 12 in turn; then one history is audited
// offline (LoadHistory plus the checks at 1 and 4 threads, as the audit
// workloads do) as a cross-check of the streamed verdicts, the audits going
// round all 12, so that every run's audit figures cover all 12 histories.

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/stats.h"
#include "perfbench/checks.h"
#include "perfbench/engine_input.h"
#include "perfbench/report.h"
#include "serve/client.h"
#include "serve/server.h"

namespace adya::perfbench {
namespace {

/// Concurrent sessions (one client each) and server workers.
constexpr int kSessions = 4;
/// Different-seed histories per run; setup_s is the median of their
/// set-ups.
constexpr int kHistories = 12;
constexpr int kSessionTxns = 2000;
constexpr size_t kEventsPerBatch = 64;

/// Commit events among events [begin, end) of `h`.
uint64_t CountCommits(const History& h, size_t begin, size_t end) {
  uint64_t commits = 0;
  for (size_t i = begin; i < end; ++i) {
    if (h.events()[i].type == EventType::kCommit) ++commits;
  }
  return commits;
}

/// One client's batches, and the counts each verdict must carry (made from
/// the history slice the batch was cut from).
struct SessionPlan {
  std::vector<std::string> batches;
  std::vector<uint64_t> want_events, want_commits;
};

SessionPlan MakePlan(const EngineInput& input) {
  SessionPlan plan;
  const size_t events = input.history.events().size();
  for (size_t b = 0; b < input.batches.size(); ++b) {
    plan.batches.push_back(b == 0 ? input.decls + input.batches[0]
                                  : input.batches[b]);
    size_t begin = b * input.events_per_batch;
    size_t end = std::min(begin + input.events_per_batch, events);
    plan.want_events.push_back(end - begin);
    plan.want_commits.push_back(CountCommits(input.history, begin, end));
  }
  return plan;
}

/// What one client saw over the run.
struct SessionLog {
  std::vector<double> latency_us;
  double first_tenth_us = 0;
  double last_tenth_us = 0;
  uint64_t tenth_samples = 0;
  uint64_t events = 0;
  uint64_t sessions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t busy_retries = 0;
  std::vector<std::string> errors;
};

/// Streams one whole session of `plan`.
void RunSession(const std::string& socket_path, const SessionPlan& plan,
                SessionLog& log) {
  Result<serve::Client> client = serve::Client::ConnectUnix(socket_path);
  if (!client.ok()) {
    log.errors.push_back("connect: " + client.status().ToString());
    return;
  }
  Status status = client->Handshake();
  if (status.ok()) status = client->Open(IsolationLevel::kPLSI).status();
  if (!status.ok()) {
    log.errors.push_back("open: " + status.ToString());
    return;
  }
  const size_t batches = plan.batches.size();
  const size_t tenth = std::max<size_t>(1, batches / 10);
  for (size_t b = 0; b < batches; ++b) {
    ++log.attempted;
    Clock::time_point start = Clock::now();
    Result<serve::BatchReply> reply = client->Certify(plan.batches[b]);
    double us = SecondsSince(start) * 1e6;
    if (!reply.ok()) {
      ++log.failed;
      log.errors.push_back("certify: " + reply.status().ToString());
      return;
    }
    log.latency_us.push_back(us);
    if (b < tenth) log.first_tenth_us += us;
    if (b >= batches - tenth) log.last_tenth_us += us;
    log.events += reply->events;
    if (reply->events != plan.want_events[b] ||
        reply->commits != plan.want_commits[b]) {
      log.errors.push_back(
          "batch " + std::to_string(b) + ": verdict counts events=" +
          std::to_string(reply->events) + " commits=" +
          std::to_string(reply->commits) + ", sent " +
          std::to_string(plan.want_events[b]) + "/" +
          std::to_string(plan.want_commits[b]));
    }
    if (!reply->fresh.empty()) {
      log.errors.push_back("witness at PL-SI: " +
                           reply->fresh.front().phenomenon + " " +
                           reply->fresh.front().description);
    }
  }
  log.tenth_samples += tenth;
  log.busy_retries += client->busy_retries();
  Result<std::string> closed = client->CloseSession();
  if (!closed.ok()) {
    log.errors.push_back("close: " + closed.status().ToString());
    return;
  }
  ++log.sessions;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

}  // namespace

void RunServeStream(const RunArgs& args, Report& report) {
  std::vector<double> setup_s, run_s, render_s;
  std::vector<EngineInput> inputs;
  for (int k = 0; k < kHistories; ++k) {
    Clock::time_point start = Clock::now();
    inputs.push_back(MakeEngineInput(args.seed * kHistories + k, kSessionTxns,
                                     kEventsPerBatch));
    setup_s.push_back(SecondsSince(start));
    run_s.push_back(inputs.back().run_s);
    render_s.push_back(inputs.back().render_s);
  }
  std::vector<SessionPlan> plans;
  std::vector<std::string> texts;  // the whole stream, for the offline audit
  for (const EngineInput& input : inputs) {
    plans.push_back(MakePlan(input));
    std::string text = input.decls;
    for (const std::string& batch : input.batches) text += batch;
    texts.push_back(std::move(text));
  }

  obs::StatsRegistry serve_stats;
  serve::ServeOptions options;
  options.port = -1;
  // Relative, so the socket lives in the working directory and its path
  // stays inside the sun_path limit.
  options.unix_path = ".perfbench-" + std::to_string(::getpid()) + ".sock";
  options.workers = kSessions;
  options.stats = args.trace ? &serve_stats : nullptr;
  serve::Server server(options);
  Status started = server.Start();
  if (!started.ok()) {
    report.Fail("server start: " + started.ToString());
    return;
  }

  ThreadPool pool(kPoolThreads);
  std::vector<SessionLog> logs(kSessions);
  std::vector<InputSeries> audits(kHistories);
  std::vector<double> events_per_s;
  uint64_t rounds = 0;
  Clock::time_point run_start = Clock::now();
  do {
    uint64_t events_before = 0;
    for (const SessionLog& log : logs) events_before += log.events;
    Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> clients;
      for (int i = 0; i < kSessions; ++i) {
        const size_t history =
            i + kSessions * (rounds % (kHistories / kSessions));
        clients.emplace_back(RunSession, std::cref(options.unix_path),
                             std::cref(plans[history]), std::ref(logs[i]));
      }
      for (std::thread& t : clients) t.join();
    }
    double stream_s = SecondsSince(start);
    uint64_t events = 0;
    for (const SessionLog& log : logs) events += log.events;
    events_per_s.push_back(static_cast<double>(events - events_before) /
                           stream_s);

    // Offline cross-check: the whole-history checker must find the
    // streamed history PL-SI too, and load the same events.
    const size_t k = rounds % kHistories;
    std::optional<AuditRound> audit =
        RunAuditRound(texts[k], "adya", IsolationLevel::kPLSI, pool,
                      args.trace, audits[k], report);
    if (!audit) break;
    report.Expect(audit->serial.satisfied,
                  "offline audit of a streamed history fails PL-SI");
    report.Expect(audit->loaded.history.events().size() ==
                      inputs[k].history.events().size(),
                  "the stream text loads a different event count");
    ++rounds;
  } while (SecondsSince(run_start) < args.seconds || rounds < kHistories);
  server.Shutdown();

  std::vector<double> latency_us;
  double first_tenth = 0, last_tenth = 0;
  uint64_t tenth_samples = 0, sessions = 0, busy = 0;
  for (const SessionLog& log : logs) {
    for (const std::string& error : log.errors) report.Fail(error);
    latency_us.insert(latency_us.end(), log.latency_us.begin(),
                      log.latency_us.end());
    first_tenth += log.first_tenth_us;
    last_tenth += log.last_tenth_us;
    tenth_samples += log.tenth_samples;
    sessions += log.sessions;
    busy += log.busy_retries;
    report.attempted += log.attempted;
    report.failed += log.failed;
  }
  report.Expect(sessions == rounds * kSessions,
                "a session did not run to its end");

  report.Set("setup_s", Median(setup_s));
  SetAuditEndToEnd(audits, report);
  report.Set("events_per_s", Median(events_per_s));
  report.Set("peak_rss_mb", PeakRssMb());
  report.Note("rounds", static_cast<double>(rounds), "count");
  report.Note("batches", static_cast<double>(latency_us.size()), "count");
  report.Note("batch_p50_ms", Quantile(latency_us, 0.5) / 1000, "ms");
  report.Note("batch_p99_ms", Quantile(latency_us, 0.99) / 1000, "ms");

  report.Set("engine.run_s", Median(run_s));
  std::vector<double> commits;
  for (const EngineInput& input : inputs) {
    commits.push_back(input.stats.committed);
  }
  report.Set("engine.commits", Median(commits));
  report.Set("history.render_s", Median(render_s));
  if (!args.trace) return;

  SetAuditLayers(audits, report);
  report.Set("serve.batch_p50_us", Quantile(latency_us, 0.5));
  report.Set("serve.batch_p99_us", Quantile(latency_us, 0.99));
  auto mean_us = [&](const char* name) {
    const obs::Histogram& h = serve_stats.histogram(name);
    return h.count() == 0 ? 0.0
                          : static_cast<double>(h.sum()) /
                                static_cast<double>(h.count());
  };
  report.Set("serve.certify_us", mean_us("serve.certify_us"));
  report.Set("serve.reply_us", mean_us("serve.reply_us"));
  report.Set("serve.client_residual_us",
             Mean(latency_us) - mean_us("serve.certify_us"));
  if (tenth_samples > 0) {
    report.Set("serve.first_tenth_us",
               first_tenth / static_cast<double>(tenth_samples));
    report.Set("serve.last_tenth_us",
               last_tenth / static_cast<double>(tenth_samples));
  }
  if (sessions > 0) {
    report.Set("checker.delta_edges",
               static_cast<double>(
                   serve_stats.histogram("checker.delta_edges").sum()) /
                   static_cast<double>(sessions));
  }
  report.Set("serve.busy_retries", static_cast<double>(busy));
}

}  // namespace adya::perfbench
