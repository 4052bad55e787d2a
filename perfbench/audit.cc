// The two offline-audit workloads. Each run sets up several histories from
// seeds derived from --seed, audits the first once untimed as a warm-up,
// then makes passes over them until the run's time is up (the last pass
// ends within half a pass of it); a pass audits every input once, in
// order. Auditing one input is one round: its text is loaded through
// LoadHistory, then checked through the Checker facade without a pool and
// on a 4-thread pool.
//
//   audit-engine  engine-recorded multiversion histories, native notation,
//                 checked at PL-SI (predicate reads, SSG, start order);
//   audit-elle    generated item-only histories, exported as Elle
//                 list-append EDN, checked at PL-3 (ingest layer, no SSG).
//
// A metric is the mean over the inputs of each input's median over its
// rounds. Check cost varies with a history's shape (where its cycles lie)
// far more than with its size, so a run averages many modest inputs rather
// than timing one large one.

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checker_api.h"
#include "core/dsg.h"
#include "history/format.h"
#include "history/source.h"
#include "ingest/elle.h"
#include "obs/stats.h"
#include "perfbench/checks.h"
#include "perfbench/engine_input.h"
#include "perfbench/report.h"
#include "workload/workload.h"

namespace adya::perfbench {
namespace {

// Different-seed inputs per run (setup_s is the median of their set-ups)
// and their sizes, chosen so that a 25-second run makes 2-4 passes.
constexpr int kEngineInputs = 12;
constexpr int kEngineTxns = 2000;
constexpr int kElleInputs = 8;
constexpr int kElleTxns = 10000;

/// One input of an audit workload, made by its set-up.
struct AuditInput {
  std::string text;
  double setup_s = 0;
};

struct AuditSpec {
  std::string format;
  IsolationLevel level = IsolationLevel::kPL3;
  std::vector<AuditInput> inputs;
  /// The workload's own checks of a round of input `k`.
  std::function<void(size_t k, const History&, const CheckRun& serial)> verify;
  /// The workload's own untimed operation, once per round.
  std::function<void(size_t k)> extra_op;
};

/// Runs whole passes until the run's time is up and fills the metrics.
void RunAudit(const RunArgs& args, const AuditSpec& spec, ThreadPool& pool,
              Report& report) {
  const size_t n = spec.inputs.size();
  std::vector<InputSeries> series(n);
  std::vector<double> dsg_nodes(n), dsg_edges(n);
  int passes = 0;
  double pass_s = 0;
  {
    // Warm-up: one whole round of the first input (its extra operation
    // too, so the share of failed operations stays fixed), timings
    // discarded, so the first timed round does not pay for growing the
    // heap.
    InputSeries warm_up;
    std::optional<AuditRound> round =
        RunAuditRound(spec.inputs[0].text, spec.format, spec.level, pool,
                      /*trace=*/false, warm_up, report);
    if (!round) return;
    spec.verify(0, round->loaded.history, round->serial);
    if (spec.extra_op) spec.extra_op(0);
  }
  Clock::time_point run_start = Clock::now();
  do {
    Clock::time_point pass_start = Clock::now();
    for (size_t k = 0; k < n; ++k) {
      std::optional<AuditRound> round =
          RunAuditRound(spec.inputs[k].text, spec.format, spec.level, pool,
                        args.trace, series[k], report);
      if (!round) return;
      const History& h = round->loaded.history;
      spec.verify(k, h, round->serial);
      if (args.trace && passes == 0) {
        Dsg dsg(h);
        dsg_nodes[k] = static_cast<double>(dsg.node_count());
        dsg_edges[k] = static_cast<double>(dsg.graph().edge_count());
      }
      if (spec.extra_op) spec.extra_op(k);
    }
    ++passes;
    pass_s = SecondsSince(pass_start);
  } while (SecondsSince(run_start) + pass_s / 2 < args.seconds);

  std::vector<double> setup_s;
  double input_bytes = 0;
  for (const AuditInput& input : spec.inputs) {
    setup_s.push_back(input.setup_s);
    input_bytes += static_cast<double>(input.text.size()) / n;
  }
  report.Set("setup_s", Median(setup_s));
  SetAuditEndToEnd(series, report);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Note("inputs", static_cast<double>(n), "count");
  report.Note("passes", passes, "count");
  report.Note("history.events", series[0].events, "count");
  if (!args.trace) return;

  SetAuditLayers(series, report);
  double input_mb = input_bytes / (1024.0 * 1024.0);
  report.Set("history.input_mb", input_mb);
  report.Set("history.load_mb_per_s", input_mb / report.values["load_s"]);
  double nodes = 0, edges = 0;
  for (size_t k = 0; k < n; ++k) {
    nodes += dsg_nodes[k] / n;
    edges += dsg_edges[k] / n;
  }
  report.Set("graph.dsg_nodes", nodes);
  report.Set("graph.dsg_edges", edges);
}

}  // namespace

void RunAuditEngine(const RunArgs& args, Report& report) {
  AuditSpec spec;
  spec.format = "adya";
  spec.level = IsolationLevel::kPLSI;
  std::vector<double> run_s, render_s;
  std::vector<size_t> committed;
  std::vector<std::string> native;
  for (int k = 0; k < kEngineInputs; ++k) {
    Clock::time_point start = Clock::now();
    EngineInput input = MakeEngineInput(args.seed * kEngineInputs + k,
                                        kEngineTxns, /*per_batch=*/0);
    AuditInput audit;
    audit.text = input.decls;
    for (const std::string& batch : input.batches) audit.text += batch;
    audit.setup_s = SecondsSince(start);
    spec.inputs.push_back(std::move(audit));
    run_s.push_back(input.run_s);
    render_s.push_back(input.render_s);
    committed.push_back(static_cast<size_t>(input.stats.committed));
    // Untimed: the native rendering the known-fault operation parses.
    native.push_back(FormatHistory(input.history));
  }

  spec.verify = [&](size_t k, const History& h, const CheckRun& check) {
    report.Expect(check.satisfied,
                  "the multiversion engine's history fails PL-SI");
    report.Expect(h.CommittedTransactions().size() == committed[k],
                  "loaded committed-txn count " +
                      std::to_string(h.CommittedTransactions().size()) +
                      " != the engine's " + std::to_string(committed[k]));
  };
  // The known fault, once per round and untimed: FormatHistory renders the
  // engine's predicates as "pred P1 on R: ...", and the parser reads "P1"
  // as a name plus a transaction id, so the text does not load back.
  spec.extra_op = [&](size_t k) {
    ++report.attempted;
    Result<LoadedHistory> back = LoadHistory(native[k], "adya");
    if (!back.ok()) {
      ++report.failed;
      return;
    }
    report.Expect(back->history.CommittedTransactions().size() == committed[k],
                  "the native round trip changed the committed-txn count");
  };
  ThreadPool pool(kPoolThreads);
  RunAudit(args, spec, pool, report);
  report.Set("engine.run_s", Median(run_s));
  report.Set("engine.commits",
             Median(std::vector<double>(committed.begin(), committed.end())));
  report.Set("history.render_s", Median(render_s));
}

namespace {

/// Naive G1a/G1b presence, from the raw events alone: a committed reader of
/// a version whose writer aborted (G1a), or of a version that is not its
/// writer's final modification of the object (G1b).
void ScanDirtyReads(const History& h, bool* g1a, bool* g1b) {
  std::map<TxnId, bool> committed;  // txn -> committed (false = aborted)
  std::map<std::pair<TxnId, ObjectId>, uint32_t> final_seq;
  for (const Event& e : h.events()) {
    if (e.type == EventType::kCommit) committed[e.txn] = true;
    if (e.type == EventType::kAbort) committed[e.txn] = false;
    if (e.type == EventType::kWrite) {
      uint32_t& seq = final_seq[{e.txn, e.version.object}];
      seq = std::max(seq, e.version.seq);
    }
  }
  *g1a = *g1b = false;
  for (const Event& e : h.events()) {
    if (e.type != EventType::kRead || e.version.is_init() ||
        e.version.writer == e.txn || !committed[e.txn]) {
      continue;
    }
    auto writer = committed.find(e.version.writer);
    if (writer != committed.end() && !writer->second) *g1a = true;
    if (e.version.seq < final_seq[{e.version.writer, e.version.object}]) {
      *g1b = true;
    }
  }
}

/// What the generated history says, for comparison with the loaded one.
struct ElleExpectation {
  std::string level_text;
  bool g1a = false;
  bool g1b = false;
};

}  // namespace

void RunAuditElle(const RunArgs& args, Report& report) {
  AuditSpec spec;
  spec.format = "elle-append";
  spec.level = IsolationLevel::kPL3;
  ThreadPool pool(kPoolThreads);
  std::vector<double> finalize_s, finalize_4t_s, export_s;
  std::vector<ElleExpectation> expected;
  for (int k = 0; k < kElleInputs; ++k) {
    workload::RandomHistoryOptions options;
    options.seed = args.seed * kElleInputs + k;
    options.num_txns = kElleTxns;
    options.num_objects = kElleTxns / 2 + 1;
    options.ops_per_txn = 5;
    options.random_version_order_prob = 0.3;
    options.finalize = false;

    Clock::time_point start = Clock::now();
    History generated = workload::GenerateRandomHistory(options);
    Clock::time_point phase = Clock::now();
    Status finalized = generated.Finalize();
    finalize_s.push_back(SecondsSince(phase));
    if (!finalized.ok()) {
      report.Fail("Finalize of a generated history: " + finalized.ToString());
      return;
    }
    phase = Clock::now();
    Result<std::string> edn = ingest::ExportElleAppend(generated);
    export_s.push_back(SecondsSince(phase));
    if (!edn.ok()) {
      report.Fail("ExportElleAppend: " + edn.status().ToString());
      return;
    }
    AuditInput audit;
    audit.text = std::move(*edn);
    audit.setup_s = SecondsSince(start);
    spec.inputs.push_back(std::move(audit));

    ElleExpectation want;
    ScanDirtyReads(generated, &want.g1a, &want.g1b);
    want.level_text =
        TimedCheck(generated, spec.level, &pool, nullptr).level_text;
    expected.push_back(std::move(want));
    if (args.trace) {
      // The pooled Finalize, timed on a fresh unfinalized copy.
      History copy = workload::GenerateRandomHistory(options);
      History::FinalizeOptions pooled;
      pooled.pool = &pool;
      phase = Clock::now();
      report.Expect(copy.Finalize(pooled).ok(), "pooled Finalize failed");
      finalize_4t_s.push_back(SecondsSince(phase));
    }
  }

  spec.verify = [&](size_t k, const History&, const CheckRun& check) {
    const ElleExpectation& want = expected[k];
    report.Expect(check.level_text == want.level_text,
                  "loaded verdicts differ from the generated history's:\n" +
                      check.level_text + "vs generated\n" + want.level_text);
    auto found = [&check](Phenomenon p) {
      return std::find(check.found.begin(), check.found.end(), p) !=
             check.found.end();
    };
    report.Expect(found(Phenomenon::kG1a) == want.g1a,
                  "G1a presence differs from the naive scan");
    report.Expect(found(Phenomenon::kG1b) == want.g1b,
                  "G1b presence differs from the naive scan");
  };
  RunAudit(args, spec, pool, report);
  report.Set("ingest.export_s", Median(export_s));
  report.Set("history.finalize_s", Median(finalize_s));
  report.Set("history.finalize_4t_s", Median(finalize_4t_s));
}

}  // namespace adya::perfbench
