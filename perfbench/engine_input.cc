#include "perfbench/engine_input.h"

#include <cstdio>
#include <cstdlib>

#include "engine/database.h"
#include "perfbench/report.h"
#include "serve/stream_text.h"

namespace adya::perfbench {

EngineInput MakeEngineInput(uint64_t seed, int txns, size_t events_per_batch) {
  EngineInput out;
  Clock::time_point start = Clock::now();
  std::unique_ptr<engine::Database> db = engine::Database::Create(
      engine::Scheme::kMultiversion, engine::Database::Options{});
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_txns = txns;
  options.num_keys = 64;
  options.max_active = 8;
  options.levels = {IsolationLevel::kPLSI};
  // Room for every transaction to finish on its own: the safety valve's
  // forced aborts would make the mix depend on the step budget.
  options.max_steps = txns * 100;
  out.stats = workload::RunWorkload(*db, options);
  Result<History> recorded = db->RecordedHistory();
  if (!recorded.ok()) {
    std::fprintf(stderr, "perfbench: recorded history: %s\n",
                 recorded.status().ToString().c_str());
    std::exit(1);
  }
  out.history = std::move(*recorded);
  out.run_s = SecondsSince(start);

  start = Clock::now();
  out.events_per_batch =
      events_per_batch == 0 ? out.history.events().size() : events_per_batch;
  serve::StreamText text =
      serve::FormatForStream(out.history, out.events_per_batch);
  out.decls = std::move(text.decls);
  out.batches = std::move(text.batches);
  out.render_s = SecondsSince(start);
  return out;
}

}  // namespace adya::perfbench
