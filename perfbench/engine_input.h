#ifndef ADYA_PERFBENCH_ENGINE_INPUT_H_
#define ADYA_PERFBENCH_ENGINE_INPUT_H_

// The engine-recorded input shared by audit-engine and serve-stream: a
// seeded single-threaded workload on a non-blocking multiversion database
// at PL-SI, with the default operation mix (predicate reads included),
// rendered for streaming.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "history/history.h"
#include "workload/workload.h"

namespace adya::perfbench {

struct EngineInput {
  History history;
  workload::WorkloadStats stats;
  /// FormatForStream output: declarations, then the event batches.
  std::string decls;
  std::vector<std::string> batches;
  size_t events_per_batch = 0;
  /// Time in RunWorkload plus the recorded-history snapshot.
  double run_s = 0;
  /// Time in FormatForStream.
  double render_s = 0;
};

/// `events_per_batch` 0 renders the whole history as one batch.
EngineInput MakeEngineInput(uint64_t seed, int txns, size_t events_per_batch);

}  // namespace adya::perfbench

#endif  // ADYA_PERFBENCH_ENGINE_INPUT_H_
