// Merging per-shard RunRecorder streams into one run-wide event log.
//
// The parallel executor gives every shard its own recorder so workers never
// contend on a shared sink; exporters and the profiler want one stream.
#pragma once

#include <memory>
#include <vector>

#include "obs/recorder.h"

namespace ocsp::obs {

/// K-way stable merge of per-part event streams by (when, part index):
/// virtual-time order first, part index for same-time ties, and each part's
/// own recording order within equal keys.  Every part must already be
/// when-monotone (true of any recorder fed by one deterministic scheduler).
/// Events are copied verbatim but for their detail ids, and the profiler
/// runs on the merged log exactly as on a sequential run's.
std::shared_ptr<RunRecorder> merge_recorders(
    const std::vector<const RunRecorder*>& parts);

}  // namespace ocsp::obs
