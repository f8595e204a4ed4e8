#include "obs/merge.h"

namespace ocsp::obs {

std::shared_ptr<RunRecorder> merge_recorders(
    const std::vector<const RunRecorder*>& parts) {
  auto merged = std::make_shared<RunRecorder>();
  // Detail ids are per recorder: map each part's table into the merged
  // one once, then rewrite ids by lookup.
  std::vector<std::vector<std::uint32_t>> remap(parts.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i]->events().size();
    remap[i].resize(parts[i]->string_count() + 1, 0);
    for (std::uint32_t id = 1; id < remap[i].size(); ++id) {
      remap[i][id] = merged->intern(parts[i]->string(id));
    }
  }
  merged->reserve(total);
  std::vector<std::size_t> next(parts.size(), 0);
  for (;;) {
    std::size_t best = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (next[i] >= parts[i]->events().size()) continue;
      // Strict < keeps the lowest part index on same-time ties.
      if (best == parts.size() ||
          parts[i]->events()[next[i]].when <
              parts[best]->events()[next[best]].when) {
        best = i;
      }
    }
    if (best == parts.size()) break;
    Event e = parts[best]->events()[next[best]++];
    e.detail = remap[best][e.detail];
    merged->record(e);
  }
  return merged;
}

}  // namespace ocsp::obs
