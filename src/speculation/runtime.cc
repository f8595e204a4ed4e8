#include "speculation/runtime.h"

namespace ocsp::spec {

Runtime::Runtime(RuntimeOptions options)
    : ProcessTable(options.seed, options.spec),
      Host(net_stream(), options.default_link, options.per_link_net,
           options.fault_plan, options.reliable),
      fault_plan_(std::move(options.fault_plan)) {}

sim::Time Runtime::run(sim::Time deadline) {
  if (!started()) start(fault_plan_);
  if (deadline == sim::kTimeNever) {
    scheduler().run();
  } else {
    scheduler().run_until(deadline);
  }
  return scheduler().now();
}

obs::MetricsRegistry Runtime::metrics() const {
  obs::MetricsRegistry m = merged_process_metrics();
  add_counters(m);
  return m;
}

}  // namespace ocsp::spec
