#include "speculation/process_table.h"

#include <algorithm>

#include "csp/expr.h"
#include "util/check.h"

namespace ocsp::spec {

namespace {

bool is_server(const csp::StmtPtr& program) {
  if (program == nullptr || program->kind != csp::StmtKind::kWhile) {
    return false;
  }
  const auto* cond = dynamic_cast<const csp::ConstExpr*>(
      static_cast<const csp::WhileStmt&>(*program).cond.get());
  return cond != nullptr && cond->value().truthy();
}

}  // namespace

ProcessTable::ProcessTable(std::uint64_t seed, SpecConfig spec)
    : rng_(seed), net_stream_(rng_.split()), spec_(spec) {}

ProcessId ProcessTable::add_process(std::string name, csp::StmtPtr program,
                                    csp::Env initial_env,
                                    std::optional<SpecConfig> spec_override) {
  OCSP_CHECK_MSG(!started_, "add_process after run() started");
  OCSP_CHECK_MSG(names_.count(name) == 0, "duplicate process name");
  const ProcessId id = static_cast<ProcessId>(processes_.size());
  Host& host = host_for(id);
  const bool server = is_server(program);
  auto owned = std::make_unique<SpeculativeProcess>(
      host, *this, id, name, std::move(program), std::move(initial_env),
      spec_override.value_or(spec_), rng_.split());
  SpeculativeProcess* p = owned.get();
  processes_.push_back(Entry{std::move(owned), server});
  names_.emplace(std::move(name), id);
  // Receive slots go through the host's transport: incarnation tags out on
  // frames, peer incarnations observed on arrival.
  host.transport().register_endpoint(
      id, [p](const net::Envelope& env) { p->on_message(env); },
      [p]() { return p->incarnation_tag(); },
      [p](ProcessId src, net::IncarnationTag tag) {
        p->observe_peer_incarnation(src, tag.incarnation, tag.start_index);
      });
  return id;
}

void ProcessTable::start(const fault::FaultPlan& plan) {
  OCSP_CHECK_MSG(!started_, "processes already started");
  started_ = true;
  for (auto& e : processes_) e.process->start();
  if (!plan.enabled) return;
  // Crash and restart events live in the victim's host queue at their plan
  // times, inserted after the starts.
  for (const auto& c : plan.crashes) {
    OCSP_CHECK_MSG(c.process < processes_.size(),
                   "crash event for unknown process");
    OCSP_CHECK_MSG(c.restart_at > c.at, "crash restart precedes crash");
    sim::Scheduler& sched = host_for(c.process).scheduler();
    sched.at(c.at, [this, c]() { crash_process(c.process); });
    sched.at(c.restart_at, [this, c]() { restart_process(c.process); });
  }
}

void ProcessTable::crash_process(ProcessId id) {
  SpeculativeProcess& p = process(id);
  host_for(id).transport().set_down(id, true);
  p.crash();
}

void ProcessTable::restart_process(ProcessId id) {
  SpeculativeProcess& p = process(id);
  p.restart();
  host_for(id).transport().set_down(id, false);
}

SpeculativeProcess& ProcessTable::process(ProcessId id) {
  OCSP_CHECK(id < processes_.size());
  return *processes_[id].process;
}

const SpeculativeProcess& ProcessTable::process(ProcessId id) const {
  OCSP_CHECK(id < processes_.size());
  return *processes_[id].process;
}

ProcessId ProcessTable::find(const std::string& name) const {
  auto it = names_.find(name);
  OCSP_CHECK_MSG(it != names_.end(), ("unknown process: " + name).c_str());
  return it->second;
}

std::vector<ProcessId> ProcessTable::all_process_ids() const {
  std::vector<ProcessId> out;
  out.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    out.push_back(static_cast<ProcessId>(i));
  }
  return out;
}

std::vector<std::string> ProcessTable::process_names() const {
  std::vector<std::string> names;
  names.reserve(processes_.size());
  for (const auto& e : processes_) names.push_back(e.process->name());
  return names;
}

trace::CommittedTrace ProcessTable::committed_trace() const {
  trace::CommittedTrace trace;
  for (const auto& e : processes_) {
    for (const auto& ev : e.process->committed_events()) trace.append(ev);
  }
  return trace;
}

SpecStats ProcessTable::total_stats() const {
  SpecStats total;
  for (const auto& e : processes_) total.merge(e.process->stats());
  return total;
}

obs::MetricsRegistry ProcessTable::process_metrics(ProcessId id) const {
  return process(id).metrics_view();
}

obs::MetricsRegistry ProcessTable::merged_process_metrics() const {
  obs::MetricsRegistry m;
  for (const auto& e : processes_) m.merge(e.process->metrics_view());
  // Gauges are derived, not merged: recompute from the merged counters.
  const std::uint64_t verified = m.counter_or("guesses_verified");
  const std::uint64_t failed = m.counter_or("guesses_failed");
  if (verified + failed > 0) {
    m.gauge("guess_accuracy") = static_cast<double>(verified) /
                                static_cast<double>(verified + failed);
  }
  obs::update_sharing_ratio_gauge(m);
  return m;
}

sim::Time ProcessTable::last_completion_time() const {
  sim::Time latest = 0;
  for (const auto& e : processes_) {
    if (e.process->completed()) {
      latest = std::max(latest, e.process->completion_time());
    }
  }
  return latest;
}

bool ProcessTable::all_clients_completed() const {
  bool any = false;
  for (const auto& e : processes_) {
    if (e.server) continue;
    if (!e.process->completed()) return false;
    any = true;
  }
  return any;
}

}  // namespace ocsp::spec
