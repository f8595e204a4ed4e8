#include "baseline/scenario.h"

namespace ocsp::baseline {

void Scenario::add(std::string name, csp::StmtPtr program, csp::Env env,
                   csp::CommDecls commute) {
  processes.push_back(ScenarioProcess{std::move(name), std::move(program),
                                      std::move(env), std::move(commute)});
}

std::unique_ptr<spec::Runtime> make_runtime(const Scenario& scenario,
                                            bool speculation) {
  spec::RuntimeOptions options = scenario.options;
  options.spec.speculation_enabled = speculation;
  auto rt = std::make_unique<spec::Runtime>(options);
  for (const auto& p : scenario.processes) {
    rt->add_process(p.name, p.program, p.env);
  }
  for (const auto& link : scenario.links) {
    rt->network().set_link(rt->find(link.src), rt->find(link.dst),
                           link.config);
  }
  return rt;
}

RunResult run_scenario(const Scenario& scenario, bool speculation,
                       sim::Time deadline) {
  auto rt = make_runtime(scenario, speculation);
  RunResult result;
  result.finished_at = rt->run(deadline);
  result.last_completion = rt->last_completion_time();
  result.all_completed = rt->all_clients_completed();
  result.stalled = rt->scheduler().empty() && !result.all_completed;
  result.stats = rt->total_stats();
  result.trace = rt->committed_trace();
  result.network = rt->network().stats();
  result.metrics = rt->metrics();
  result.recorder = rt->shared_recorder();
  result.process_names = rt->process_names();
  return result;
}

}  // namespace ocsp::baseline
