// ocsp_prof: run a canonical workload and print its causal profile.
//
// The profile answers three questions the raw counters cannot:
//   - where did the virtual time go?  (exact partition: useful / wasted /
//     rollback / verify / stall, per process and globally)
//   - what bounds the speedup?  (critical path of the committed run)
//   - which fork site pays for the aborts?  (per-site scorecards with the
//     cascade walked back to the originating mis-guess)
//
// Usage:
//   ocsp_prof [--workload=fig5|safe_fanout|putline|pipeline|dbfs|mutual
//                         |commute_registry|storm|chaos|parallel]
//             [--pessimistic] [--scale=N] [--seed=N] [--workers=N]
//             [--json[=path]]
//
// `storm` runs the abort-storm workload with the adaptive governor enabled
// (per-site scorecards show the demote/promote cycles); `chaos` runs
// putline under a seeded fault plan with the reliable transport on, so the
// liveness counters (faults injected, retransmissions, duplicates
// suppressed, crashes) are populated; `parallel` runs the compute-fanout
// workload on exec::ParallelRuntime with --workers threads — the profile is
// built from the shards' merged recorder.
//
// Default output is the human-readable report; --json emits one
// ocsp-prof-v1 document (to stdout, or to the given path).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "exec/parallel.h"
#include "fault/plan.h"
#include "obs/attribution.h"
#include "obs/prof_json.h"
#include "obs/profile.h"

namespace {

struct Options {
  std::string workload = "fig5";
  bool speculation = true;
  bool json = false;
  std::string json_path;
  int scale = 1;
  std::uint64_t seed = 42;
  int workers = 4;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=fig5|safe_fanout|putline|pipeline|dbfs|mutual|commute_registry|storm|chaos|parallel]"
      " [--pessimistic] [--scale=N] [--seed=N] [--workers=N] [--json[=path]]\n",
      argv0);
  return 2;
}

ocsp::baseline::Scenario make_scenario(const Options& o) {
  using namespace ocsp;
  if (o.workload == "fig5") {
    core::WriteThroughParams p;
    p.force_fault = true;
    p.transactions = o.scale;
    p.net.latency = sim::microseconds(200);
    p.seed = o.seed;
    return core::write_through_scenario(p);
  }
  if (o.workload == "safe_fanout") {
    core::SafeFanoutParams p;
    p.servers = 4 * o.scale;
    p.net.latency = sim::microseconds(300);
    p.seed = o.seed;
    return core::safe_fanout_scenario(p);
  }
  if (o.workload == "putline") {
    core::PutLineParams p;
    p.lines = 8 * o.scale;
    p.seed = o.seed;
    return core::putline_scenario(p);
  }
  if (o.workload == "pipeline") {
    core::PipelineParams p;
    p.calls = 8 * o.scale;
    p.seed = o.seed;
    return core::pipeline_scenario(p);
  }
  if (o.workload == "dbfs") {
    core::DbFsParams p;
    p.transactions = 4 * o.scale;
    p.seed = o.seed;
    return core::db_fs_scenario(p);
  }
  if (o.workload == "commute_registry") {
    core::CommuteRegistryParams p;
    p.clients = 2 * o.scale;
    p.net.latency = sim::microseconds(300);
    p.seed = o.seed;
    return core::commute_registry_scenario(p);
  }
  if (o.workload == "mutual") {
    core::MutualParams p;
    p.crossing = true;
    p.seed = o.seed;
    return core::mutual_scenario(p);
  }
  if (o.workload == "storm") {
    core::AbortStormParams p;
    p.calls = 30 * o.scale;
    p.seed = o.seed;
    p.spec.governor_enabled = true;
    return core::abort_storm_scenario(p);
  }
  if (o.workload == "chaos") {
    core::PutLineParams p;
    p.lines = 8 * o.scale;
    p.seed = o.seed;
    p.spec.control_retry = true;
    auto scenario = core::putline_scenario(p);
    scenario.options.reliable.enabled = true;
    scenario.options.fault_plan =
        fault::make_chaos_plan(o.seed, {}, /*num_processes=*/2);
    return scenario;
  }
  std::fprintf(stderr, "ocsp_prof: unknown workload '%s'\n",
               o.workload.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      opts.workload = v;
    } else if (arg == "--pessimistic") {
      opts.speculation = false;
    } else if (const char* v2 = val("--scale=")) {
      opts.scale = std::atoi(v2);
      if (opts.scale < 1) opts.scale = 1;
    } else if (const char* v3 = val("--seed=")) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(v3));
    } else if (const char* v5 = val("--workers=")) {
      opts.workers = std::atoi(v5);
      if (opts.workers < 1) opts.workers = 1;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (const char* v4 = val("--json=")) {
      opts.json = true;
      opts.json_path = v4;
    } else {
      return usage(argv[0]);
    }
  }

  ocsp::baseline::RunResult result;
  if (opts.workload == "parallel") {
    // Compute-fanout on the sharded executor, profiled from the merged
    // shard recorders.
    ocsp::core::ComputeFanoutParams p;
    p.pairs = 4 * opts.scale;
    p.miss_period = 4;
    p.seed = opts.seed;
    auto par = ocsp::exec::run_scenario_parallel(
        ocsp::core::compute_fanout_scenario(p), opts.workers,
        opts.speculation, /*compute_scale=*/2.0, ocsp::sim::kTimeNever,
        /*compute_sleep=*/true);
    result = std::move(par.result);
  } else {
    auto scenario = make_scenario(opts);
    result = ocsp::baseline::run_scenario(scenario, opts.speculation);
  }
  if (!result.recorder) {
    std::fprintf(stderr, "ocsp_prof: run produced no event recorder\n");
    return 1;
  }

  const auto profile =
      ocsp::obs::build_profile(*result.recorder, result.process_names);
  const auto attribution =
      ocsp::obs::build_attribution(*result.recorder, result.process_names);

  if (opts.json) {
    const std::string doc = ocsp::obs::prof_json(profile, attribution);
    if (opts.json_path.empty()) {
      std::printf("%s\n", doc.c_str());
    } else {
      std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "ocsp_prof: cannot write %s\n",
                     opts.json_path.c_str());
        return 1;
      }
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("ocsp_prof: wrote %s\n", opts.json_path.c_str());
    }
    return 0;
  }

  std::printf("workload %s (%s, scale %d, seed %llu",
              opts.workload.c_str(),
              opts.speculation ? "optimistic" : "pessimistic", opts.scale,
              static_cast<unsigned long long>(opts.seed));
  if (opts.workload == "parallel") std::printf(", workers %d", opts.workers);
  std::printf(")\n\n");
  std::printf("%s\n", ocsp::obs::profile_table(profile).c_str());
  std::printf("%s", ocsp::obs::attribution_table(attribution).c_str());
  return 0;
}
