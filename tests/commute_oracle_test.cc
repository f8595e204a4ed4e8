// Differential oracle for commit-on-commute verification (Theorem 1 under
// the relaxed verifier): every run of the commute registry — pessimistic,
// optimistic with exact verification, optimistic with commute verification
// — must agree on each client's committed observable sequence, with
// registry reply payloads compared by truthiness (the clients only branch
// on them; the exact totals are interleaving-dependent between runs by
// design).  The runtime's fork-time use-class oracle must never fire on
// annotations the static analysis produced, and must drop (and count)
// hand-planted unsound ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/workloads.h"
#include "csp/service.h"

namespace ocsp {
namespace {

using csp::Value;

/// Registry reply payloads compared by truthiness (see file comment).
trace::CommittedTrace project_registry_replies(const trace::CommittedTrace& t,
                                               ProcessId registry) {
  trace::CommittedTrace out;
  for (ProcessId p : t.processes()) {
    for (trace::ObservableEvent ev : t.for_process(p)) {
      if (ev.kind == trace::ObservableEvent::Kind::kCallReturn &&
          ev.peer == registry) {
        ev.data = Value(ev.data.truthy());
      }
      out.append(std::move(ev));
    }
  }
  return out;
}

core::CommuteRegistryParams contended(int clients, std::uint64_t seed) {
  core::CommuteRegistryParams p;
  p.clients = clients;
  p.iterations = 5;
  p.seed = seed;
  // Derive a little topology variation from the seed so the sweep explores
  // different arrival interleavings, not just different RNG streams.
  p.net.latency = sim::microseconds(200 + 100 * (seed % 4));
  p.client_skew = sim::microseconds(50 * (seed % 5));
  return p;
}

void expect_clients_agree(const baseline::RunResult& pess,
                          const baseline::RunResult& opt, int clients,
                          const std::string& label) {
  const ProcessId registry = static_cast<ProcessId>(clients);
  const trace::CommittedTrace a =
      project_registry_replies(pess.trace, registry);
  const trace::CommittedTrace b =
      project_registry_replies(opt.trace, registry);
  for (int c = 0; c < clients; ++c) {
    std::string why;
    EXPECT_TRUE(
        trace::compare_process_trace(a, b, static_cast<ProcessId>(c), &why))
        << label << " client " << c << ": " << why;
  }
}

TEST(CommuteOracle, SingleClientAllModesFullTraceEquality) {
  // One client: no contention, so even the Stamp totals are deterministic
  // and the *unprojected* whole-system traces must match across all three
  // execution modes.
  for (bool commute : {false, true}) {
    core::CommuteRegistryParams p = contended(1, 3);
    p.spec.commute_verification = commute;
    auto pess = baseline::run_scenario(core::commute_registry_scenario(p),
                                       false);
    auto opt = baseline::run_scenario(core::commute_registry_scenario(p),
                                      true);
    ASSERT_TRUE(pess.all_completed);
    ASSERT_TRUE(opt.all_completed);
    std::string why;
    EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why))
        << (commute ? "commute: " : "exact: ") << why;
    EXPECT_EQ(opt.stats.commute_oracle_violations, 0u);
  }
}

TEST(CommuteOracle, ContendedForgivenessMatchesSequentialReplay) {
  core::CommuteRegistryParams p = contended(3, 42);
  auto pess =
      baseline::run_scenario(core::commute_registry_scenario(p), false);

  p.spec.commute_verification = false;
  auto exact =
      baseline::run_scenario(core::commute_registry_scenario(p), true);
  p.spec.commute_verification = true;
  auto commute =
      baseline::run_scenario(core::commute_registry_scenario(p), true);

  ASSERT_TRUE(pess.all_completed && exact.all_completed &&
              commute.all_completed);
  expect_clients_agree(pess, exact, p.clients, "exact");
  expect_clients_agree(pess, commute, p.clients, "commute");

  // The relaxation must actually fire, and only ever at joins whose
  // verification would otherwise abort.
  EXPECT_EQ(exact.stats.commute_commits, 0u);
  EXPECT_GT(commute.stats.commute_commits, 0u);
  EXPECT_GE(commute.stats.commute_forgiven_vars,
            commute.stats.commute_commits);
  EXPECT_LT(commute.stats.total_aborts(), exact.stats.total_aborts());
  EXPECT_EQ(exact.stats.commute_oracle_violations, 0u);
  EXPECT_EQ(commute.stats.commute_oracle_violations, 0u);
}

TEST(CommuteOracle, AbelianVariantSafeUpgradesKeepFullClientTraces) {
  core::CommuteRegistryParams p = contended(3, 7);
  p.mutate_ops = false;
  p.spec.safe_site_oracle = false;  // exercise the elided fast path
  auto pess =
      baseline::run_scenario(core::commute_registry_scenario(p), false);
  auto opt =
      baseline::run_scenario(core::commute_registry_scenario(p), true);
  ASSERT_TRUE(pess.all_completed && opt.all_completed);
  // Only abelian ops in play: every client's full (unprojected) committed
  // sequence is identical, and the streamed forks ran on the SAFE path.
  for (int c = 0; c < p.clients; ++c) {
    std::string why;
    EXPECT_TRUE(trace::compare_process_trace(pess.trace, opt.trace,
                                             static_cast<ProcessId>(c),
                                             &why))
        << "client " << c << ": " << why;
  }
  EXPECT_GT(opt.stats.safe_forks, 0u);
  EXPECT_EQ(opt.stats.total_aborts(), 0u);
  EXPECT_EQ(opt.stats.commute_oracle_violations, 0u);
}

TEST(CommuteOracle, RandomizedSweepNeverDiverges) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (int clients : {2, 3}) {
      core::CommuteRegistryParams p = contended(clients, seed);
      auto pess = baseline::run_scenario(core::commute_registry_scenario(p),
                                         false);
      auto commute = baseline::run_scenario(
          core::commute_registry_scenario(p), true);
      ASSERT_TRUE(pess.all_completed && commute.all_completed)
          << "seed " << seed << " clients " << clients;
      expect_clients_agree(pess, commute, clients,
                           "seed " + std::to_string(seed) + "/clients " +
                               std::to_string(clients));
      EXPECT_EQ(commute.stats.commute_oracle_violations, 0u)
          << "seed " << seed;
      EXPECT_GT(commute.stats.commute_commits, 0u) << "seed " << seed;
    }
  }
}

TEST(CommuteOracle, RuntimeOracleDropsUnsoundAnnotation) {
  // Hand-plant a verify=dead annotation on a variable the right thread
  // prints: the fork-time use-class oracle must reject it, count the
  // violation, and fall back to exact verification — so the wrong guess
  // aborts and the committed output still matches the sequential run.
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("v", csp::PredictorSpec::always(Value(99)));
  auto f = csp::fork(csp::call("S", "Echo", {csp::lit(Value(7))}, "v"),
                     csp::print(csp::var("v")), {"v"}, preds, "bogus");
  auto nf = std::make_shared<csp::ForkStmt>(*f);
  nf->verify["v"] = csp::VerifyMode::kDead;  // unsound: v is printed

  baseline::Scenario scenario;
  scenario.options.spec.commute_oracle = true;  // force on (Release too)
  scenario.add("X", nf);
  scenario.add("S", csp::echo_service(Value(7), sim::microseconds(10)));

  baseline::Scenario sequential = scenario;
  auto pess = baseline::run_scenario(sequential, false);
  auto opt = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pess.all_completed && opt.all_completed);
  EXPECT_EQ(opt.stats.commute_oracle_violations, 1u);
  EXPECT_EQ(opt.stats.commute_commits, 0u);
  EXPECT_GT(opt.stats.aborts_value_fault, 0u);  // exact verification kept
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

TEST(CommuteOracle, RuntimeOracleSeesThePostForkContinuation) {
  // The right BRANCH never touches v, but the continuation after the fork
  // prints it — and the continuation runs on the right thread's machine,
  // where a forgiven commit would leave the guessed value.  The oracle
  // must therefore validate over the thread's full remaining program
  // (Machine::pending_stmts), not the branch alone, and reject the forged
  // verify=dead annotation.
  std::map<std::string, csp::PredictorSpec> preds;
  preds.emplace("v", csp::PredictorSpec::always(Value(99)));
  auto f = csp::fork(csp::call("S", "Echo", {csp::lit(Value(7))}, "v"),
                     csp::compute(sim::microseconds(5)), {"v"}, preds,
                     "bogus");
  auto nf = std::make_shared<csp::ForkStmt>(*f);
  nf->verify["v"] = csp::VerifyMode::kDead;  // true of the branch alone
  auto program = csp::seq({nf, csp::print(csp::var("v"))});

  baseline::Scenario scenario;
  scenario.options.spec.commute_oracle = true;  // force on (Release too)
  scenario.add("X", program);
  scenario.add("S", csp::echo_service(Value(7), sim::microseconds(10)));

  baseline::Scenario sequential = scenario;
  auto pess = baseline::run_scenario(sequential, false);
  auto opt = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pess.all_completed && opt.all_completed);
  EXPECT_EQ(opt.stats.commute_oracle_violations, 1u);
  EXPECT_EQ(opt.stats.commute_commits, 0u);
  EXPECT_GT(opt.stats.aborts_value_fault, 0u);  // exact verification kept
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
}

}  // namespace
}  // namespace ocsp
