// Integration tests for mutual speculation across two processes:
// Figure 6 (PRECEDENCE published, commit cascades through the chain) and
// Figure 7 (crossing speculative sends close the cycle x1 -> z1 -> x1; both
// processes abort their guesses, roll back, and re-execute).
#include <gtest/gtest.h>

#include "core/workloads.h"

namespace ocsp {
namespace {

core::MutualParams base_params(bool crossing) {
  core::MutualParams p;
  p.crossing = crossing;
  p.net.latency = sim::microseconds(100);
  p.service_time = sim::microseconds(10);
  return p;
}

TEST(MutualIntegration, Fig6PrecedenceThenCommitCascade) {
  auto scenario = core::mutual_scenario(base_params(false));
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  // Z's guess depended on X's; it could only commit via PRECEDENCE + the
  // COMMIT(x1) cascade.
  EXPECT_GE(result.stats.precedence_sent, 1u) << result.stats.to_string();
  EXPECT_EQ(result.stats.total_aborts(), 0u) << result.stats.to_string();
  EXPECT_EQ(result.stats.commits, 2u);
}

TEST(MutualIntegration, Fig6TraceMatchesPessimistic) {
  auto scenario = core::mutual_scenario(base_params(false));
  auto pessimistic = baseline::run_scenario(scenario, false);
  auto optimistic = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(pessimistic.all_completed);
  ASSERT_TRUE(optimistic.all_completed);
  std::string why;
  EXPECT_TRUE(
      trace::compare_traces(pessimistic.trace, optimistic.trace, &why))
      << why << "\npessimistic:\n"
      << pessimistic.trace.to_string() << "optimistic:\n"
      << optimistic.trace.to_string();
}

TEST(MutualIntegration, Fig7CycleAbortsBothGuesses) {
  auto scenario = core::mutual_scenario(base_params(true));
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed) << result.stats.to_string();
  // The causal cycle is a time fault; both clients must abort and the run
  // must still converge.
  EXPECT_GE(result.stats.aborts_time_fault, 1u) << result.stats.to_string();
  EXPECT_GE(result.stats.rollbacks, 1u);
}

TEST(MutualIntegration, Fig7ConvergesToValidSequentialOutcome) {
  // The two clients are independent, so several interleavings are legal
  // sequentially; the optimistic run must produce internally consistent
  // results: each client prints the box value its Take observed.
  auto scenario = core::mutual_scenario(base_params(true));
  auto result = baseline::run_scenario(scenario, true);
  ASSERT_TRUE(result.all_completed);
  int prints = 0;
  for (ProcessId id : {ProcessId{0}, ProcessId{1}}) {
    for (const auto& e : result.trace.for_process(id)) {
      if (e.kind == trace::ObservableEvent::Kind::kExternalOutput) ++prints;
    }
  }
  EXPECT_EQ(prints, 2);
}

TEST(MutualIntegration, Fig7PessimisticHasNoAborts) {
  auto scenario = core::mutual_scenario(base_params(true));
  auto result = baseline::run_scenario(scenario, false);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.stats.total_aborts(), 0u);
  EXPECT_EQ(result.stats.rollbacks, 0u);
}

}  // namespace
}  // namespace ocsp
