#include "inference/min_cost_flow.h"

#include <gtest/gtest.h>

namespace webtab {
namespace {

TEST(MinCostFlowTest, SimplePath) {
  MinCostFlow flow(3);
  int e01 = flow.AddEdge(0, 1, 5, 1.0);
  int e12 = flow.AddEdge(1, 2, 5, 2.0);
  auto sol = flow.Solve(0, 2, 4);
  EXPECT_EQ(sol.flow, 4);
  EXPECT_NEAR(sol.cost, 4 * 3.0, 1e-9);
  EXPECT_EQ(flow.FlowOn(e01), 4);
  EXPECT_EQ(flow.FlowOn(e12), 4);
}

TEST(MinCostFlowTest, PrefersCheaperPath) {
  //  0 --(cost 1)--> 1 --(cost 0)--> 2
  //  0 ---------(cost 5)-----------> 2
  MinCostFlow flow(3);
  int cheap = flow.AddEdge(0, 1, 1, 1.0);
  int direct = flow.AddEdge(0, 2, 1, 5.0);
  flow.AddEdge(1, 2, 1, 0.0);
  auto sol = flow.Solve(0, 2, 1);
  EXPECT_EQ(sol.flow, 1);
  EXPECT_NEAR(sol.cost, 1.0, 1e-9);
  EXPECT_EQ(flow.FlowOn(cheap), 1);
  EXPECT_EQ(flow.FlowOn(direct), 0);
}

TEST(MinCostFlowTest, SplitsAcrossPathsWhenSaturated) {
  MinCostFlow flow(3);
  flow.AddEdge(0, 1, 1, 1.0);
  flow.AddEdge(1, 2, 1, 0.0);
  flow.AddEdge(0, 2, 1, 5.0);
  auto sol = flow.Solve(0, 2, 2);
  EXPECT_EQ(sol.flow, 2);
  EXPECT_NEAR(sol.cost, 6.0, 1e-9);
}

TEST(MinCostFlowTest, CapacityLimitsFlow) {
  MinCostFlow flow(2);
  flow.AddEdge(0, 1, 3, 1.0);
  auto sol = flow.Solve(0, 1, 10);
  EXPECT_EQ(sol.flow, 3);
}

TEST(MinCostFlowTest, DisconnectedGivesZeroFlow) {
  MinCostFlow flow(4);
  flow.AddEdge(0, 1, 1, 1.0);
  flow.AddEdge(2, 3, 1, 1.0);
  auto sol = flow.Solve(0, 3, 5);
  EXPECT_EQ(sol.flow, 0);
  EXPECT_NEAR(sol.cost, 0.0, 1e-12);
}

TEST(MinCostFlowTest, NegativeCostsHandled) {
  // Assignment-problem-like graph with negative costs (max score).
  MinCostFlow flow(4);
  int good = flow.AddEdge(0, 1, 1, -5.0);
  flow.AddEdge(0, 2, 1, -1.0);
  flow.AddEdge(1, 3, 1, 0.0);
  flow.AddEdge(2, 3, 1, 0.0);
  auto sol = flow.Solve(0, 3, 1);
  EXPECT_EQ(sol.flow, 1);
  EXPECT_NEAR(sol.cost, -5.0, 1e-9);
  EXPECT_EQ(flow.FlowOn(good), 1);
}

TEST(MinCostFlowTest, BipartiteAssignmentOptimal) {
  // Workers {A,B} to tasks {X,Y}: A-X=1, A-Y=3, B-X=2, B-Y=1.
  // Optimal: A-X + B-Y = 2.
  // Nodes: 0=s, 1=A, 2=B, 3=X, 4=Y, 5=t.
  MinCostFlow flow(6);
  flow.AddEdge(0, 1, 1, 0);
  flow.AddEdge(0, 2, 1, 0);
  int ax = flow.AddEdge(1, 3, 1, 1);
  flow.AddEdge(1, 4, 1, 3);
  flow.AddEdge(2, 3, 1, 2);
  int by = flow.AddEdge(2, 4, 1, 1);
  flow.AddEdge(3, 5, 1, 0);
  flow.AddEdge(4, 5, 1, 0);
  auto sol = flow.Solve(0, 5, 2);
  EXPECT_EQ(sol.flow, 2);
  EXPECT_NEAR(sol.cost, 2.0, 1e-9);
  EXPECT_EQ(flow.FlowOn(ax), 1);
  EXPECT_EQ(flow.FlowOn(by), 1);
}

TEST(MinCostFlowDeathTest, BadNodeAborts) {
  MinCostFlow flow(2);
  EXPECT_DEATH(flow.AddEdge(0, 7, 1, 0.0), "Check failed");
}

}  // namespace
}  // namespace webtab
