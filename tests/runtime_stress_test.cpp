// Stress test for the pool's fork/join lifetime contract: a TaskGroup (and
// the one parallel_for keeps on its stack) may be destroyed the moment
// wait() returns, so no worker may touch the group after its last task
// reports completion. Each case runs more than 10^5 tiny fork/joins —
// flat, nested, and throwing — at several pool widths; a violation shows
// up as a crash, a hang, or (under ASan/TSan) a use-after-scope report.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace hsd::runtime {
namespace {

constexpr std::size_t kForkJoins = 100000;

class RuntimeStress : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_threads(GetParam()); }
  void TearDown() override { set_global_threads(1); }
};

TEST_P(RuntimeStress, StackGroupsSurviveImmediateDestruction) {
  // Every parallel_for joins a TaskGroup that dies on return, so the last
  // finishing worker races the group's destructor once per iteration.
  std::atomic<std::size_t> blocks{0};
  for (std::size_t i = 0; i < kForkJoins; ++i) {
    parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
      blocks.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(blocks.load(std::memory_order_relaxed), 2 * kForkJoins);
}

TEST_P(RuntimeStress, NestedGroupsJoinInsideWorkers) {
  // Inner groups are forked and joined from pool workers while the outer
  // group is still pending: the helping-wait path under churn.
  constexpr std::size_t kInner = 2;
  constexpr std::size_t kOuter = kForkJoins / (1 + kInner);
  std::atomic<std::size_t> leaves{0};
  for (std::size_t i = 0; i < kOuter; ++i) {
    TaskGroup outer;
    for (std::size_t t = 0; t < kInner; ++t) {
      outer.run([&leaves] {
        TaskGroup inner;
        inner.run([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
        inner.wait();
      });
    }
    outer.wait();
  }
  EXPECT_EQ(leaves.load(std::memory_order_relaxed), kOuter * kInner);
}

TEST_P(RuntimeStress, ThrowingGroupsRethrowAndStayReusable) {
  // Half the fork/joins throw from one block; each must surface exactly
  // once at the join, and the pool must keep serving the clean half.
  std::size_t caught = 0;
  std::atomic<std::size_t> clean{0};
  for (std::size_t i = 0; i < kForkJoins; ++i) {
    const bool throws = i % 2 == 0;
    try {
      parallel_for(0, 2, 1, [&](std::size_t b, std::size_t) {
        if (throws && b == 1) throw std::runtime_error("block failed");
        if (!throws) clean.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, kForkJoins / 2);
  EXPECT_EQ(clean.load(std::memory_order_relaxed), kForkJoins);
}

INSTANTIATE_TEST_SUITE_P(Threads, RuntimeStress, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hsd::runtime
