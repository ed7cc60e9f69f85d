//===- tests/ThreadPoolTest.cpp - Worker-pool unit tests ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support/ThreadPool: results come back in submission
/// order via futures, exceptions propagate through future::get, and the
/// destructor runs every queued job.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

using namespace spvfuzz;

namespace {

TEST(ThreadPool, ResultsComeBackInSubmissionOrder) {
  ThreadPool Pool(4);
  std::vector<std::future<size_t>> Futures;
  for (size_t I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([I] {
      if (I % 7 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return I * I;
    }));
  for (size_t I = 0; I < Futures.size(); ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(2);
  std::future<int> Ok = Pool.submit([] { return 7; });
  std::future<int> Bad = Pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(Pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, ZeroWorkersFallsBackToHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.workerCount(), 1u);
  EXPECT_EQ(Pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, DestructorDrainsOutstandingJobs) {
  std::atomic<size_t> Done{0};
  {
    ThreadPool Pool(1);
    for (size_t I = 0; I < 16; ++I)
      Pool.submit([&Done] { ++Done; });
  }
  EXPECT_EQ(Done.load(), 16u);
}

} // namespace
