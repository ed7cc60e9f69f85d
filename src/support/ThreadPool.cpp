//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace spvfuzz;

ThreadPool::ThreadPool(size_t WorkerCount) {
  if (WorkerCount == 0)
    WorkerCount = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(WorkerCount);
  for (size_t I = 0; I < WorkerCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::enqueue(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    // A job is a packaged_task wrapper: it never throws (exceptions land in
    // the associated future).
    Job();
  }
}
