//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool used by the campaign engine to fan out a
/// wave's per-test jobs and reductions (and by triage to fan out
/// attributions).
/// Design points that matter for deterministic campaigns:
///
///  - submit() returns a std::future, so callers aggregate results in
///    *submission* order regardless of completion order — the mechanism by
///    which an N-thread campaign is bit-identical to a serial one.
///  - Exceptions thrown by a job are captured in its future and rethrown
///    from get() on the aggregating thread; they never kill a worker.
///  - The destructor drains the queue: all submitted jobs execute before
///    the workers join, so no future is ever abandoned mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_THREADPOOL_H
#define SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace spvfuzz {

class ThreadPool {
public:
  /// Spawns \p Workers worker threads; 0 means one per hardware thread.
  explicit ThreadPool(size_t Workers = 0);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every queued job to completion, then joins the workers.
  ~ThreadPool();

  size_t workerCount() const { return Workers.size(); }

  /// Enqueues \p Job and returns a future for its result. The future
  /// observes the job's return value or its thrown exception.
  template <typename Fn>
  auto submit(Fn &&Job) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    // packaged_task is move-only; std::function requires copyable callables,
    // so the task rides in a shared_ptr.
    auto Task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(Job));
    std::future<Result> Future = Task->get_future();
    enqueue([Task]() { (*Task)(); });
    return Future;
  }

private:
  void enqueue(std::function<void()> Job);
  void workerLoop();

  std::vector<std::thread> Workers;
  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
};

} // namespace spvfuzz

#endif // SUPPORT_THREADPOOL_H
