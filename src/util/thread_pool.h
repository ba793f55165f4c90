// Fixed-size thread pool used to run independent benchmark sweep points in
// parallel, to fan a sharded batch out over its shards (the sharded
// façade, tables/sharded_table.h), and to back the ingest pipeline's
// background apply worker. Each benchmark sweep point owns its own
// simulated device and RNG seed, so points are embarrassingly parallel and
// results stay deterministic; a single-thread pool doubles as a FIFO
// serial executor (tasks run in submission order), which is what the
// pipeline relies on.
//
// Locking discipline (compiler-verified, see util/thread_annotations.h):
// mutex_ guards the queue, the active-task count, and the stop flag;
// every public method acquires it internally, so the pool is safe to use
// from any number of submitter threads concurrently with its workers.
// A parallelFor job's own mutex guards its done count and its error.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace exthash {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports its result (or exception).
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>>
      EXTHASH_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      util::MutexLock lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) once for each i in [begin, end). The calling thread runs
  /// indices itself, claiming them from one shared cursor beside at most
  /// min(threadCount(), end - begin - 1) helper tasks it posts to the
  /// pool, so it never waits for a busy pool to start a task, and the
  /// call uses at most threadCount() + 1 threads. Returns once every index has finished;
  /// if any threw, rethrows the exception of the lowest failing index.
  /// A helper the pool dequeues after the call returned finds no index
  /// left and never calls fn.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);

  /// Tasks not yet finished: queued plus currently executing. A snapshot —
  /// by the time the caller looks, more tasks may have been submitted or
  /// completed.
  std::size_t pendingTasks() const EXTHASH_EXCLUDES(mutex_);

  /// Block until the queue is empty and no task is executing. Tasks
  /// submitted by other threads while waiting extend the wait.
  void waitIdle() EXTHASH_EXCLUDES(mutex_);

 private:
  struct ForJob;

  void workerLoop() EXTHASH_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ EXTHASH_GUARDED_BY(mutex_);
  std::size_t active_ EXTHASH_GUARDED_BY(mutex_) = 0;  // executing tasks
  bool stop_ EXTHASH_GUARDED_BY(mutex_) = false;
};

}  // namespace exthash
