#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace exthash {

/// One parallelFor call's shared state. The caller and its helpers claim
/// indices from `next`; whoever finishes the last index wakes the caller.
/// Helpers hold the job by shared_ptr, so one the pool dequeues after the
/// call returned still reads a live cursor, finds it exhausted, and never
/// dereferences `fn` (which then dangles).
struct ThreadPool::ForJob {
  ForJob(std::size_t first, std::size_t count,
         const std::function<void(std::size_t)>& body)
      : begin(first), n(count), fn(&body), failed_index(count) {}

  /// Claim and run indices until none is left.
  void run() EXTHASH_EXCLUDES(mutex);
  /// Block until all n indices have finished; rethrow the exception of
  /// the lowest failing index, if any.
  void wait() EXTHASH_EXCLUDES(mutex);

  const std::size_t begin;
  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};  // next unclaimed offset from begin
  util::Mutex mutex;
  util::CondVar all_done;
  std::size_t done EXTHASH_GUARDED_BY(mutex) = 0;
  std::size_t failed_index EXTHASH_GUARDED_BY(mutex);  // n: none failed
  std::exception_ptr error EXTHASH_GUARDED_BY(mutex);
};

void ThreadPool::ForJob::run() {
  for (std::size_t i = next++; i < n; i = next++) {
    std::exception_ptr thrown;
    try {
      (*fn)(begin + i);
    } catch (...) {
      thrown = std::current_exception();
    }
    util::MutexLock lock(mutex);
    if (thrown && i < failed_index) {
      error = std::move(thrown);
      failed_index = i;
    }
    if (++done == n) all_done.notify_all();
  }
}

void ThreadPool::ForJob::wait() {
  util::MutexLock lock(mutex);
  while (done < n) all_done.wait(lock);
  if (error) std::rethrow_exception(error);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      util::MutexLock lock(mutex_);
      --active_;
      if (active_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

std::size_t ThreadPool::pendingTasks() const {
  util::MutexLock lock(mutex_);
  return queue_.size() + active_;
}

void ThreadPool::waitIdle() {
  util::MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) idle_cv_.wait(lock);
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const auto job = std::make_shared<ForJob>(begin, end - begin, fn);
  const std::size_t helpers = std::min(threadCount(), job->n - 1);
  {
    util::MutexLock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([job] { job->run(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job->run();
  job->wait();
}

}  // namespace exthash
