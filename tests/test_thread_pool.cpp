#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace exthash {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(0, 10,
                       [](std::size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

// The caller claims indices beside the pool instead of waiting on it: with
// the pool's only worker parked, the call still finishes, on the caller.
TEST(ThreadPool, ParallelForRunsOnTheCallingThread) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::promise<void> parked;
  pool.submit([opened = gate.get_future(), &parked]() mutable {
    parked.set_value();
    opened.wait();
  });
  parked.get_future().wait();

  int runs[8] = {};
  std::thread::id ran_on[8];
  std::promise<void> returned;
  std::future<void> returned_future = returned.get_future();
  std::thread caller([&] {
    pool.parallelFor(0, 8, [&](std::size_t i) {
      ++runs[i];
      ran_on[i] = std::this_thread::get_id();
    });
    returned.set_value();
  });
  const bool in_time = returned_future.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  gate.set_value();  // let a pool-only fan-out finish too before joining
  const std::thread::id caller_id = caller.get_id();
  caller.join();
  EXPECT_TRUE(in_time) << "parallelFor waited for the parked worker";
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(runs[i], 1) << "index " << i;
    EXPECT_EQ(ran_on[i], caller_id) << "index " << i;
  }
}

struct SlowLowError {};
struct FastHighError {};

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 8;
  std::atomic<int> runs[kN] = {};
  std::atomic<bool> finished[kN] = {};
  bool all_finished_at_return = false;
  auto body = [&](std::size_t i) {
    runs[i].fetch_add(1);
    if (i == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished[i] = true;
      throw SlowLowError{};
    }
    finished[i] = true;
    if (i == 6) throw FastHighError{};
  };
  auto allFinished = [&] {
    for (const auto& f : finished) {
      if (!f.load()) return false;
    }
    return true;
  };
  EXPECT_THROW(
      {
        try {
          pool.parallelFor(0, kN, body);
        } catch (...) {
          all_finished_at_return = allFinished();
          throw;
        }
      },
      SlowLowError);
  EXPECT_TRUE(all_finished_at_return);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

// Each call's state lives on its caller's stack; a helper that touched a
// returned call's state would show as a TSAN race or an ASan error.
TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  constexpr int kCalls = 500;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &wrong] {
      for (int call = 0; call < kCalls; ++call) {
        int hits[4] = {};
        pool.parallelFor(0, 4, [&hits](std::size_t i) { ++hits[i]; });
        for (const int h : hits) {
          if (h != 1) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, SubmitExceptionViaFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilAllTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      done.fetch_add(1);
    });
  }
  pool.waitIdle();
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPool, PendingTasksCountsQueuedAndRunning) {
  ThreadPool pool(1);
  std::mutex gate;
  gate.lock();
  pool.submit([&gate] { std::lock_guard hold(gate); });
  pool.submit([] {});
  // One task is parked on the gate, one is queued behind it.
  EXPECT_EQ(pool.pendingTasks(), 2u);
  gate.unlock();
  pool.waitIdle();
  EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPool, SingleThreadPoolRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // the pipeline's ordering contract
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 500; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 500u * 501u / 2u);
}

}  // namespace
}  // namespace exthash
