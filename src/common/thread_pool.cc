#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace dgf {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ProcessPool() {
  static ThreadPool pool(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u)));
  return pool;
}

namespace {

/// One ParallelFor's shared state. Helpers hold it by shared_ptr, so one the
/// pool starts after the loop returned still finds it alive; it then claims
/// no index and never touches `fn`, which lives on the caller's stack.
struct ForLoop {
  ForLoop(size_t n, const std::function<void(size_t)>* fn) : n(n), fn(fn) {}

  /// Claims and runs indices until none is left unclaimed.
  void Work() {
    size_t ran = 0;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      (*fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == n) all_done.notify_all();
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;  // guarded by mu
};

}  // namespace

void ParallelFor(size_t n, int max_threads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (max_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ProcessPool();
  const size_t helpers =
      std::min({n - 1, static_cast<size_t>(max_threads) - 1,
                static_cast<size_t>(pool.num_threads())});
  auto loop = std::make_shared<ForLoop>(n, &fn);
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([loop] { loop->Work(); });
  }
  loop->Work();
  // Every index is claimed: wait for those still running on helpers.
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->all_done.wait(lock, [&] { return loop->done == loop->n; });
}

void ConnectionThreads::Start(std::function<void()> handler) {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_);
    const uint64_t id = next_id_++;
    // The new thread cannot look itself up before this emplace: its exit
    // path below takes mu_ first.
    live_.emplace(id, std::thread([this, id, handler = std::move(handler)] {
      handler();
      // A thread cannot join itself: hand the handle to the next joiner.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = live_.find(id);
      if (it == live_.end()) return;  // JoinAll already holds the handle
      finished_.push_back(std::move(it->second));
      live_.erase(it);
    }));
  }
  for (std::thread& thread : finished) thread.join();
}

void ConnectionThreads::JoinAll() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(finished_);
    for (auto& [id, thread] : live_) threads.push_back(std::move(thread));
    live_.clear();
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace dgf
