#include "common/thread_pool.h"

#include <algorithm>

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

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
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
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
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
