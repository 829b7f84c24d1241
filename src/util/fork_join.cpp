#include "util/fork_join.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pioblast::util {

namespace {

/// True while this thread runs a body, and for the whole life of a pool
/// thread: parallel_for then runs inline.
thread_local bool t_inline = false;

/// One parallel_for call. Lives on the caller's stack; `next`, `finished`
/// and `error` are guarded by Pool::mu_.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t next = 0;      ///< next unclaimed index
  std::size_t finished = 0;  ///< indices whose body has returned or thrown
  std::exception_ptr error;  ///< the first body exception
};

/// Runs body(i) with nested calls inlined; returns what it threw.
std::exception_ptr run_body(const std::function<void(std::size_t)>& body,
                            std::size_t i) {
  const bool outer = t_inline;
  t_inline = true;
  std::exception_ptr error;
  try {
    body(i);
  } catch (...) {
    error = std::current_exception();
  }
  t_inline = outer;
  return error;
}

class Pool {
 public:
  explicit Pool(unsigned nthreads) {
    threads_.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
      threads_.emplace_back([this] { work(); });
  }
  ~Pool() {
    {
      const std::lock_guard lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  bool empty() const { return threads_.empty(); }

  /// Publishes `job`, works on its indices until all are claimed, then
  /// waits until every claimed index has finished.
  void run(Job& job) {
    std::unique_lock lock(mu_);
    queue_.push_back(&job);
    work_cv_.notify_all();
    while (job.next < job.n) run_next(lock, job);
    done_cv_.wait(lock, [&] { return job.finished == job.n; });
  }

 private:
  /// Claims and runs the next index of `job`, which must have one left.
  /// `lock` holds mu_ on entry and on return, but not while the body runs.
  void run_next(std::unique_lock<std::mutex>& lock, Job& job) {
    const std::size_t i = job.next++;
    if (job.next == job.n)
      queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
    lock.unlock();
    std::exception_ptr error = run_body(*job.body, i);
    lock.lock();
    if (error && !job.error) job.error = std::move(error);
    if (++job.finished == job.n) done_cv_.notify_all();
  }

  void work() {
    t_inline = true;
    std::unique_lock lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      run_next(lock, *queue_.front());
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a job was queued, or stop_ was set
  std::condition_variable done_cv_;  ///< some job's last index finished
  std::deque<Job*> queue_;           ///< jobs with unclaimed indices
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Pool& pool() {
  static Pool instance(std::max(std::thread::hardware_concurrency(), 1u) - 1);
  return instance;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  Job job;
  job.body = &body;
  job.n = n;
  if (n == 1 || t_inline || pool().empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      std::exception_ptr error = run_body(body, i);
      if (error && !job.error) job.error = std::move(error);
    }
  } else {
    pool().run(job);
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace pioblast::util
