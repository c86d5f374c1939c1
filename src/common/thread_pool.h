/**
 * @file
 * Work-stealing thread pool of the sweep executor (one job per sweep
 * cell).
 *
 * Each worker owns a deque; submissions are distributed round-robin.
 * A worker pops from the back of its own deque (LIFO, cache-friendly)
 * and, when empty, steals from the front of a sibling's deque (FIFO,
 * oldest work first). Deques share one mutex — sweep cells are
 * milliseconds-to-seconds of simulation each, so scheduling cost is
 * irrelevant next to run cost and the coarse lock keeps the pool
 * trivially race-free (see
 * the ThreadSanitizer preset in CMakePresets.json). submit/wait_idle
 * pairs give the caller the usual mutex happens-before edges: writes
 * made before submit() are visible to the job, and writes made by jobs
 * are visible after wait_idle() returns.
 */

#ifndef GPUSHIELD_COMMON_THREAD_POOL_H
#define GPUSHIELD_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpushield {

class ThreadPool
{
  public:
    /** Spawns @p num_threads workers (clamped to at least 1). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains remaining work, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueues @p job. Jobs must not throw — wrap fallible work and
     * capture errors in the result (the sweep executor records
     * structured per-cell failures).
     */
    void submit(std::function<void()> job);

    /** Blocks until every submitted job has finished. */
    void wait_idle();

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

    /** Sensible default worker count for this machine. */
    static unsigned hardware_jobs();

    /** Largest worker count a user may ask for: the pool starts every
     *  worker up front. */
    static constexpr unsigned kMaxJobs = 256;

  private:
    void worker_loop(std::size_t self);
    /** Pops local-back then steals sibling-front; requires mu_ held. */
    bool take_job(std::size_t self, std::function<void()> &out);

    std::vector<std::deque<std::function<void()>>> queues_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable work_cv_;  //!< job available or stopping
    std::condition_variable idle_cv_;  //!< pending_ reached zero
    std::size_t pending_ = 0;          //!< submitted, not yet finished
    std::size_t next_queue_ = 0;       //!< round-robin submit cursor
    bool stop_ = false;
};

} // namespace gpushield

#endif // GPUSHIELD_COMMON_THREAD_POOL_H
