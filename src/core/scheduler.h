/**
 * @file
 * Persistent worker pool for batch verification.
 *
 * A fixed pool of workers, created once and sized to the machine (or
 * to EngineOptions::jobs), that runs (qubit, condition) work items.
 * Engines submit every SAT task here - batch pipelines and single
 * queries alike - so the process-wide thread count is the pool size,
 * full stop.  Tasks are independent: each condition is decided in its
 * own solver and shares no state with any other task.
 *
 * Every submission additionally belongs to a fairness BAND.  Tasks
 * are drained round-robin across non-empty bands and FIFO within
 * each band, so when independent request streams share one pool (the
 * qborrow server feeding many programs through one process-wide
 * scheduler), a program that queued a hundred queries cannot starve a
 * newly-arrived program: the newcomer's band is served on the next
 * rotation.  Band 0 is the default; with all work in one band the
 * schedule is plain FIFO, exactly the pre-band behavior.
 *
 * The pool is shareable: verifyAll() hands one Scheduler to every
 * session of a program - and the qborrow server hands one Scheduler to
 * every session of every request - so concurrent sessions cannot
 * multiply threads.
 */

#ifndef QB_CORE_SCHEDULER_H
#define QB_CORE_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace qb::core {

class Scheduler
{
  public:
    using Task = std::function<void()>;

    /**
     * Start the pool.  @p jobs = 0 sizes it to
     * std::thread::hardware_concurrency() (at least one worker).
     */
    explicit Scheduler(unsigned jobs = 0);

    /** Joins the workers; all submitted tasks complete first. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Number of worker threads (fixed for the pool's lifetime). */
    unsigned workers() const;

    /** Run @p task on any worker, unordered, in band 0. */
    void submit(Task task);

    /** Run @p task on any worker, unordered, in fairness band
     *  @p band. */
    void submit(unsigned band, Task task);

    /**
     * Snapshot of the queued (runnable, not yet running) tasks per
     * fairness band, as (band, backlog) pairs in band order.  Empty
     * bands are absent.  This is the pool-side half of the server's
     * `stats` protocol op: with one band per request stream, the
     * backlog shape shows which programs are waiting on SAT work.
     */
    std::vector<std::pair<unsigned, std::size_t>> bandBacklog() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace qb::core

#endif // QB_CORE_SCHEDULER_H
