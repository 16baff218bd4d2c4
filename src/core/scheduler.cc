#include "core/scheduler.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace qb::core {

struct Scheduler::Impl
{
    std::mutex mutex;
    std::condition_variable workAvailable;
    /**
     * Runnable tasks keyed by fairness band.  Bands are erased when
     * drained, so iteration cost tracks the number of ACTIVE request
     * streams, not of all streams ever seen.
     */
    std::map<unsigned, std::deque<Task>> bands;
    std::size_t runnableCount = 0;
    /** Round-robin cursor: the band served last; the next pop takes
     *  the first non-empty band after it (wrapping). */
    unsigned lastBand = 0;
    bool stopping = false;
    std::vector<std::thread> threads;

    void
    push(unsigned band, Task task)
    {
        bands[band].push_back(std::move(task));
        ++runnableCount;
    }

    /** Pop the next runnable task, round-robin across bands, FIFO
     *  within a band.  Caller holds the mutex; runnableCount > 0. */
    Task
    popNext()
    {
        auto it = bands.upper_bound(lastBand);
        if (it == bands.end())
            it = bands.begin();
        lastBand = it->first;
        Task task = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty())
            bands.erase(it);
        --runnableCount;
        return task;
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            workAvailable.wait(lock, [this] {
                return stopping || runnableCount > 0;
            });
            if (runnableCount == 0)
                return; // stopping and drained
            Task task = popNext();
            lock.unlock();
            task();
            lock.lock();
        }
    }
};

Scheduler::Scheduler(unsigned jobs) : impl(std::make_unique<Impl>())
{
    unsigned count = jobs;
    if (count == 0)
        count = std::thread::hardware_concurrency();
    if (count == 0)
        count = 1;
    impl->threads.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        impl->threads.emplace_back([this] { impl->workerLoop(); });
}

Scheduler::~Scheduler()
{
    {
        const std::lock_guard<std::mutex> guard(impl->mutex);
        impl->stopping = true;
    }
    impl->workAvailable.notify_all();
    for (std::thread &t : impl->threads)
        t.join();
}

unsigned
Scheduler::workers() const
{
    return static_cast<unsigned>(impl->threads.size());
}

void
Scheduler::submit(Task task)
{
    submit(0u, std::move(task));
}

void
Scheduler::submit(unsigned band, Task task)
{
    {
        const std::lock_guard<std::mutex> guard(impl->mutex);
        impl->push(band, std::move(task));
    }
    impl->workAvailable.notify_one();
}

std::vector<std::pair<unsigned, std::size_t>>
Scheduler::bandBacklog() const
{
    std::vector<std::pair<unsigned, std::size_t>> out;
    const std::lock_guard<std::mutex> guard(impl->mutex);
    out.reserve(impl->bands.size());
    for (const auto &[band, tasks] : impl->bands)
        out.emplace_back(band, tasks.size());
    return out;
}

} // namespace qb::core
