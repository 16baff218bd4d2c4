#include "serving/cache.h"

#include <utility>

#include "support/logging.h"

namespace qb::serving {

std::uint64_t
hashSource(const std::string &source)
{
    // FNV-1a, 64-bit: cheap, stable across platforms, and good enough
    // that the byte-exact source comparison behind it only ever
    // arbitrates genuine collisions.
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : source) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

ProgramCache::ProgramCache(std::size_t capacity) : capacity_(capacity)
{
}

void
ProgramCache::touchLocked(std::uint64_t hash)
{
    lru_.remove(hash);
    lru_.push_front(hash);
}

std::shared_ptr<ProgramEntry>
ProgramCache::acquire(const std::string &source)
{
    const std::uint64_t hash = hashSource(source);
    if (capacity_ != 0) {
        const std::lock_guard<std::mutex> guard(mutex_);
        const auto it = entries_.find(hash);
        if (it != entries_.end() && *it->second->source == source) {
            ++hits_;
            touchLocked(hash);
            return it->second;
        }
        ++misses_;
    }

    // Elaborate OUTSIDE the cache lock: elaboration of a large
    // program must not stall unrelated hits.  Two racing submissions
    // of the same novel source may both elaborate; the first insert
    // wins and the loser adopts it.
    auto entry = std::make_shared<ProgramEntry>();
    entry->source = std::make_shared<const std::string>(source);
    entry->hash = hash;
    try {
        entry->program = std::make_shared<const lang::ElaboratedProgram>(
            lang::elaborateSource(source));
    } catch (const FatalError &e) {
        entry->elaborationError = e.what();
    }

    if (capacity_ == 0)
        return entry;

    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
        if (*it->second->source == source) {
            // Lost the race to an identical insert: reuse the winner.
            touchLocked(hash);
            return it->second;
        }
        // 64-bit hash collision with a DIFFERENT live source: serve
        // the newcomer uncached rather than evict the incumbent.
        return entry;
    }
    entries_.emplace(hash, entry);
    lru_.push_front(hash);
    while (entries_.size() > capacity_) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++evictions_;
        // In-flight users of the victim keep it alive through their
        // shared_ptr.
    }
    return entry;
}

CacheCounters
ProgramCache::counters() const
{
    const std::lock_guard<std::mutex> guard(mutex_);
    CacheCounters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.entries = entries_.size();
    return c;
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity)
{
}

std::string
ResultCache::keyOf(std::uint64_t hash, const std::string &options_key)
{
    return std::to_string(hash) + '|' + options_key;
}

void
ResultCache::touchLocked(const std::string &key)
{
    lru_.remove(key);
    lru_.push_front(key);
}

std::shared_ptr<const core::ProgramResult>
ResultCache::lookup(std::uint64_t hash, const std::string &source,
                    const std::string &options_key, bool count_miss)
{
    if (capacity_ == 0)
        return nullptr;
    const std::string key = keyOf(hash, options_key);
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || *it->second.source != source) {
        if (count_miss)
            ++misses_;
        return nullptr;
    }
    ++hits_;
    touchLocked(key);
    return it->second.result;
}

void
ResultCache::insert(std::uint64_t hash,
                    std::shared_ptr<const std::string> source,
                    const std::string &options_key,
                    core::ProgramResult result)
{
    if (capacity_ == 0)
        return;
    const std::string key = keyOf(hash, options_key);
    const std::lock_guard<std::mutex> guard(mutex_);
    auto stored =
        std::make_shared<const core::ProgramResult>(std::move(result));
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second = {std::move(source), std::move(stored)};
        touchLocked(key);
        return;
    }
    entries_.emplace(key, Entry{std::move(source), std::move(stored)});
    lru_.push_front(key);
    while (entries_.size() > capacity_) {
        const std::string victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++evictions_;
    }
}

CacheCounters
ResultCache::counters() const
{
    const std::lock_guard<std::mutex> guard(mutex_);
    CacheCounters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.entries = entries_.size();
    return c;
}

} // namespace qb::serving
