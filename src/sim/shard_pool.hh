/**
 * @file
 * Intra-run shard worker pool.
 *
 * The network deals its routers to shards round-robin (router n to
 * shard n mod S); every flit cycle each shard deposits the flits that
 * landed on its routers and evaluates them, then later advances them,
 * on a worker thread, synchronized by a two-phase barrier.  The pool is
 * that execution engine: persistent worker threads (spawn once, not
 * per cycle) that wait on a generation counter, run one phase
 * callback for their shard, and signal completion.  The coordinator
 * thread runs shard 0 itself, so a pool of S shards spawns S-1
 * threads and a 1-shard pool spawns none and runs the phase inline —
 * a serial network run is the 1-shard case and never synchronizes.
 *
 * Synchronization is a spin-then-yield loop over acquire/release
 * atomics: on the 1-core bench host a pure spin would livelock the
 * scheduler, while a mutex/condvar round trip per phase (two phases x
 * every flit cycle) would dominate the cycle cost on many-core hosts.
 * All data written by the coordinator before release-publishing the
 * generation counter is visible to workers after their acquire read,
 * and everything workers wrote is visible to the coordinator after it
 * acquires the completion count — the pool is the only inter-thread
 * handshake the sharded network needs.
 */

#ifndef MMR_SIM_SHARD_POOL_HH
#define MMR_SIM_SHARD_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "base/types.hh"

namespace mmr
{

class ShardPool
{
  public:
    /** Callback run once per shard per phase: fn(shard_id). */
    using PhaseFn = std::function<void(unsigned)>;

    /** Create a pool for @p shards shards (>= 1). */
    explicit ShardPool(unsigned shards);
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    unsigned shards() const { return numShards; }

    /**
     * Run @p fn for every shard id in [0, shards) and wait for all of
     * them (the per-phase barrier).  @p now is published to each
     * worker's thread-local simclock so logging/tracing stamped on a
     * worker carries the right cycle.  Shard 0 runs on the calling
     * thread.
     */
    MMR_HOT_PATH void runPhase(Cycle now, const PhaseFn &fn);

  private:
    /** Shard worker entry point: runs once per phase per worker, every
     *  flit cycle — as hot as the router evaluate/advance it hosts. */
    MMR_HOT_PATH void workerLoop(unsigned shard_id);

    unsigned numShards;

    // Coordinator -> workers: the job for this phase, published by the
    // release store to phaseSeq; workers acquire-read phaseSeq, so the
    // plain members are ordered without being atomic themselves.
    const PhaseFn *job = nullptr;
    Cycle jobCycle = 0;
    bool stopping = false;
    alignas(64) std::atomic<std::uint64_t> phaseSeq{0};

    // Workers -> coordinator: phase-completion count (release on the
    // last decrement, acquire on the coordinator's read).
    alignas(64) std::atomic<unsigned> pending{0};

    std::vector<std::thread> workers;
};

} // namespace mmr

#endif // MMR_SIM_SHARD_POOL_HH
