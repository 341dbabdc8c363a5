#ifndef TENSORDASH_CORE_SYNTH_CACHE_HH_
#define TENSORDASH_CORE_SYNTH_CACHE_HH_

/**
 * @file
 * Content-addressed cache of synthesized layer tensors.
 *
 * Tensor synthesis (clustered Beta maps, magnitude/clustered pruning)
 * is the dominant non-simulation cost of a cold sweep, and it is a
 * pure function of far fewer inputs than a simulation result: the
 * synthesis seed, the layer's fork index and shape, the effective
 * batch, the training progress, the model's sparsity calibration and
 * the synthesize-hook contract.  Accelerator geometry, the memory
 * model, the fidelity tier and the workload phase cannot change a
 * synthesized tensor, so a design-space sweep with N geometry variants
 * re-synthesizes every (model, progress, layer) cell N times for
 * nothing.  The SynthCache content-addresses synthesis the same way
 * the ResultStore content-addresses results: the first task of a key
 * synthesizes once, every sibling variant reuses the ready tensors.
 *
 * Concurrency: a per-key once-latch serialises the *first* synthesis
 * of each key (waiters block on that key alone, never on the global
 * map lock, so unrelated synthesis proceeds in parallel).  Entries are
 * immutable once published and handed out as shared_ptr-to-const, so
 * readers on any thread share one tensor allocation safely.
 *
 * Memory: entries live exactly as long as someone still needs them.
 * A sweep registers, per key, how many of its tasks will consume the
 * tensors (expect()); every acquire() uses one up and a task that
 * never acquires hands its use back (release()), so the last consumer
 * frees the entry.  Peak residency is the set of keys with consumers
 * still pending, and nothing stays resident once a sweep returns.  An
 * acquisition nobody registered synthesizes and caches nothing.
 * Freeing is bit-identical to keeping by construction: the same forked
 * per-layer Rng reproduces the same tensors, so the cache only ever
 * changes wall-clock, never output.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "models/model_zoo.hh"

namespace tensordash {

struct RunConfig;

/**
 * Content-addressed identity of one layer's synthesized tensors: an
 * FNV-1a fingerprint over exactly the synthesis-affecting inputs —
 * the synthesis seed, the training progress, the layer's serial fork
 * index and shape, the effective batch, the model's sparsity
 * calibration, and the sweep's synthesize-hook contract (salt, plus
 * the model name for custom hooks, which may seed off it).
 *
 * Deliberately absent: accelerator geometry, the memory model, the
 * fidelity tier, the workload phase and the write-back estimate
 * switch.  None of them can change a synthesized tensor, which is
 * exactly what lets N geometry variants share one synthesis.
 */
struct SynthKey
{
    uint64_t value = 0;

    /**
     * Key of layer @p layer of @p model at @p progress under
     * @p config.  Mirrors TaskKey::forOp's treatment of the effective
     * batch (a positive RunConfig::batch_override replaces the
     * model's) and of custom hooks (@p synthesis_salt is the hook's
     * content id; a non-zero salt also fingerprints the model name).
     *
     * Caching contract for hooks: a SweepSpec::synthesize hook must
     * depend only on the inputs this key covers — of its RunConfig
     * argument that is the seed and the batch override alone.  A hook
     * that read accelerator geometry would break content addressing
     * for synthesis exactly as reading sibling layers would break it
     * for results (see SweepSpec::synthesize).
     */
    static SynthKey forCell(const RunConfig &config,
                            const ModelProfile &model, size_t layer,
                            double progress,
                            uint64_t synthesis_salt = 0);

    bool operator==(const SynthKey &o) const { return value == o.value; }
};

/**
 * One ready cache entry: the synthesized tensors plus their three
 * measured sparsities, so power-gating observation and write-back
 * sparsity estimation never rescan a cached tensor.  Immutable after
 * publication.
 */
struct SynthTensors
{
    LayerTensors tensors;
    double act_sparsity = 0.0;
    double weight_sparsity = 0.0;
    double grad_sparsity = 0.0;

    /** Resident tensor bytes (what residentBytes() accounts). */
    uint64_t bytes = 0;
};

/**
 * Effectiveness counters of one SynthCache: how many distinct keys
 * were synthesized and how many acquisitions were served from a ready
 * entry.  A cold N-variant geometry sweep shows
 * reuses == (N - 1) * keys — one synthesis per unique key.
 */
struct SynthCounters
{
    uint64_t keys = 0;   ///< synthesize executions (unique-key misses)
    uint64_t reuses = 0; ///< acquisitions served without synthesizing
};

/** Process-wide, use-counted cache of synthesized layer tensors. */
class SynthCache
{
  public:
    SynthCache() = default;

    SynthCache(const SynthCache &) = delete;
    SynthCache &operator=(const SynthCache &) = delete;

    /** The process-wide cache every sweep uses. */
    static SynthCache &shared();

    /** Produces one layer's tensors (called at most once per key while
     * the entry has consumers pending). */
    using SynthFn = std::function<LayerTensors()>;

    /**
     * Register @p uses more consumers of @p key.  Additive, so sweeps
     * sharing a key may each register their own tasks.  Every
     * registered use must end in exactly one acquire() or release().
     */
    void expect(const SynthKey &key, size_t uses);

    /**
     * Fetch the entry for @p key, synthesizing it via @p synthesize on
     * first acquisition, and use up one registered use; the last use
     * drops the entry.  Concurrent acquirers of one key block on the
     * key's own latch until the first finishes (the global lock is
     * never held across synthesis); the returned entry is immutable
     * and stays valid while the caller holds the pointer.  Without a
     * registered use the tensors are synthesized and nothing is
     * cached.
     */
    std::shared_ptr<const SynthTensors>
    acquire(const SynthKey &key, const SynthFn &synthesize);

    /** Hand back one registered use of @p key without acquiring (the
     * consumer's cells were all warm, or it was cancelled). */
    void release(const SynthKey &key);

    /** Bytes of ready entries currently resident. */
    uint64_t residentBytes() const;

    /** Snapshot of the lifetime synthesize/reuse counters. */
    SynthCounters counters() const;

    /** Zero the counters (benches isolating one sweep's traffic). */
    void resetCounters();

    /** Drop every entry and its pending uses (borrowed entries stay
     * valid; later acquirers of a dropped key re-synthesize). */
    void clear();

  private:
    /** One key's slot: the once-latch plus the published entry.  The
     * latch lives outside the global lock so first-synthesis of
     * different keys runs in parallel. */
    struct Slot
    {
        std::once_flag once;
        /** Published by the latch winner before any waiter returns
         * (call_once orders the write); never read under mu_. */
        std::shared_ptr<const SynthTensors> value;
        /** Accounted bytes, guarded by mu_ (0 = not yet accounted). */
        uint64_t bytes = 0;
        /** Registered uses not yet acquired or released, guarded by
         * mu_. */
        size_t pending = 0;
    };

    /** Use up one pending use of @p it; the last one drops the slot
     * (mu_ held). */
    void useLocked(
        std::unordered_map<uint64_t, std::shared_ptr<Slot>>::iterator it);

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<Slot>> map_;
    uint64_t resident_ = 0;
    SynthCounters counters_;
};

} // namespace tensordash

#endif // TENSORDASH_CORE_SYNTH_CACHE_HH_
