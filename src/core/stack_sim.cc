#include "core/stack_sim.hh"

#include <algorithm>
#include <string>

#include "core/sweep.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{

namespace
{

unsigned
log2u(std::uint64_t value)
{
    unsigned shift = 0;
    while ((std::uint64_t{1} << shift) < value)
        ++shift;
    return shift;
}

/**
 * The organizational identity of one stack layer.  Configs mapping
 * to equal keys share state: the level-A contents depend only on
 * these fields and the reference stream (write policy never enters -
 * it changes traffic, not residence or recency).
 */
struct LayerKey
{
    bool iside = false; ///< fed by ifetches (split machines only)
    unsigned blockShift = 0;
    std::uint64_t sets = 0;
    bool pidInTag = true;
    /** Store-miss behaviour; normalized on the I side (no stores). */
    AllocPolicy alloc = AllocPolicy::NoWriteAllocate;

    bool operator==(const LayerKey &) const = default;
};

/**
 * Per-set key rows + reuse histograms for one layer (or, in the
 * sharded pass, for one shard's slice of one layer).
 *
 * Every layer names a block by one fused (block << 16 | pid) key,
 * the production cache's own layout.  The fusion is exact for block
 * addresses below 2^48; runStackSweep re-answers wider streams with
 * simulateBatch.
 *
 * A shard owns every set whose index contains its shard id in bits
 * [shardPos, shardPos + shardBits): finalize() then sizes the
 * arrays for the slice (sets >> shardBits of them) and localSet()
 * compacts a full set index to a slice index by deleting the shard
 * bits.  The serial pass is the shardBits = 0 special case, where
 * localSet() is the identity.
 */
struct Layer
{
    LayerKey key;
    unsigned maxA = 0; ///< deepest associativity tracked

    unsigned blockShift = 0;
    std::uint64_t setMask = 0;
    Pid pidMask = 0;
    bool noWriteAllocate = false;
    unsigned shardBits = 0;      ///< set-index bits owned pass-wide
    std::uint64_t lowMask = 0;   ///< set bits below the shard bits

    /**
     * Deep (maxA > 1) layers: sets x maxA key slots, set s's row
     * [s*maxA, s*maxA+len[s]) in master-list order (most recent
     * first).
     */
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> len;

    /**
     * A-stars, parallel to keys, kept only where some touch does not
     * allocate (no-write-allocate data layers).  Where every touch
     * allocates, the level-A contents are the row's first A keys, so
     * a-star is the row position + 1 and needs no storage.
     */
    std::vector<std::uint32_t> aStars;

    /**
     * Direct-mapped (maxA == 1) layers - the whole paper-default
     * grid - skip the rows: one fused tag per set plus a validity
     * bitmap, probed inline by the driver.
     */
    std::vector<std::uint64_t> tags;
    std::vector<std::uint64_t> validBits;

    /**
     * Reuse-level histograms, indexed by k = a-star at access time
     * (maxA+1 = absent): an access hits exactly the levels >= k, so
     * misses(A) is the histogram mass above A.  Only measured
     * accesses are recorded; state always advances.
     */
    std::vector<std::uint64_t> histRead;
    std::vector<std::uint64_t> histWrite;

    /** @return the slice index of full set index @p set. */
    std::size_t
    localSet(std::uint64_t set) const
    {
        // Delete bits [shardPos, shardPos + shardBits): the high
        // part shifts down over them, the low part stays put.  The
        // shifted-down shard bits land below shardPos and are
        // cleared by ~lowMask.
        return static_cast<std::size_t>(
            ((set >> shardBits) & ~lowMask) | (set & lowMask));
    }

    /**
     * Allocate state for this layer's slice of the set space.
     * @param shard_pos  position of the shard bits within this
     *                   layer's set index
     * @param shard_bits pass-wide shard bit count (0 = serial)
     */
    void
    finalize(unsigned shard_pos = 0, unsigned shard_bits = 0)
    {
        blockShift = key.blockShift;
        setMask = key.sets - 1;
        pidMask = key.pidInTag ? static_cast<Pid>(~Pid{0}) : Pid{0};
        noWriteAllocate = key.alloc == AllocPolicy::NoWriteAllocate;
        shardBits = shard_bits;
        lowMask = (std::uint64_t{1} << shard_pos) - 1;
        const std::uint64_t local_sets = key.sets >> shard_bits;
        if (maxA == 1) {
            tags.assign(local_sets, 0);
            validBits.assign(local_sets / 64 + 1, 0);
        } else {
            keys.assign(local_sets * maxA, 0);
            len.assign(local_sets, 0);
            if (noWriteAllocate && !key.iside)
                aStars.assign(local_sets * maxA, 0);
        }
        histRead.assign(maxA + 2, 0);
        histWrite.assign(maxA + 2, 0);
    }

    void touch(Addr addr, Pid pid, bool write, bool measuring);
};

void
Layer::touch(Addr addr, Pid pid, bool write, bool measuring)
{
    const Addr block = addr >> blockShift;
    const std::uint64_t fused = (block << 16) | (pid & pidMask);
    const std::size_t set = localSet(block & setMask);
    std::uint64_t *row = keys.data() + set * maxA;
    std::uint32_t n = len[set];

    std::uint32_t i = 0;
    while (i < n && row[i] != fused)
        ++i;
    const bool found = i < n;

    if (aStars.empty()) {
        // Every touch allocates, so this is plain LRU: level A holds
        // the row's first A keys, X's reuse level is its position
        // + 1, and X rotates to the front - past the deepest level's
        // LRU key, which falls off a full row.  Rows are short, so
        // the rotations are plain loops: a memmove call per touch
        // costs more than the copy.
        if (measuring)
            (write ? histWrite : histRead)[found ? i + 1 : maxA + 1] += 1;
        if (!found) {
            if (n < maxA)
                len[set] = n + 1;
            else
                i = n - 1;
        }
        for (std::uint32_t j = i; j > 0; --j)
            row[j] = row[j - 1];
        row[0] = fused;
        return;
    }

    std::uint32_t *stars = aStars.data() + set * maxA;
    const std::uint32_t k = found ? stars[i] : maxA + 1;
    if (measuring)
        (write ? histWrite : histRead)[k] += 1;

    // A-stars exist only on no-write-allocate layers: a read
    // allocates, a store never does.
    if (!write) {
        // Allocating touch: X becomes resident at every level.  Each
        // full level A below X's old a-star evicts its LRU member -
        // the last entry with a-star <= A - whose a-star bumps to
        // A+1; past the deepest level it is deleted.  Level A never
        // shrinks and lacks a block allocated before only after
        // evicting it while full, so it holds min(A, distinct blocks
        // ever allocated in the set) entries and a row of n entries
        // carries each a-star 1..n exactly once.  The levels below
        // min(k, n+1) are thus all full, and a bump keeps its victim
        // inside every deeper level, so level A's victim is the last
        // entry with an a-star <= A before the cascade.  Entry j is
        // the victim of levels [a_j, m_j), where m_j is the least
        // a-star after it (capped at min(k, n+1)), and ends at
        // max(a_j, m_j): one backward pass with a running minimum
        // makes every bump.  X's own a-star k is never below the
        // minimum, so X keeps it and leaves the minimum alone.
        std::uint32_t least = std::min(k, n + 1);
        for (std::uint32_t j = n; j-- > 0;) {
            const std::uint32_t a = stars[j];
            stars[j] = std::max(a, least);
            least = std::min(least, a);
        }
        if (!found) {
            // A full row's last entry just fell past the deepest
            // level (a-star maxA + 1).
            if (n == maxA)
                --n;
            i = n++;
            len[set] = n;
        }
    } else if (!found) {
        // A no-write-allocate store that misses everywhere changes
        // nothing.
        return;
    }

    // X moves to the front: a hit for levels >= k updates recency
    // there, and moving X to the front of the row reorders exactly
    // the levels X belongs to.  A store leaves X's a-star alone (it
    // missed levels < k without allocating); an allocating touch
    // makes X resident at level 1.
    const std::uint32_t star = write ? k : 1;
    for (std::uint32_t j = i; j > 0; --j) {
        row[j] = row[j - 1];
        stars[j] = stars[j - 1];
    }
    row[0] = fused;
    stars[0] = star;
}

bool
l1Eligible(const CacheConfig &config)
{
    return config.prefetchPolicy == PrefetchPolicy::None &&
           config.victimEntries == 0 &&
           (config.fetchWords == 0 ||
            config.fetchWords == config.blockWords) &&
           (config.replPolicy == ReplPolicy::LRU || config.assoc == 1);
}

/** One config's L1 role mapped onto a shared layer. */
struct RolePlan
{
    std::size_t layer = 0;
    unsigned assoc = 0;
};

/**
 * Flat probe view of a direct-mapped layer, walked by the inner
 * loop without indirection; deeper layers keep their key rows.
 */
struct DirectView
{
    unsigned blockShift;
    std::uint64_t setMask;
    std::uint64_t pidMask;
    bool noWriteAllocate;
    unsigned shardBits;
    std::uint64_t lowMask;
    std::uint64_t *tags;
    std::uint64_t *valid;
    std::uint64_t *histRead;
    std::uint64_t *histWrite;
};

/** The routed layer views of one pass (or of one shard's slice). */
struct LayerViews
{
    std::vector<DirectView> directIfetch, directData;
    std::vector<Layer *> deepIfetch, deepData;
};

/**
 * Build the probe views over @p layers.  Views sharing
 * blockShift/pidMask are adjacent so the (block, fused tag)
 * computation amortizes across them; a unified L1 serves ifetches
 * from the data-side state.
 */
LayerViews
buildViews(std::vector<Layer> &layers, bool split)
{
    auto viewOf = [](Layer &layer) {
        return DirectView{layer.blockShift,
                          layer.setMask,
                          layer.pidMask,
                          layer.noWriteAllocate,
                          layer.shardBits,
                          layer.lowMask,
                          layer.tags.data(),
                          layer.validBits.data(),
                          layer.histRead.data(),
                          layer.histWrite.data()};
    };
    LayerViews views;
    for (Layer &layer : layers) {
        if (layer.maxA == 1)
            (layer.key.iside ? views.directIfetch : views.directData)
                .push_back(viewOf(layer));
        else
            (layer.key.iside ? views.deepIfetch : views.deepData)
                .push_back(&layer);
    }
    auto byShape = [](const DirectView &a, const DirectView &b) {
        return a.blockShift != b.blockShift
                   ? a.blockShift < b.blockShift
                   : a.pidMask < b.pidMask;
    };
    std::sort(views.directIfetch.begin(), views.directIfetch.end(),
              byShape);
    std::sort(views.directData.begin(), views.directData.end(),
              byShape);
    if (!split) { // unified: ifetches share the L1 state
        views.directIfetch = views.directData;
        views.deepIfetch = views.deepData;
    }
    return views;
}

/**
 * Apply one reference to every layer of a role.  Sharded
 * instantiations compact set indices to the owning shard's slice;
 * the serial kernel instantiates with Sharded = false and pays no
 * remap arithmetic at all.
 */
template <bool Sharded>
void
touchViews(const std::vector<DirectView> &direct,
           const std::vector<Layer *> &deep, Addr addr, Pid pid,
           bool write, std::uint64_t measured)
{
    unsigned prev_shift = ~0u;
    std::uint64_t prev_pid_mask = ~std::uint64_t{0};
    Addr block = 0;
    std::uint64_t fused = 0;
    for (const DirectView &view : direct) {
        if (view.blockShift != prev_shift ||
            view.pidMask != prev_pid_mask) [[unlikely]] {
            prev_shift = view.blockShift;
            prev_pid_mask = view.pidMask;
            block = addr >> view.blockShift;
            fused = (block << 16) | (pid & view.pidMask);
        }
        std::uint64_t set = block & view.setMask;
        if constexpr (Sharded)
            set = ((set >> view.shardBits) & ~view.lowMask) |
                  (set & view.lowMask);
        std::uint64_t &word = view.valid[set >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (set & 63);
        const bool hit = (word & bit) && view.tags[set] == fused;
        (write ? view.histWrite
               : view.histRead)[hit ? 1 : 2] += measured;
        if (write && view.noWriteAllocate)
            continue; // hit reorders nothing at A=1; miss: no-op
        view.tags[set] = fused;
        word |= bit;
    }
    for (Layer *layer : deep)
        layer->touch(addr, pid, write, measured != 0);
}

/** Measured access totals of one pass (role-global, by class). */
struct PassCounts
{
    std::uint64_t ifetch = 0;
    std::uint64_t load = 0;
    std::uint64_t store = 0;
    std::uint64_t groups = 0;
    /** OR of every address seen, measured or not. */
    Addr addrBits = 0;

    /**
     * @return true when some address reaches past the 48 bits the
     * layers' fused (block << 16 | pid) keys hold.
     */
    bool wide() const { return (addrBits >> 48) != 0; }
};

/**
 * The single pass driver.  It issues groups as
 * System's front-end scan does - the measuring flag is decided at the
 * group's first reference by the same MeasureWindow, state always
 * advances, and only measured accesses are counted - over the spans
 * the feeder cuts.  Every reference is handed to
 * @p sink(ref, iside, write, measured) in stream order - the serial
 * kernel touches layers there, the sharded kernel routes into
 * per-shard buffers - so both kernels share one measuring/pairing
 * implementation and cannot drift.
 */
template <typename Sink>
PassCounts
drivePass(RefSource &source, bool pair, Sink &&sink)
{
    MeasureWindow window(source.warmStart(), source.warmSegments());
    PipelinedFeeder feeder(source);

    PassCounts counts;
    std::size_t consumed = 0;
    std::size_t boundary = window.boundary();
    bool measuring = false;

    while (ChunkFeeder::Span span = feeder.next()) {
        const Ref *buffer = span.data;
        const std::size_t n = span.size;
        std::size_t head = 0;
        while (head < n) {
            if (consumed >= boundary) [[unlikely]] {
                measuring = window.measured(consumed);
                boundary = window.boundary();
            }

            const std::uint64_t measured = measuring ? 1 : 0;
            const Ref &first = buffer[head];
            counts.addrBits |= first.addr;
            if (first.kind == RefKind::IFetch) {
                sink(first, true, false, measured);
                counts.ifetch += measured;
                ++head;
                ++consumed;
                if (pair && head < n && isData(buffer[head].kind)) {
                    const Ref &data = buffer[head];
                    const bool write = data.kind == RefKind::Store;
                    counts.addrBits |= data.addr;
                    sink(data, false, write, measured);
                    (write ? counts.store : counts.load) += measured;
                    ++head;
                    ++consumed;
                }
            } else {
                const bool write = first.kind == RefKind::Store;
                sink(first, false, write, measured);
                (write ? counts.store : counts.load) += measured;
                ++head;
                ++consumed;
            }
            counts.groups += measured;
        }
    }
    return counts;
}

/** @return the histogram mass above @p assoc: misses at that A. */
std::uint64_t
missesAbove(const std::vector<std::uint64_t> &hist, unsigned assoc)
{
    std::uint64_t sum = 0;
    for (std::size_t k = assoc + 1; k < hist.size(); ++k)
        sum += hist[k];
    return sum;
}

/**
 * Fill the descriptive fields and role-global measured access
 * counts of every partial result.  Miss counters are accumulated
 * separately (per layer set - once serially, once per shard).
 */
void
fillCommon(std::vector<SimResult> &out,
           const std::vector<SystemConfig> &configs,
           const std::string &trace_name, bool split,
           const PassCounts &counts)
{
    for (std::size_t c = 0; c < out.size(); ++c) {
        SimResult &result = out[c];
        result.traceName = trace_name;
        result.configSummary = configs[c].describe();
        result.cycleNs = configs[c].cycleNs;
        result.refs = counts.ifetch + counts.load + counts.store;
        result.readRefs = counts.ifetch + counts.load;
        result.writeRefs = counts.store;
        result.groups = counts.groups;
        if (split) {
            result.icache.readAccesses = counts.ifetch;
            result.dcache.readAccesses = counts.load;
        } else {
            result.dcache.readAccesses = counts.ifetch + counts.load;
        }
        result.dcache.writeAccesses = counts.store;
    }
}

/**
 * Accumulate the miss counters extracted from @p layers into
 * @p out.  The sharded kernel calls this once per shard in shard
 * order; per-shard extraction then summation is identical to
 * extraction from merged histograms because missesAbove() is linear
 * in the histogram and integer addition is associative - the heart
 * of the bit-identity argument (DESIGN.md section 14).
 */
void
addMissCounters(std::vector<SimResult> &out, bool split,
                const std::vector<RolePlan> &iPlan,
                const std::vector<RolePlan> &dPlan,
                const std::vector<Layer> &layers)
{
    for (std::size_t c = 0; c < out.size(); ++c) {
        SimResult part;
        const Layer &dl = layers[dPlan[c].layer];
        if (split)
            part.icache.readMisses = missesAbove(
                layers[iPlan[c].layer].histRead, iPlan[c].assoc);
        part.dcache.readMisses =
            missesAbove(dl.histRead, dPlan[c].assoc);
        part.dcache.writeMisses =
            missesAbove(dl.histWrite, dPlan[c].assoc);
        out[c].mergeCounters(part);
    }
}

/** Where the pass may split the address space across shards. */
struct ShardPlan
{
    unsigned shift = 0; ///< lowest shared set-index address bit
    unsigned bits = 0;  ///< number of shared set-index bits
};

/**
 * The set-index address bits every layer has in common: bits above
 * the largest block offset and below the smallest set-index top.
 * Any key derived from them partitions every layer's set space
 * consistently, so a shard owns complete sets of all layers at
 * once.
 */
ShardPlan
shardPlanOf(const std::vector<Layer> &layers)
{
    unsigned low = 0;
    unsigned high = ~0u;
    for (const Layer &layer : layers) {
        low = std::max(low, layer.key.blockShift);
        high = std::min(high,
                        layer.key.blockShift + log2u(layer.key.sets));
    }
    ShardPlan plan;
    if (!layers.empty() && high > low) {
        plan.shift = low;
        plan.bits = high - low;
    }
    return plan;
}

// Router meta word: pid in the low 16 bits, then three flags.
constexpr std::uint32_t kRouteWrite = 1u << 16;
constexpr std::uint32_t kRouteIside = 1u << 17;
constexpr unsigned kRouteMeasuredShift = 18;

/** One routed reference: address plus packed pid/flags. */
struct RoutedRef
{
    Addr addr;
    std::uint32_t meta;
};

/** Routed refs buffered between shard dispatches (~4 MB total). */
constexpr std::size_t kRouteBatchRefs = std::size_t{1} << 18;

} // namespace

bool
stackEligible(const SystemConfig &config)
{
    // Coherent runs depend on cross-core invalidation order; no
    // single-pass stack can answer them.
    if (config.coherent())
        return false;
    if (config.addressing != AddressMode::Virtual)
        return false;
    if (config.split && !l1Eligible(config.icache))
        return false;
    return l1Eligible(config.dcache);
}

unsigned
stackShardBits(const std::vector<SystemConfig> &configs)
{
    unsigned low = 0;
    unsigned high = ~0u;
    bool any = false;
    auto fold = [&](const CacheConfig &cache) {
        const unsigned block_shift = log2u(cache.blockWords);
        low = std::max(low, block_shift);
        high = std::min(high, block_shift + log2u(cache.numSets()));
        any = true;
    };
    for (const SystemConfig &config : configs) {
        if (config.split)
            fold(config.icache);
        fold(config.dcache);
    }
    return (any && high > low) ? high - low : 0;
}

std::vector<SimResult>
runStackSweep(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    if (configs.empty())
        return {};

    const bool split = configs[0].split;
    const bool pair = split && configs[0].cpu.pairIssue;
    for (const SystemConfig &config : configs) {
        config.validate();
        if (!stackEligible(config))
            fatal("runStackSweep: config is not stack-eligible");
        if (config.split != split ||
            (config.split && config.cpu.pairIssue) != pair)
            fatal("runStackSweep: configs mix issue shapes");
    }

    // Plan: map each config's L1(s) onto shared layers.
    std::vector<Layer> layers;
    auto layerFor = [&](const LayerKey &key, unsigned assoc) {
        for (std::size_t l = 0; l < layers.size(); ++l) {
            if (layers[l].key == key) {
                layers[l].maxA = std::max(layers[l].maxA, assoc);
                return l;
            }
        }
        layers.emplace_back();
        layers.back().key = key;
        layers.back().maxA = assoc;
        return layers.size() - 1;
    };

    std::vector<RolePlan> iPlan(configs.size());
    std::vector<RolePlan> dPlan(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SystemConfig &config = configs[c];
        if (split) {
            const CacheConfig &ic = config.icache;
            iPlan[c] = {layerFor({true, log2u(ic.blockWords),
                                  ic.numSets(), ic.virtualTags,
                                  AllocPolicy::NoWriteAllocate},
                                 ic.assoc),
                        ic.assoc};
        }
        const CacheConfig &dc = config.dcache;
        dPlan[c] = {layerFor({false, log2u(dc.blockWords),
                              dc.numSets(), dc.virtualTags,
                              dc.allocPolicy},
                             dc.assoc),
                    dc.assoc};
    }

    // Shard only when the pool can host the workers (a sweep already
    // running inside a pool task would serialize anyway) and the
    // grid leaves shared set-index bits to route on.  The shard
    // count overshoots the thread count a little so the
    // self-scheduling pool can balance shards of uneven weight.
    const ShardPlan plan = shardPlanOf(layers);
    unsigned shard_bits = 0;
    if (parallelThreads() > 1 && !parallelInWorker() &&
        plan.bits > 0) {
        shard_bits = std::min(
            {plan.bits, log2u(parallelThreads()) + 2, 6u});
    }

    telemetry::Span stage("stack");
    stage.label(source.name());
    stage.count("layers", layers.size());
    stage.count("shards", std::uint64_t{1} << shard_bits);
    // A stream too wide for the fused keys is re-answered by
    // simulateBatch, which counts its machines; only an answered
    // pass counts as one.
    auto answered = [&] {
        stage.count("passes", 1);
        stage.count("points", configs.size());
    };
    std::vector<SimResult> out(configs.size());

    if (shard_bits == 0) {
        // Serial kernel: one set of full-width layers, touched
        // directly from the driver.
        for (Layer &layer : layers)
            layer.finalize();
        LayerViews views = buildViews(layers, split);
        PassCounts counts = drivePass(
            source, pair,
            [&](const Ref &ref, bool iside, bool write,
                std::uint64_t measured) {
                if (iside)
                    touchViews<false>(views.directIfetch,
                                      views.deepIfetch, ref.addr,
                                      ref.pid, false, measured);
                else
                    touchViews<false>(views.directData,
                                      views.deepData, ref.addr,
                                      ref.pid, write, measured);
            });
        if (counts.wide())
            return simulateBatch(configs, source);
        answered();
        fillCommon(out, configs, source.name(), split, counts);
        addMissCounters(out, split, iPlan, dPlan, layers);
        return out;
    }

    // Sharded kernel: every shard holds its own slice of every
    // layer, the driver routes references by the shared set-index
    // bits into per-shard buffers, and buffered sub-streams are
    // replayed on the pool.  Within a shard the routed order is the
    // stream order and a set's references never split across
    // shards, so each slice's histograms are exactly the serial
    // histograms restricted to its sets; the shard-ordered merge
    // below is then bit-identical to the serial kernel at any
    // thread count.
    const unsigned K = 1u << shard_bits;
    struct Shard
    {
        std::vector<Layer> layers;
        LayerViews views;
        std::vector<RoutedRef> buf;
    };
    std::vector<Shard> shards(K);
    for (Shard &shard : shards) {
        shard.layers.reserve(layers.size());
        for (const Layer &master : layers) {
            shard.layers.emplace_back();
            shard.layers.back().key = master.key;
            shard.layers.back().maxA = master.maxA;
            shard.layers.back().finalize(
                plan.shift - master.key.blockShift, shard_bits);
        }
        shard.views = buildViews(shard.layers, split);
        shard.buf.reserve(2 * kRouteBatchRefs / K + 16);
    }

    auto processShard = [&](Shard &shard) {
        for (const RoutedRef &rr : shard.buf) {
            const Pid pid = static_cast<Pid>(rr.meta & 0xFFFFu);
            const bool write = rr.meta & kRouteWrite;
            const std::uint64_t measured =
                rr.meta >> kRouteMeasuredShift;
            if (rr.meta & kRouteIside)
                touchViews<true>(shard.views.directIfetch,
                                 shard.views.deepIfetch, rr.addr,
                                 pid, false, measured);
            else
                touchViews<true>(shard.views.directData,
                                 shard.views.deepData, rr.addr, pid,
                                 write, measured);
        }
        shard.buf.clear();
    };

    std::size_t buffered = 0;
    auto flush = [&] {
        parallelFor(K,
                    [&](std::size_t s) { processShard(shards[s]); });
        buffered = 0;
    };

    const std::uint64_t shard_mask = K - 1;
    PassCounts counts = drivePass(
        source, pair,
        [&](const Ref &ref, bool iside, bool write,
            std::uint64_t measured) {
            Shard &shard =
                shards[(ref.addr >> plan.shift) & shard_mask];
            shard.buf.push_back(
                {ref.addr,
                 static_cast<std::uint32_t>(ref.pid) |
                     (write ? kRouteWrite : 0u) |
                     (iside ? kRouteIside : 0u) |
                     (measured
                          ? (1u << kRouteMeasuredShift)
                          : 0u)});
            if (++buffered >= kRouteBatchRefs)
                flush();
        });
    flush();
    if (counts.wide())
        return simulateBatch(configs, source);

    answered();
    fillCommon(out, configs, source.name(), split, counts);
    for (const Shard &shard : shards)
        addMissCounters(out, split, iPlan, dPlan, shard.layers);
    return out;
}

} // namespace cachetime
