/**
 * @file
 * One list per counter struct.
 *
 * Each struct of measured counters (CacheStats, WriteBufferStats,
 * MainMemoryStats, TlbStats, CoherenceStats, MissClassStats) names
 * every counter once, in declaration order, in a static
 * forEachCounter(visit) that calls
 *
 *     visit(name, desc, &Struct::field)            // summed
 *     visit(name, desc, &Struct::field, Combine::Max)
 *
 * per counter.  The name is the counter's stats-registry leaf and
 * its verify::diffResults field; desc is its registry description;
 * a field is an integer or a Histogram.  merge() (mergeCounters
 * below), SimResult::regStats and verify::diffResults walk that
 * list, the way forEachKey (sim/system_config.hh) serves the config
 * format, so a counter added to a list is merged, registered and
 * diffed with no other change.
 */

#ifndef CACHETIME_STATS_COUNTER_LIST_HH
#define CACHETIME_STATS_COUNTER_LIST_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "util/histogram.hh"

namespace cachetime
{

/** How a listed counter of two partial runs combines. */
enum class Combine : std::uint8_t
{
    Sum, ///< added; a histogram merges bin by bin
    Max, ///< the larger of the two (a high-water mark)
};

/** Combine every listed counter of @p from into @p into. */
template <typename Stats>
void
mergeCounters(Stats &into, const Stats &from)
{
    Stats::forEachCounter([&](const char *, const char *, auto field,
                              Combine how = Combine::Sum) {
        auto &to = into.*field;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(to)>,
                                     Histogram>)
            to.merge(from.*field);
        else if (how == Combine::Max)
            to = std::max(to, from.*field);
        else
            to += from.*field;
    });
}

} // namespace cachetime

#endif // CACHETIME_STATS_COUNTER_LIST_HH
