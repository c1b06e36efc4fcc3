/**
 * @file
 * A gem5-style statistics registry.
 *
 * The paper's simulator gathered "up to about 400 unique statistics"
 * per run; reproducing its figures means knowing exactly which
 * counters were read and when.  Registry gives every counter a
 * stable hierarchical name ("system.l1d.readMissRatio"), a
 * description, and one of three kinds:
 *
 *  scalar    - an integer or floating counter read through an
 *              accessor (the registry never copies values, so a dump
 *              always reflects the owner's live state);
 *  formula   - a derived value computed at dump time from other
 *              counters (miss ratios, traffic ratios);
 *  histogram - a distribution (util/histogram.hh) dumped with its
 *              moments and bins.
 *
 * SimResult::regStats registers the whole system tree, walking each
 * counter struct's one list (stats/counter_list.hh), and dumps
 * render as aligned text, nested JSON, or flat CSV.  Names are
 * unique per registry; registering a duplicate is a cachetime bug
 * and panics.
 */

#ifndef CACHETIME_STATS_STATS_HH
#define CACHETIME_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace cachetime
{

class Histogram;

namespace stats
{

/** What a registered statistic is. */
enum class Kind : std::uint8_t
{
    Scalar,    ///< integer counter
    Value,     ///< floating-point scalar
    Formula,   ///< derived value computed at dump time
    Histogram, ///< distribution with moments and bins
};

/** One named statistic. */
struct Stat
{
    std::string name; ///< full dotted path, e.g. "system.l1d.fills"
    std::string desc;
    Kind kind = Kind::Scalar;
    std::function<double()> value;             ///< all but Histogram
    const cachetime::Histogram *hist = nullptr; ///< Histogram only
};

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * A set of named statistics over live counters.
 *
 * The registry stores accessors, not values: the owning objects must
 * outlive every dump.  Not thread-safe; build and dump from one
 * thread (per-run registries are cheap to construct).
 */
class Registry
{
  public:
    /**
     * Register an integer counter.  @p name must be a dotted path of
     * [A-Za-z0-9_] segments, unique within this registry (duplicates
     * panic - two components claiming one name is a wiring bug).
     */
    void addScalar(const std::string &name, const std::string &desc,
                   std::function<std::uint64_t()> value);

    /** Register a floating-point scalar. */
    void addValue(const std::string &name, const std::string &desc,
                  std::function<double()> value);

    /** Register a derived value computed at dump time. */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> value);

    /** Register a histogram; @p hist must outlive the registry. */
    void addHistogram(const std::string &name,
                      const std::string &desc,
                      const cachetime::Histogram *hist);

    /** @return the stat registered under @p name, or nullptr. */
    const Stat *find(const std::string &name) const;

    /** @return every stat, in registration order. */
    const std::vector<Stat> &all() const { return stats_; }

    std::size_t size() const { return stats_.size(); }

    /** Aligned "name value # desc" lines, one per stat. */
    void dumpText(std::ostream &os) const;

    /** One JSON object, nested along the dotted names. */
    void dumpJson(std::ostream &os) const;

    /** Flat "name,value" CSV (histograms flattened to moments). */
    void dumpCsv(std::ostream &os) const;

  private:
    void add(Stat stat);

    std::vector<Stat> stats_;
};

} // namespace stats
} // namespace cachetime

#endif // CACHETIME_STATS_STATS_HH
