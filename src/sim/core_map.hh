/**
 * @file
 * Assignment of trace process identifiers to simulated cores.
 *
 * The multiprogrammed trace generators tag each reference with a
 * pid; coherent mode promotes those pids to cores.  CoreMap is the
 * policy seam: Modulo folds any pid population onto N cores
 * (processes time-share a core, as a scheduler would), Direct
 * demands pid == core and fatal()s on overflow - the checked
 * narrowing the fused 16-bit probe-key layout requires (see the
 * static_assert in cache.hh), so an out-of-range identifier stops
 * the run instead of silently aliasing onto the wrong core.
 */

#ifndef CACHETIME_SIM_CORE_MAP_HH
#define CACHETIME_SIM_CORE_MAP_HH

#include <cstdint>
#include <string>

#include "trace/ref.hh"
#include "util/parse.hh"

namespace cachetime
{

/** How a pid picks its core. */
enum class CoreMapPolicy : std::uint8_t
{
    Modulo, ///< core = pid % cores (processes share cores)
    Direct, ///< core = pid; fatal when pid >= cores
};

/** @return every spelling of a policy (util/parse.hh). */
EnumNames<CoreMapPolicy> enumNames(CoreMapPolicy);

/** @return a short stable name ("modulo", "direct"). */
const char *coreMapPolicyName(CoreMapPolicy policy);

/** Parse a policy name; fatal() on anything unknown. */
CoreMapPolicy parseCoreMapPolicy(const std::string &name);

/** The resolved pid-to-core mapping of one coherent system. */
class CoreMap
{
  public:
    CoreMap(CoreMapPolicy policy, unsigned cores);

    /** @return the core handling @p pid; fatal() on overflow. */
    unsigned coreOf(Pid pid) const;

    unsigned cores() const { return cores_; }
    CoreMapPolicy policy() const { return policy_; }

  private:
    CoreMapPolicy policy_;
    unsigned cores_;
};

/**
 * Narrow a raw parsed process identifier into Pid, fatal()ing when
 * it does not fit the 16 pid bits the fused probe keys reserve
 * (silent truncation would alias distinct processes onto one tag -
 * a wrong-hit correctness bug).  @p what names the ingest site.
 */
Pid checkedPid(std::uint64_t raw, const char *what);

} // namespace cachetime

#endif // CACHETIME_SIM_CORE_MAP_HH
