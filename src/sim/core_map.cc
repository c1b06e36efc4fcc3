#include "sim/core_map.hh"

#include <limits>

#include "util/logging.hh"

namespace cachetime
{

EnumNames<CoreMapPolicy>
enumNames(CoreMapPolicy)
{
    static constexpr EnumName<CoreMapPolicy> names[] = {
        {CoreMapPolicy::Modulo, "modulo"},
        {CoreMapPolicy::Direct, "direct"},
    };
    return names;
}

const char *
coreMapPolicyName(CoreMapPolicy policy)
{
    return enumName(enumNames(policy), policy);
}

CoreMapPolicy
parseCoreMapPolicy(const std::string &name)
{
    return parseEnum(enumNames(CoreMapPolicy{}), name,
                     "core_map: policy");
}

CoreMap::CoreMap(CoreMapPolicy policy, unsigned cores)
    : policy_(policy), cores_(cores)
{
    if (cores_ == 0)
        fatal("core_map: core count must be nonzero");
}

unsigned
CoreMap::coreOf(Pid pid) const
{
    switch (policy_) {
      case CoreMapPolicy::Modulo:
        return pid % cores_;
      case CoreMapPolicy::Direct:
        if (pid >= cores_) {
            fatal("core_map: pid %u overflows the %u-core direct "
                  "map (use core_map=modulo to fold processes)",
                  static_cast<unsigned>(pid), cores_);
        }
        return pid;
    }
    return 0;
}

Pid
checkedPid(std::uint64_t raw, const char *what)
{
    if (raw > std::numeric_limits<Pid>::max()) {
        fatal("%s: pid %llu overflows the 16-bit pid field the "
              "fused tag keys reserve",
              what, static_cast<unsigned long long>(raw));
    }
    return static_cast<Pid>(raw);
}

} // namespace cachetime
