#include "cache/cache_config.hh"

namespace cachetime
{

EnumNames<WritePolicy>
enumNames(WritePolicy)
{
    static constexpr EnumName<WritePolicy> names[] = {
        {WritePolicy::WriteBack, "write-back"},
        {WritePolicy::WriteThrough, "write-through"},
        {WritePolicy::WriteBack, "wb"},
        {WritePolicy::WriteThrough, "wt"},
    };
    return names;
}

EnumNames<AllocPolicy>
enumNames(AllocPolicy)
{
    static constexpr EnumName<AllocPolicy> names[] = {
        {AllocPolicy::NoWriteAllocate, "no-write-allocate"},
        {AllocPolicy::WriteAllocate, "write-allocate"},
        {AllocPolicy::NoWriteAllocate, "nwa"},
        {AllocPolicy::WriteAllocate, "wa"},
    };
    return names;
}

EnumNames<ReplPolicy>
enumNames(ReplPolicy)
{
    static constexpr EnumName<ReplPolicy> names[] = {
        {ReplPolicy::Random, "random"},
        {ReplPolicy::LRU, "lru"},
        {ReplPolicy::FIFO, "fifo"},
    };
    return names;
}

EnumNames<PrefetchPolicy>
enumNames(PrefetchPolicy)
{
    static constexpr EnumName<PrefetchPolicy> names[] = {
        {PrefetchPolicy::None, "none"},
        {PrefetchPolicy::OnMiss, "on-miss"},
        {PrefetchPolicy::Tagged, "tagged"},
    };
    return names;
}

const char *
prefetchPolicyName(PrefetchPolicy policy)
{
    return enumName(enumNames(policy), policy);
}

const char *
writePolicyName(WritePolicy policy)
{
    return enumName(enumNames(policy), policy);
}

const char *
allocPolicyName(AllocPolicy policy)
{
    return enumName(enumNames(policy), policy);
}

const char *
replPolicyName(ReplPolicy policy)
{
    return enumName(enumNames(policy), policy);
}

} // namespace cachetime
