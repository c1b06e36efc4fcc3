#include "cache/cache_config.hh"

namespace cachetime
{

const char *
prefetchPolicyName(PrefetchPolicy policy)
{
    switch (policy) {
      case PrefetchPolicy::None:
        return "none";
      case PrefetchPolicy::OnMiss:
        return "on-miss";
      case PrefetchPolicy::Tagged:
        return "tagged";
    }
    return "?";
}

const char *
writePolicyName(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::WriteBack:
        return "write-back";
      case WritePolicy::WriteThrough:
        return "write-through";
    }
    return "?";
}

const char *
allocPolicyName(AllocPolicy policy)
{
    switch (policy) {
      case AllocPolicy::NoWriteAllocate:
        return "no-write-allocate";
      case AllocPolicy::WriteAllocate:
        return "write-allocate";
    }
    return "?";
}

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Random:
        return "random";
      case ReplPolicy::LRU:
        return "lru";
      case ReplPolicy::FIFO:
        return "fifo";
    }
    return "?";
}

} // namespace cachetime
