/**
 * @file
 * Unit tests for the cache-policy names.
 */

#include <gtest/gtest.h>

#include "cache/cache_config.hh"

namespace cachetime
{
namespace
{

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::Random), "random");
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::FIFO), "fifo");
    EXPECT_STREQ(writePolicyName(WritePolicy::WriteBack),
                 "write-back");
    EXPECT_STREQ(allocPolicyName(AllocPolicy::WriteAllocate),
                 "write-allocate");
}

} // namespace
} // namespace cachetime
