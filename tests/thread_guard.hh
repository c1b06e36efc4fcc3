/**
 * @file
 * A scoped override of the process-wide pool size for tests that
 * compare thread counts: it restores the original size on exit, so
 * such suites interleave safely with the other parallel suites.
 */

#ifndef CACHETIME_TESTS_THREAD_GUARD_HH
#define CACHETIME_TESTS_THREAD_GUARD_HH

#include "util/parallel.hh"

namespace cachetime
{

/** RAII pool-size override: restores the original size on exit. */
class ThreadGuard
{
  public:
    ThreadGuard() : original_(parallelThreads()) {}
    ~ThreadGuard() { setParallelThreads(original_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    unsigned original_;
};

} // namespace cachetime

#endif // CACHETIME_TESTS_THREAD_GUARD_HH
