#include "memory/main_memory.hh"

#include <algorithm>

#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

MainMemory::MainMemory(const MainMemoryConfig &config, double cycleNs)
    : config_(config), timing_(config, cycleNs)
{
    if (config_.banks == 0)
        fatal("MainMemory: banks must be nonzero");
    if ((config_.banks & (config_.banks - 1)) == 0)
        bankMask_ = config_.banks - 1;
    bankFreeAt_.assign(config_.banks, 0);
}

Tick
MainMemory::freeAt() const
{
    Tick earliest_bank =
        *std::min_element(bankFreeAt_.begin(), bankFreeAt_.end());
    return std::max(busFreeAt_, earliest_bank);
}

Tick
MainMemory::banksFreeAt(Addr addr, unsigned words) const
{
    Tick latest = 0;
    unsigned banks = config_.banks;
    unsigned touched = std::min<unsigned>(words, banks);
    if (bankMask_ || banks == 1) {
        for (unsigned i = 0; i < touched; ++i) {
            unsigned bank =
                static_cast<unsigned>((addr + i) & bankMask_);
            latest = std::max(latest, bankFreeAt_[bank]);
        }
        return latest;
    }
    for (unsigned i = 0; i < touched; ++i) {
        unsigned bank =
            static_cast<unsigned>((addr + i) % banks);
        latest = std::max(latest, bankFreeAt_[bank]);
    }
    return latest;
}

void
MainMemory::occupyBanks(Addr addr, unsigned words, Tick until)
{
    unsigned banks = config_.banks;
    unsigned touched = std::min<unsigned>(words, banks);
    if (bankMask_ || banks == 1) {
        for (unsigned i = 0; i < touched; ++i) {
            unsigned bank =
                static_cast<unsigned>((addr + i) & bankMask_);
            bankFreeAt_[bank] = std::max(bankFreeAt_[bank], until);
        }
        return;
    }
    for (unsigned i = 0; i < touched; ++i) {
        unsigned bank =
            static_cast<unsigned>((addr + i) % banks);
        bankFreeAt_[bank] = std::max(bankFreeAt_[bank], until);
    }
}

ReadReply
MainMemory::readBlock(Tick when, Addr addr, unsigned words,
                      unsigned criticalOffset, Pid pid)
{
    (void)pid;
    if (words == 0)
        panic("MainMemory::readBlock of zero words");
    if (criticalOffset >= words)
        panic("MainMemory: critical offset %u outside %u-word read",
              criticalOffset, words);

    Tick start =
        std::max({when, busFreeAt_, banksFreeAt(addr, words)});
    stats_.readWaitCycles += start - when;

    Tick data_ready = start + timing_.readLatencyCycles();
    Tick complete = data_ready + timing_.transferCycles(words);

    Tick critical;
    if (config_.loadForwarding) {
        // Wrap-around transfer: the demanded word leads.
        critical = data_ready + timing_.transferCycles(1);
    } else {
        critical = data_ready + timing_.transferCycles(criticalOffset + 1);
    }

    // The bus frees when the transfer ends; the touched banks pay
    // the recovery (precharge) time on top.
    busFreeAt_ = complete;
    Tick bank_until = complete + timing_.recoveryCycles();
    occupyBanks(addr, words, bank_until);

    ++stats_.reads;
    stats_.wordsRead += words;
    stats_.busyCycles += bank_until - start;
    CACHETIME_TRACE_EVENT(
        trace_debug::Memory,
        "mem t=%llu read addr=%llx words=%u wait=%llu done=%llu",
        static_cast<unsigned long long>(when),
        static_cast<unsigned long long>(addr), words,
        static_cast<unsigned long long>(start - when),
        static_cast<unsigned long long>(complete));
    return {complete, critical};
}

Tick
MainMemory::writeBlock(Tick when, Addr addr, unsigned words, Pid pid)
{
    (void)pid;
    if (words == 0)
        panic("MainMemory::writeBlock of zero words");

    Tick start =
        std::max({when, busFreeAt_, banksFreeAt(addr, words)});
    // Address cycle plus data transfer occupy the requester (and
    // the bus); the write operation itself and the recovery happen
    // inside the banks behind its back.
    Tick release = start + config_.addressCycles +
                   timing_.transferCycles(words);
    busFreeAt_ = release;
    Tick bank_until =
        release + timing_.writeCycles() + timing_.recoveryCycles();
    occupyBanks(addr, words, bank_until);

    ++stats_.writes;
    stats_.wordsWritten += words;
    stats_.busyCycles += bank_until - start;
    CACHETIME_TRACE_EVENT(
        trace_debug::Memory,
        "mem t=%llu write addr=%llx words=%u done=%llu",
        static_cast<unsigned long long>(when),
        static_cast<unsigned long long>(addr), words,
        static_cast<unsigned long long>(release));
    return release;
}

void
MainMemory::saveState(StateWriter &w) const
{
    w.u64(static_cast<std::uint64_t>(busFreeAt_));
    w.u64(bankFreeAt_.size());
    for (Tick t : bankFreeAt_)
        w.u64(static_cast<std::uint64_t>(t));
}

void
MainMemory::loadState(StateReader &r)
{
    busFreeAt_ = static_cast<Tick>(r.u64());
    std::uint64_t n = r.u64();
    if (n != bankFreeAt_.size())
        fatal("memory: checkpoint has %llu banks, this memory has "
              "%zu (config mismatch)",
              static_cast<unsigned long long>(n), bankFreeAt_.size());
    for (Tick &t : bankFreeAt_)
        t = static_cast<Tick>(r.u64());
}

} // namespace cachetime
