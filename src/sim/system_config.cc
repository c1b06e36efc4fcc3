#include "sim/system_config.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

namespace cachetime
{

EnumNames<AddressMode>
enumNames(AddressMode)
{
    static constexpr EnumName<AddressMode> names[] = {
        {AddressMode::Virtual, "virtual"},
        {AddressMode::Physical, "physical"},
    };
    return names;
}

const char *
addressModeName(AddressMode mode)
{
    return enumName(enumNames(mode), mode);
}

std::vector<SystemConfig::MidLevelConfig>
SystemConfig::resolvedMidLevels() const
{
    if (!midLevels.empty())
        return midLevels;
    if (hasL2)
        return {MidLevelConfig{l2cache, l2Timing, l2Buffer}};
    return {};
}

void
SystemConfig::validate() const
{
    // Configs built in code never meet the parser's finite check.
    if (!std::isfinite(cycleNs) || cycleNs <= 0.0)
        fatal("system: cycleNs must be positive and finite, got %f",
              cycleNs);
    const std::pair<const char *, double> memoryNs[] = {
        {"readLatencyNs", memory.readLatencyNs},
        {"writeNs", memory.writeNs},
        {"recoveryNs", memory.recoveryNs},
    };
    // A negative time would round to a free zero-cycle operation.
    for (const auto &[name, ns] : memoryNs)
        if (!std::isfinite(ns) || ns < 0.0)
            fatal("system: memory.%s must be finite and non-negative, "
                  "got %f", name, ns);
    if (addressing == AddressMode::Physical)
        tlb.validate();
    if (cpu.readHitCycles == 0 || cpu.writeHitCycles == 0)
        fatal("system: hit cycle counts must be nonzero");
    if (split)
        icache.validate("icache");
    dcache.validate(split ? "dcache" : "unified cache");
    if (l1Buffer.enabled && l1Buffer.depth == 0)
        fatal("system: l1 write buffer depth must be nonzero");
    unsigned prev_block =
        std::max(dcache.blockWords, split ? icache.blockWords : 0u);
    unsigned level = 2;
    for (const MidLevelConfig &mid : resolvedMidLevels()) {
        std::string what = "L";
        what += std::to_string(level);
        what += " cache";
        mid.cache.validate(what.c_str());
        if (mid.cache.blockWords < prev_block) {
            fatal("system: %s block size must be >= the level above",
                  what.c_str());
        }
        prev_block = mid.cache.blockWords;
        ++level;
    }
    if (memory.rate.words == 0 || memory.rate.cycles == 0)
        fatal("system: memory transfer rate must be nonzero");

    if (!coherent()) {
        if (cores != 1)
            fatal("system: cores > 1 requires a coherence protocol");
        return;
    }

    // Coherent mode: the snooping engine models write-back
    // write-allocate whole-block caches over one shared L2 and a
    // single shared (physical) address space.
    constexpr unsigned kMaxCores = 64;
    if (cores == 0 || cores > kMaxCores)
        fatal("system: cores must be in [1, %u], got %u", kMaxCores,
              cores);
    if (addressing != AddressMode::Virtual)
        fatal("system: coherent mode models no TLB; use virtual "
              "addressing");
    if (resolvedMidLevels().size() != 1)
        fatal("system: coherent mode requires exactly one shared L2");
    auto checkCoherentCache = [](const CacheConfig &cache,
                                 const char *what) {
        if (cache.writePolicy != WritePolicy::WriteBack ||
            cache.allocPolicy != AllocPolicy::WriteAllocate)
            fatal("system: coherent %s must be write-back "
                  "write-allocate", what);
        if (cache.fetchWords != 0 &&
            cache.fetchWords != cache.blockWords)
            fatal("system: coherent %s must fetch whole blocks",
                  what);
        if (cache.victimEntries != 0)
            fatal("system: coherent %s cannot have a victim cache",
                  what);
        if (cache.prefetchPolicy != PrefetchPolicy::None)
            fatal("system: coherent %s cannot prefetch", what);
        if (cache.virtualTags)
            fatal("system: coherent %s must be physically tagged "
                  "(the cores share one address space)", what);
    };
    if (split)
        checkCoherentCache(icache, "icache");
    checkCoherentCache(dcache, split ? "dcache" : "unified cache");
    checkCoherentCache(resolvedMidLevels().front().cache, "L2");
    // Flushes and fills move whole L1 blocks through the L2, so an
    // L1 block must fit inside one L2 block (both are powers of two,
    // so fitting implies alignment).
    unsigned l2Block = resolvedMidLevels().front().cache.blockWords;
    if (dcache.blockWords > l2Block ||
        (split && icache.blockWords > l2Block))
        fatal("system: coherent L1 blocks (%u/%u words) cannot "
              "exceed the L2 block (%u words)",
              split ? icache.blockWords : dcache.blockWords,
              dcache.blockWords, l2Block);
    if (l1Buffer.enabled || resolvedMidLevels().front().buffer.enabled)
        fatal("system: coherent mode models no write buffers");
    if (cpu.pairIssue || cpu.earlyContinuation)
        fatal("system: coherent mode is single-issue without early "
              "continuation");
    if (memory.addressCycles == 0)
        fatal("system: the coherent bus needs memory.address_cycles "
              ">= 1 (the snoop/arbitration cost)");
}

void
SystemConfig::applyCoherenceDefaults()
{
    addressing = AddressMode::Virtual;
    cpu.pairIssue = false;
    cpu.earlyContinuation = false;
    l1Buffer.enabled = false;
    auto coerce = [](CacheConfig &cache) {
        cache.writePolicy = WritePolicy::WriteBack;
        cache.allocPolicy = AllocPolicy::WriteAllocate;
        cache.fetchWords = 0;
        cache.victimEntries = 0;
        cache.prefetchPolicy = PrefetchPolicy::None;
        cache.virtualTags = false;
    };
    coerce(icache);
    coerce(dcache);
    unsigned l1Block = std::max(dcache.blockWords,
                                split ? icache.blockWords : 0u);
    if (midLevels.empty() && !hasL2) {
        hasL2 = true;
        l2cache = dcache;
        l2cache.sizeWords = std::bit_ceil(
            std::max<std::uint64_t>(4 * totalL1Words(),
                                    4 * dcache.blockWords));
        l2cache.replSeed = 0x12cace;
    }
    // The shared L2 moves whole L1 blocks: its block must contain
    // them, and its capacity must stay legal once the block grows.
    if (!midLevels.empty()) {
        midLevels.resize(1);
        midLevels.front().buffer.enabled = false;
    } else {
        l2Buffer.enabled = false;
    }
    CacheConfig &shared =
        midLevels.empty() ? l2cache : midLevels.front().cache;
    coerce(shared);
    shared.blockWords = std::max(shared.blockWords, l1Block);
    shared.sizeWords = std::max<std::uint64_t>(
        shared.sizeWords,
        2ULL * shared.blockWords * shared.assoc);
    if (memory.addressCycles == 0)
        memory.addressCycles = 1;
}

std::uint64_t
SystemConfig::totalL1Words() const
{
    return split ? icache.sizeWords + dcache.sizeWords
                 : dcache.sizeWords;
}

void
SystemConfig::setL1SizeWordsEach(std::uint64_t words)
{
    icache.sizeWords = words;
    dcache.sizeWords = words;
}

void
SystemConfig::setL1BlockWords(unsigned words)
{
    icache.blockWords = words;
    icache.fetchWords = 0;
    dcache.blockWords = words;
    dcache.fetchWords = 0;
    l1Buffer.matchGranularityWords = words;
}

void
SystemConfig::setL1Assoc(unsigned assoc)
{
    icache.assoc = assoc;
    dcache.assoc = assoc;
}

std::string
SystemConfig::describe() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s L1 %s+%s, %uW blocks, %u-way, %.0fns cycle%s",
                  split ? "split" : "unified",
                  TablePrinter::fmtSizeWords(split ? icache.sizeWords
                                                   : dcache.sizeWords)
                      .c_str(),
                  TablePrinter::fmtSizeWords(dcache.sizeWords).c_str(),
                  dcache.blockWords, dcache.assoc, cycleNs,
                  hasL2 ? ", +L2" : "");
    std::string text = buf;
    if (coherent()) {
        std::snprintf(buf, sizeof(buf), ", %ux %s",
                      cores, coherenceProtocolName(protocol));
        text += buf;
    }
    return text;
}

SystemConfig
SystemConfig::paperDefault()
{
    SystemConfig config;
    config.cycleNs = 40.0;
    config.split = true;

    // 64KB each, 4K blocks of four words, direct mapped, fetch the
    // entire block on a miss.
    config.icache.sizeWords = 16 * 1024;
    config.icache.blockWords = 4;
    config.icache.assoc = 1;
    config.icache.fetchWords = 0;
    config.icache.writePolicy = WritePolicy::WriteBack;
    config.icache.allocPolicy = AllocPolicy::NoWriteAllocate;
    config.icache.replPolicy = ReplPolicy::Random;
    config.icache.virtualTags = true;

    config.dcache = config.icache;
    config.dcache.replSeed = 0xdcace;

    config.l1Buffer.depth = 4;
    config.l1Buffer.matchGranularityWords = 4;

    config.memory = MainMemoryConfig{};
    return config;
}

namespace
{

/** Boolean values are spelled like an enum; 0/1 are written. */
EnumNames<bool>
enumNames(bool)
{
    static constexpr EnumName<bool> names[] = {
        {true, "1"},    {false, "0"},
        {true, "true"}, {false, "false"},
        {true, "yes"},  {false, "no"},
    };
    return names;
}

template <typename T>
constexpr bool spelledByName =
    std::is_enum_v<T> || std::is_same_v<T, bool>;

} // namespace

void
applyKeyValues(SystemConfig &config, const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        // Strip comments and whitespace-only lines.
        if (auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream probe(line);
        std::string token;
        if (!(probe >> token))
            continue;
        auto eq = token.find('=');
        if (eq == std::string::npos)
            fatal("config: expected key=value, got '%s'", line.c_str());
        if (std::string extra; probe >> extra)
            fatal("config: expected one key=value per line, got '%s'",
                  line.c_str());
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        const std::string what = "config: " + key;
        bool found = false;
        forEachKey(config, [&](const std::string &name, auto &field,
                               auto... scale) {
            using T = std::remove_reference_t<decltype(field)>;
            if (name != key)
                return;
            found = true;
            if constexpr (spelledByName<T>) {
                field = parseEnum(enumNames(T{}), value, what.c_str());
            } else if constexpr (std::is_floating_point_v<T>) {
                field = parseNumber<T>(value, what.c_str());
            } else {
                // An alias's unit bounds it so the product cannot wrap.
                const T unit = (T{1} * ... * scale);
                const T most = std::numeric_limits<T>::max() / unit;
                field = parseNumber<T>(value, what.c_str(), 0, most) * unit;
            }
        });
        if (!found)
            fatal("config: unknown key '%s'", key.c_str());
    }
}

std::string
configKeyValues(const SystemConfig &config)
{
    std::string text;
    forEachKey(config, [&](const std::string &name, const auto &field,
                           auto... alias) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (sizeof...(alias) == 0) { // aliases only parse
            text += name + "=";
            if constexpr (spelledByName<T>) {
                text += enumName(enumNames(field), field);
            } else if constexpr (std::is_floating_point_v<T>) {
                char buf[40];
                std::snprintf(buf, sizeof(buf), "%.17g", field);
                text += buf;
            } else {
                text += std::to_string(field);
            }
            text += '\n';
        }
    });
    return text;
}

} // namespace cachetime
