/**
 * @file
 * The memory-reference record that flows through the simulator.
 *
 * Following the paper's preprocessing, traces contain only 32-bit
 * word references: sequential instruction fetches from one word are
 * collapsed, and multi-word accesses are split into sequential word
 * accesses.  Each record carries the process identifier so virtual
 * caches can include it in their tags.
 */

#ifndef CACHETIME_TRACE_REF_HH
#define CACHETIME_TRACE_REF_HH

#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace cachetime
{

/** Classification of a memory reference. */
enum class RefKind : std::uint8_t
{
    IFetch, ///< instruction fetch
    Load,   ///< data read
    Store,  ///< data write
};

/** @return true for references the paper counts as "reads". */
constexpr bool
isRead(RefKind kind)
{
    return kind == RefKind::IFetch || kind == RefKind::Load;
}

/** @return true for data-side (load/store) references. */
constexpr bool
isData(RefKind kind)
{
    return kind != RefKind::IFetch;
}

/** @return a short stable mnemonic ("I", "L", "S") for a kind. */
const char *refKindName(RefKind kind);

/** One word reference in a trace. */
struct Ref
{
    Addr addr = 0;                 ///< virtual word address
    RefKind kind = RefKind::Load;  ///< reference class
    Pid pid = 0;                   ///< issuing process

    bool operator==(const Ref &other) const = default;
};

/**
 * The couplet rule for cutting a stream: the paper's CPU issues an
 * instruction fetch together with the data reference that follows
 * it, so no cut may fall between the two.  Every engine pairs within
 * the span it is fed, which makes any partition that obeys this rule
 * produce the results of the uncut stream.
 *
 * @return where to cut @p refs[0, n) for a cut wanted at @p cut:
 * @p cut itself, or cut + 1 when @p pair holds and the cut would
 * separate an IFetch from its data reference.
 */
constexpr std::size_t
coupletSafeCut(const Ref *refs, std::size_t n, std::size_t cut, bool pair)
{
    if (pair && cut > 0 && cut < n &&
        refs[cut - 1].kind == RefKind::IFetch && isData(refs[cut].kind))
        return cut + 1;
    return cut;
}

} // namespace cachetime

#endif // CACHETIME_TRACE_REF_HH
