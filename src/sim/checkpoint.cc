#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstring>

#include "trace/ref_source.hh" // mix64
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

const char kCheckpointMagic[8] = {'C', 'T', 'C', 'K',
                                  'P', 'T', '1', '\n'};

namespace
{

constexpr std::uint32_t kVersion = 1;

/**
 * mix64 chain over @p n bytes: words fold in little-endian order so
 * the digest is host-independent, and the length enters last so
 * truncation to a word boundary still changes the sum.
 */
std::uint64_t
chainChecksum(const unsigned char *p, std::size_t n)
{
    std::uint64_t h = 0x43544b505431ULL; // "CTKPT1"
    std::size_t i = 0;
    while (i + 8 <= n) {
        std::uint64_t w = 0;
        for (int k = 0; k < 8; ++k)
            w |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
        h = mix64(h ^ w);
        i += 8;
    }
    std::uint64_t tail = 0;
    for (int k = 0; i < n; ++i, ++k)
        tail |= static_cast<std::uint64_t>(p[i]) << (8 * k);
    h = mix64(h ^ tail);
    return mix64(h ^ n);
}

} // namespace

std::string
encodeCheckpoint(const CheckpointFile &cp)
{
    StateWriter w;
    w.bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
    w.u32(kVersion);
    w.u64(cp.traceHash);
    w.u64(cp.warmKey.lo);
    w.u64(cp.warmKey.hi);
    w.u64(cp.exactKey.lo);
    w.u64(cp.exactKey.hi);
    w.u64(cp.unitRefs);
    w.u64(cp.warmupRefs);
    w.u64(cp.periodRefs);
    w.u64(cp.streamRefs);
    w.u64(cp.units.size());
    for (const CheckpointUnit &unit : cp.units) {
        w.u64(unit.cpPos);
        w.u64(unit.beginPos);
        w.u64(unit.endPos);
        w.u64(unit.state.size());
        w.bytes(unit.state.data(), unit.state.size());
    }
    std::string body = w.take();
    std::uint64_t sum = chainChecksum(
        reinterpret_cast<const unsigned char *>(body.data()),
        body.size());
    StateWriter tail;
    tail.u64(sum);
    body += tail.take();
    return body;
}

CheckpointFile
decodeCheckpoint(const void *data, std::size_t size,
                 const std::string &what)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    if (size < sizeof(kCheckpointMagic) + 4 + 8 ||
        std::memcmp(bytes, kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0)
        fatal("%s: not a checkpoint file (bad magic)", what.c_str());
    std::uint64_t stored = 0;
    for (int k = 0; k < 8; ++k)
        stored |= static_cast<std::uint64_t>(bytes[size - 8 + k])
                  << (8 * k);
    if (chainChecksum(bytes, size - 8) != stored)
        fatal("%s: checkpoint checksum mismatch (corrupt file)",
              what.c_str());

    StateReader r(bytes, size - 8, what);
    char magic[8];
    r.bytes(magic, sizeof(magic));
    std::uint32_t version = r.u32();
    if (version != kVersion)
        fatal("%s: unsupported checkpoint version %u (expected %u)",
              what.c_str(), version, kVersion);
    CheckpointFile cp;
    cp.traceHash = r.u64();
    cp.warmKey.lo = r.u64();
    cp.warmKey.hi = r.u64();
    cp.exactKey.lo = r.u64();
    cp.exactKey.hi = r.u64();
    cp.unitRefs = r.u64();
    cp.warmupRefs = r.u64();
    cp.periodRefs = r.u64();
    cp.streamRefs = r.u64();
    std::uint64_t count = r.u64();
    // Each unit needs at least its four header words; anything
    // claiming more units than bytes allow is structurally corrupt.
    if (count > r.remaining() / 32)
        fatal("%s: checkpoint claims %llu units, file too small",
              what.c_str(), static_cast<unsigned long long>(count));
    cp.units.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        CheckpointUnit unit;
        unit.cpPos = r.u64();
        unit.beginPos = r.u64();
        unit.endPos = r.u64();
        std::uint64_t len = r.u64();
        if (len > r.remaining())
            fatal("%s: checkpoint unit %llu claims %llu state "
                  "bytes, only %zu remain",
                  what.c_str(), static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(len),
                  r.remaining());
        unit.state.resize(static_cast<std::size_t>(len));
        r.bytes(unit.state.data(), unit.state.size());
        if (unit.cpPos > unit.beginPos ||
            unit.beginPos > unit.endPos ||
            unit.endPos > cp.streamRefs)
            fatal("%s: checkpoint unit %llu has inconsistent "
                  "positions [%llu, %llu, %llu) in a %llu-ref "
                  "stream",
                  what.c_str(), static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(unit.cpPos),
                  static_cast<unsigned long long>(unit.beginPos),
                  static_cast<unsigned long long>(unit.endPos),
                  static_cast<unsigned long long>(cp.streamRefs));
        cp.units.push_back(std::move(unit));
    }
    if (!r.atEnd())
        fatal("%s: %zu trailing bytes after checkpoint payload",
              what.c_str(), r.remaining());
    return cp;
}

void
writeCheckpoint(const CheckpointFile &cp, const std::string &path)
{
    std::string body = encodeCheckpoint(cp);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot write checkpoint '%s'", path.c_str());
    std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
    bool ok = wrote == body.size() && std::fclose(f) == 0;
    if (!ok)
        fatal("short write to checkpoint '%s'", path.c_str());
}

CheckpointFile
loadCheckpoint(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open checkpoint '%s'", path.c_str());
    std::string body;
    char buf[65536];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, got);
    bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        fatal("read error on checkpoint '%s'", path.c_str());
    return decodeCheckpoint(body.data(), body.size(), path);
}

bool
looksLikeCheckpoint(const void *data, std::size_t size)
{
    return size >= sizeof(kCheckpointMagic) &&
           std::memcmp(data, kCheckpointMagic,
                       sizeof(kCheckpointMagic)) == 0;
}

std::string
checkpointFileName(std::uint64_t trace_hash, const SimKey &warm_key,
                   std::uint64_t unit_refs, std::uint64_t warmup_refs,
                   std::uint64_t period_refs)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "smarts-%016llx-%016llx%016llx-u%llu-w%llu-p%llu.ckpt",
                  static_cast<unsigned long long>(trace_hash),
                  static_cast<unsigned long long>(warm_key.hi),
                  static_cast<unsigned long long>(warm_key.lo),
                  static_cast<unsigned long long>(unit_refs),
                  static_cast<unsigned long long>(warmup_refs),
                  static_cast<unsigned long long>(period_refs));
    return buf;
}

} // namespace cachetime
