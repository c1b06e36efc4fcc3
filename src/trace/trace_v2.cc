#include "trace/trace_v2.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/trace_io.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

void
putLE(unsigned char *out, std::uint64_t value, std::size_t bytes)
{
    for (std::size_t i = 0; i < bytes; ++i)
        out[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xff);
}

std::uint64_t
getLE(const unsigned char *in, std::size_t bytes)
{
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bytes; ++i)
        value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return value;
}

void
encodeRecord(unsigned char *out, const Ref &ref)
{
    putLE(out, ref.addr, 8);
    putLE(out + 8, ref.pid, 2);
    out[10] = static_cast<unsigned char>(ref.kind);
}

Ref
decodeRecord(const unsigned char *in, std::uint64_t index,
             const char *path)
{
    Ref ref;
    ref.addr = getLE(in, 8);
    ref.pid = static_cast<Pid>(getLE(in + 8, 2));
    unsigned char kind = in[10];
    if (kind > static_cast<unsigned char>(RefKind::Store))
        fatal("trace_v2: '%s': bad reference kind %u at record %llu",
              path, unsigned(kind),
              static_cast<unsigned long long>(index));
    ref.kind = static_cast<RefKind>(kind);
    return ref;
}

/** Records buffered per fwrite or pread (~704KB). */
constexpr std::size_t ioChunkRecords = 64 * 1024;

} // namespace

V2Writer::V2Writer(const std::string &path, std::uint64_t warm_start)
    : path_(path), warmStart_(warm_start)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fatal("trace_v2: cannot create '%s': %s", path.c_str(),
              std::strerror(errno));
    buffer_.reserve(ioChunkRecords * v2::recordBytes);
    unsigned char header[v2::headerBytes] = {};
    std::memcpy(header, v2::magic, sizeof(v2::magic));
    putLE(header + 8, v2::version, 4);
    putLE(header + 12, 0, 4);
    putLE(header + 16, 0, 8); // count patched in close()
    putLE(header + 24, warmStart_, 8);
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        fatal("trace_v2: write to '%s' failed", path_.c_str());
}

V2Writer::~V2Writer()
{
    if (file_)
        close();
}

void
V2Writer::push(const Ref &ref)
{
    std::size_t at = buffer_.size();
    buffer_.resize(at + v2::recordBytes);
    encodeRecord(buffer_.data() + at, ref);
    ++count_;
    if (buffer_.size() >= ioChunkRecords * v2::recordBytes)
        flushBuffer();
}

void
V2Writer::flushBuffer()
{
    if (buffer_.empty())
        return;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size())
        fatal("trace_v2: write to '%s' failed", path_.c_str());
    buffer_.clear();
}

void
V2Writer::close()
{
    if (!file_)
        return;
    if (warmStart_ > count_)
        fatal("trace_v2: '%s': warm start %llu beyond the %llu "
              "records written",
              path_.c_str(),
              static_cast<unsigned long long>(warmStart_),
              static_cast<unsigned long long>(count_));
    flushBuffer();
    unsigned char le_count[8];
    putLE(le_count, count_, 8);
    if (std::fseek(file_, 16, SEEK_SET) != 0 ||
        std::fwrite(le_count, 1, sizeof(le_count), file_) !=
            sizeof(le_count) ||
        std::fclose(file_) != 0) {
        file_ = nullptr;
        fatal("trace_v2: finalizing '%s' failed", path_.c_str());
    }
    file_ = nullptr;
}

V2FileSource::V2FileSource(const std::string &path)
    : name_(workloadNameFromPath(path))
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        fatal("trace_v2: cannot open '%s': %s", path.c_str(),
              std::strerror(errno));
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        fatal("trace_v2: cannot stat '%s'", path.c_str());
    std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);

    unsigned char header[v2::headerBytes];
    if (file_bytes < v2::headerBytes ||
        ::pread(fd_, header, sizeof(header), 0) !=
            static_cast<ssize_t>(sizeof(header)))
        fatal("trace_v2: '%s': truncated header", path.c_str());
    if (std::memcmp(header, v2::magic, sizeof(v2::magic)) != 0)
        fatal("trace_v2: '%s' is not a format-v2 trace", path.c_str());
    std::uint64_t version = getLE(header + 8, 4);
    if (version != v2::version)
        fatal("trace_v2: '%s': unsupported version %llu", path.c_str(),
              static_cast<unsigned long long>(version));
    count_ = getLE(header + 16, 8);
    warmStart_ = getLE(header + 24, 8);
    if (count_ > (file_bytes - v2::headerBytes) / v2::recordBytes ||
        file_bytes != v2::headerBytes + count_ * v2::recordBytes)
        fatal("trace_v2: '%s': record section does not match the "
              "header count %llu (file is %llu bytes, expected %llu)",
              path.c_str(), static_cast<unsigned long long>(count_),
              static_cast<unsigned long long>(file_bytes),
              static_cast<unsigned long long>(
                  v2::headerBytes + count_ * v2::recordBytes));
    if (warmStart_ > count_)
        fatal("trace_v2: '%s': warm start %llu beyond the %llu "
              "references in the trace",
              path.c_str(),
              static_cast<unsigned long long>(warmStart_),
              static_cast<unsigned long long>(count_));

    std::uint64_t chunk = std::min<std::uint64_t>(count_, ioChunkRecords);
    ioBuffer_.resize(static_cast<std::size_t>(chunk) * v2::recordBytes);
}

V2FileSource::~V2FileSource()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::size_t
V2FileSource::fill(Ref *out, std::size_t max)
{
    std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        {max, count_ - pos_, ioBuffer_.size() / v2::recordBytes}));
    if (n == 0)
        return 0;
    std::size_t bytes = n * v2::recordBytes;
    ssize_t got = ::pread(
        fd_, ioBuffer_.data(), bytes,
        static_cast<off_t>(v2::headerBytes + pos_ * v2::recordBytes));
    if (got != static_cast<ssize_t>(bytes))
        fatal("trace_v2: '%s': short read at record %llu", name_.c_str(),
              static_cast<unsigned long long>(pos_));
    for (std::size_t i = 0; i < n; ++i)
        out[i] = decodeRecord(ioBuffer_.data() + i * v2::recordBytes,
                              pos_ + i, name_.c_str());
    pos_ += n;
    return n;
}

void
writeV2(const Trace &trace, const std::string &path)
{
    V2Writer writer(path, trace.warmStart());
    for (const Ref &ref : trace.refs())
        writer.push(ref);
    writer.close();
}

} // namespace cachetime
