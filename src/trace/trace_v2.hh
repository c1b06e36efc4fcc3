/**
 * @file
 * Binary trace format v2: fixed-size records behind a small header,
 * designed for multi-gigabyte traces replayed at bounded RSS.
 *
 * Layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     8  magic "CTTRACE2"
 *        8     4  version (2)
 *       12     4  reserved (0)
 *       16     8  reference count
 *       24     8  warm-start boundary (refs; must be <= count)
 *       32   11n  records: addr u64, pid u16, kind u8 (packed)
 *
 * The record section's length must match the header count exactly;
 * anything else is a truncated or corrupt file and a fatal error.
 * V2Writer streams records to disk without materializing the trace
 * (the count is patched into the header on close), and V2FileSource
 * replays a file through the RefSource interface in bounded pread
 * chunks, so peak memory is independent of trace length.
 */

#ifndef CACHETIME_TRACE_TRACE_V2_HH
#define CACHETIME_TRACE_TRACE_V2_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/ref_source.hh"

namespace cachetime
{

namespace v2
{
constexpr char magic[8] = {'C', 'T', 'T', 'R', 'A', 'C', 'E', '2'};
constexpr std::uint32_t version = 2;
constexpr std::size_t headerBytes = 32;
constexpr std::size_t recordBytes = 11;
} // namespace v2

/**
 * Incremental format-v2 writer.  push() appends one record through
 * a bounded buffer; close() (or the destructor) patches the final
 * count into the header.  Any I/O failure is fatal.
 */
class V2Writer
{
  public:
    /**
     * @param path       output file (created/truncated)
     * @param warm_start warm boundary recorded in the header
     */
    explicit V2Writer(const std::string &path,
                      std::uint64_t warm_start = 0);
    ~V2Writer();

    V2Writer(const V2Writer &) = delete;
    V2Writer &operator=(const V2Writer &) = delete;

    /** Append one reference. */
    void push(const Ref &ref);

    /** @return records written so far. */
    std::uint64_t count() const { return count_; }

    /** Flush, patch the header and close the file. */
    void close();

  private:
    void flushBuffer();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t warmStart_ = 0;
    std::uint64_t count_ = 0;
    std::vector<unsigned char> buffer_;
};

/**
 * Streaming reader for a format-v2 file.  The header is validated up
 * front (magic, version, record-section length, warm boundary);
 * corrupt files are a fatal error, never UB.  fill() preads at most
 * one bounded chunk of records (~704KB) into a buffer and decodes it
 * on the fly, so resident memory is independent of trace length.
 */
class V2FileSource : public RefSource
{
  public:
    explicit V2FileSource(const std::string &path);
    ~V2FileSource() override;

    V2FileSource(const V2FileSource &) = delete;
    V2FileSource &operator=(const V2FileSource &) = delete;

    const std::string &name() const override { return name_; }
    std::uint64_t size() const override { return count_; }
    std::size_t warmStart() const override
    {
        return static_cast<std::size_t>(warmStart_);
    }
    void reset() override { pos_ = 0; }
    std::size_t fill(Ref *out, std::size_t max) override;

  private:
    std::string name_;
    int fd_ = -1;
    std::uint64_t count_ = 0;
    std::uint64_t warmStart_ = 0;
    std::uint64_t pos_ = 0;               ///< next record index
    std::vector<unsigned char> ioBuffer_; ///< one pread chunk
};

/** Write @p trace to @p path in format v2. */
void writeV2(const Trace &trace, const std::string &path);

} // namespace cachetime

#endif // CACHETIME_TRACE_TRACE_V2_HH
