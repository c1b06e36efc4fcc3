/**
 * @file
 * Binary state serialization for live-points checkpoints.
 *
 * Checkpointed simulator state must survive a round trip through a
 * file byte for byte: the continuation of a restored run is required
 * to be bit-identical to the uninterrupted run (tests enforce it).
 * StateWriter/StateReader therefore use a fixed little-endian wire
 * encoding, independent of host struct layout, and every read is
 * bounds-checked so a truncated or corrupted checkpoint dies with a
 * clean fatal() instead of reading garbage - the same contract the
 * trace loaders follow (DESIGN.md section 8), which lets the I/O
 * fuzzer cover the checkpoint format too.
 *
 * The format is tagged sections: beginSection()/endSection() wrap a
 * component's fields with a tag and a byte length, so a reader that
 * does not care about a section (the warm-state-only restore path)
 * can skip it without knowing its contents.
 */

#ifndef CACHETIME_UTIL_SERIALIZE_HH
#define CACHETIME_UTIL_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace cachetime
{

/** Appends typed fields to a growable byte buffer. */
class StateWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v) { le<4>(v); }
    void u64(std::uint64_t v) { le<8>(v); }

    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }

    /** Raw bytes, length not encoded (pair with a u64 count). */
    void bytes(const void *data, std::size_t n);

    /**
     * Open a tagged section; fields written until the matching
     * endSection() belong to it.  Sections do not nest.
     * @param tag a four-character code, e.g. "L1D\0".
     */
    void beginSection(const char tag[4]);

    /** Close the open section, patching its byte length. */
    void endSection();

    const std::string &buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

    /**
     * Empty the buffer for a new record, keeping its capacity, so a
     * writer reused per record grows its buffer once.
     */
    void
    clear()
    {
        buf_.clear();
        inSection_ = false;
    }

  private:
    /**
     * Append the low @p N bytes of @p v, least significant first, in
     * one append: a checkpoint writes every cache line's fields, and
     * a byte-wise push_back the compiler leaves out of line costs a
     * call per byte.
     */
    template <int N>
    void
    le(std::uint64_t v)
    {
        char bytes[N];
        for (int i = 0; i < N; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        buf_.append(bytes, N);
    }

    std::string buf_;
    std::size_t sectionStart_ = 0; ///< offset of open section's length
    bool inSection_ = false;
};

/**
 * Reads typed fields back from a byte buffer.  Every accessor
 * fatal()s with @p what context if the buffer is exhausted - a
 * malformed checkpoint must never turn into out-of-bounds reads or
 * garbage state.
 */
class StateReader
{
  public:
    /** @param what diagnostic context, e.g. the file path. */
    StateReader(const void *data, std::size_t size, std::string what);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    bool b();

    /** Copy @p n raw bytes out (bounds-checked). */
    void bytes(void *out, std::size_t n);

    /**
     * Read the next section header.  @return its tag as a 4-char
     * string; the reader is positioned at the section payload and
     * remembers its extent.
     */
    std::string beginSection();

    /** @return bytes left in the open section. */
    std::size_t sectionRemaining() const;

    /**
     * Finish the open section: fatal() unless exactly its declared
     * length was consumed (a length mismatch means the writer and
     * reader disagree about the format).
     */
    void endSection();

    /** Skip the remainder of the open section. */
    void skipSection();

    /** @return bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** @return true when the whole buffer was consumed. */
    bool atEnd() const { return pos_ == size_; }

  private:
    void need(std::size_t n) const;

    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
    std::string what_;
};

} // namespace cachetime

#endif // CACHETIME_UTIL_SERIALIZE_HH
