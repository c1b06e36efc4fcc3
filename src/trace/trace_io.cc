#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

/** Magic of CTTRACE1, the retired first binary format. */
constexpr char retiredMagic[8] = {'C', 'T', 'T', 'R', 'A', 'C', 'E', '1'};

RefKind
kindFromChar(char c)
{
    switch (c) {
      case 'I':
      case 'i':
        return RefKind::IFetch;
      case 'L':
      case 'l':
        return RefKind::Load;
      case 'S':
      case 's':
        return RefKind::Store;
      default:
        fatal("trace_io: unknown reference kind '%c'", c);
    }
}

bool
hasSuffix(const std::string &text, const char *suffix)
{
    std::string s(suffix);
    return text.size() >= s.size() &&
           text.compare(text.size() - s.size(), s.size(), s) == 0;
}

/**
 * The one reader of the line formats, text and Dinero.
 *
 * A RefSource promises size() and warmStart() up front, so
 * construction makes one pass over the lines: it counts the
 * references, reads #warmstart (the last directive wins) and rejects
 * a malformed line before anything runs.  fill() then parses lines
 * as they are consumed, and reset() seeks back to where the first
 * pass began, so the source holds one line at a time however long
 * the trace.  Both passes parse through parse(), so they accept the
 * same language.
 */
class LineSource : public RefSource
{
  public:
    /** Read @p is, which must be seekable and outlive the source. */
    LineSource(std::istream &is, std::string name, bool dinero);

    /** Read @p file, which the source owns. */
    LineSource(std::unique_ptr<std::istream> file, std::string name,
               bool dinero)
        : LineSource(*file, std::move(name), dinero)
    {
        file_ = std::move(file);
    }

    const std::string &name() const override { return name_; }
    std::uint64_t size() const override { return count_; }
    std::size_t warmStart() const override { return warmStart_; }
    void reset() override;
    std::size_t fill(Ref *out, std::size_t max) override;

  private:
    /** Read the next line into line_; @return false at end of input. */
    bool nextLine();

    /**
     * Parse line_.  @return true when it is a reference, stored in
     * @p ref; a #warmstart directive sets @p warm_start instead.
     * Blank lines, comments and Dinero's ignored labels return false;
     * a malformed line is a fatal error.
     */
    bool parse(Ref &ref, std::size_t &warm_start);

    std::unique_ptr<std::istream> file_;
    std::istream &is_;
    std::string name_;
    bool dinero_;
    std::streampos start_;
    std::uint64_t count_ = 0;
    std::size_t warmStart_ = 0;
    std::uint64_t pos_ = 0; ///< references produced since reset()
    std::size_t lineno_ = 0;
    std::string line_;
    std::istringstream ss_; ///< reused for every line
};

LineSource::LineSource(std::istream &is, std::string name, bool dinero)
    : is_(is), name_(std::move(name)), dinero_(dinero),
      start_(is.tellg())
{
    if (start_ == std::streampos(-1))
        fatal("trace_io: '%s': the trace stream cannot be rewound",
              name_.c_str());
    Ref ref;
    std::size_t warm_start = 0;
    while (nextLine())
        if (parse(ref, warm_start))
            ++count_;
    if (warm_start > count_)
        fatal("trace_io: #warmstart %zu beyond the %zu references "
              "in the trace",
              warm_start, static_cast<std::size_t>(count_));
    warmStart_ = warm_start;
    reset();
}

void
LineSource::reset()
{
    is_.clear();
    is_.seekg(start_);
    if (!is_)
        fatal("trace_io: '%s': cannot rewind the trace", name_.c_str());
    pos_ = 0;
    lineno_ = 0;
}

bool
LineSource::nextLine()
{
    if (!std::getline(is_, line_)) {
        if (is_.bad())
            fatal("trace_io: '%s': read error after line %zu",
                  name_.c_str(), lineno_);
        return false;
    }
    ++lineno_;
    return true;
}

std::size_t
LineSource::fill(Ref *out, std::size_t max)
{
    std::size_t n = 0;
    std::size_t warm_start = 0;
    while (n < max && pos_ < count_) {
        if (!nextLine())
            fatal("trace_io: '%s' ended after %llu of its %llu "
                  "references",
                  name_.c_str(), static_cast<unsigned long long>(pos_),
                  static_cast<unsigned long long>(count_));
        if (parse(out[n], warm_start)) {
            ++n;
            ++pos_;
        }
    }
    return n;
}

bool
LineSource::parse(Ref &ref, std::size_t &warm_start)
{
    const std::string &line = line_;
    if (line.empty())
        return false;
    if (line[0] == '#') {
        if (!dinero_) {
            ss_.str(line);
            ss_.clear();
            std::string directive;
            ss_ >> directive;
            if (directive == "#warmstart")
                ss_ >> warm_start;
        }
        return false;
    }
    ss_.str(line);
    ss_.clear();
    if (dinero_) {
        unsigned label;
        std::uint64_t byte_addr;
        ss_ >> label >> std::hex >> byte_addr >> std::dec;
        if (ss_.fail())
            fatal("trace_io: malformed din line %zu: '%s'", lineno_,
                  line.c_str());
        switch (label) {
          case 0:
            ref = {byte_addr / wordBytes, RefKind::Load, 0};
            return true;
          case 1:
            ref = {byte_addr / wordBytes, RefKind::Store, 0};
            return true;
          case 2:
            ref = {byte_addr / wordBytes, RefKind::IFetch, 0};
            return true;
          default:
            return false; // dineroIV ignores other labels
        }
    }
    std::string kind;
    std::uint64_t addr;
    ss_ >> kind >> std::hex >> addr >> std::dec;
    if (kind.empty() || ss_.fail())
        fatal("trace_io: malformed trace line %zu: '%s'", lineno_,
              line.c_str());
    // The pid column is optional (the classic din dialect has
    // none); only a present-but-unparseable pid is malformed.
    std::uint64_t pid = 0;
    ss_ >> std::ws;
    if (!ss_.eof() && !(ss_ >> pid))
        fatal("trace_io: malformed pid on trace line %zu: '%s'",
              lineno_, line.c_str());
    // The fused probe key reserves exactly 16 bits for the pid,
    // so a wider pid would silently alias another process.
    if (pid > std::numeric_limits<Pid>::max())
        fatal("trace_io: pid %llu on trace line %zu exceeds the "
              "16-bit pid limit",
              static_cast<unsigned long long>(pid), lineno_);
    ref = {addr, kindFromChar(kind[0]), static_cast<Pid>(pid)};
    return true;
}

} // namespace

void
writeText(const Trace &trace, std::ostream &os)
{
    os << "# cachetime text trace: " << trace.name() << '\n';
    os << "#warmstart " << trace.warmStart() << '\n';
    for (const Ref &ref : trace.refs()) {
        os << refKindName(ref.kind) << ' ' << std::hex << ref.addr
           << std::dec << ' ' << ref.pid << '\n';
    }
}

Trace
readText(std::istream &is, const std::string &name)
{
    LineSource source(is, name, false);
    return materialize(source);
}

Trace
readDinero(std::istream &is, const std::string &name)
{
    LineSource source(is, name, true);
    return materialize(source);
}

void
writeDinero(const Trace &trace, std::ostream &os, bool strict_pids)
{
    bool multi_pid = false;
    if (!trace.refs().empty()) {
        Pid first = trace.refs().front().pid;
        for (const Ref &ref : trace.refs()) {
            if (ref.pid != first) {
                multi_pid = true;
                break;
            }
        }
    }
    if (multi_pid) {
        if (strict_pids)
            fatal("trace_io: trace '%s' has more than one pid; the "
                  "din format is uniprocess and cannot represent it",
                  trace.name().c_str());
        warn("trace_io: trace '%s' has more than one pid; the din "
             "format is uniprocess, so pids are dropped and the "
             "trace will not round-trip",
             trace.name().c_str());
    }
    for (const Ref &ref : trace.refs()) {
        unsigned label = 0;
        switch (ref.kind) {
          case RefKind::Load:
            label = 0;
            break;
          case RefKind::Store:
            label = 1;
            break;
          case RefKind::IFetch:
            label = 2;
            break;
        }
        os << label << ' ' << std::hex << ref.addr * wordBytes
           << std::dec << '\n';
    }
}

std::string
workloadNameFromPath(const std::string &path)
{
    std::string name = path;
    if (auto slash = name.find_last_of('/'); slash != std::string::npos)
        name = name.substr(slash + 1);
    if (auto dot = name.find_last_of('.'); dot != std::string::npos)
        name = name.substr(0, dot);
    return name;
}

std::unique_ptr<RefSource>
openRefSource(const std::string &path)
{
    auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*file)
        fatal("trace_io: cannot open '%s'", path.c_str());
    char magic[sizeof(v2::magic)];
    file->read(magic, sizeof(magic));
    if (file->bad())
        fatal("trace_io: cannot read '%s'", path.c_str());
    if (file->gcount() == sizeof(magic)) {
        if (std::memcmp(magic, v2::magic, sizeof(magic)) == 0)
            return std::make_unique<V2FileSource>(path);
        if (std::memcmp(magic, retiredMagic, sizeof(magic)) == 0)
            fatal("trace_io: '%s' is a CTTRACE1 trace, a retired "
                  "format; convert it to CTTRACE2 with an older "
                  "build's trace_tool convert",
                  path.c_str());
    }
    file->clear();
    file->seekg(0);
    return std::make_unique<LineSource>(
        std::move(file), workloadNameFromPath(path),
        hasSuffix(path, ".din"));
}

Trace
loadFile(const std::string &path)
{
    return materialize(*openRefSource(path));
}

void
saveFile(const Trace &trace, const std::string &path)
{
    bool text = hasSuffix(path, ".txt");
    if (!text && !hasSuffix(path, ".din")) {
        writeV2(trace, path);
        return;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("trace_io: cannot create '%s'", path.c_str());
    if (text)
        writeText(trace, os);
    else
        writeDinero(trace, os);
    if (!os)
        fatal("trace_io: write to '%s' failed", path.c_str());
}

} // namespace cachetime
