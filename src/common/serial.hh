#ifndef TENSORDASH_COMMON_SERIAL_HH_
#define TENSORDASH_COMMON_SERIAL_HH_

/**
 * @file
 * Versioned binary serialization primitives.
 *
 * Simulation results round-trip through an explicit little-endian
 * byte format so that (a) a result cached on disk re-reads bit-exactly
 * — doubles travel as their IEEE-754 bit patterns, never through text
 * — and (b) a SweepResult computed on one machine merges exactly on
 * another.  The format is intentionally dumb: fixed-width fields
 * written in declaration order behind a magic + version header; any
 * layout change bumps the version and old blobs are treated as cache
 * misses, never migrated.
 *
 * ByteReader never throws on truncated or corrupt input: reads past
 * the end return zero and latch ok() == false, so callers treat bad
 * blobs as misses with a single check.
 */

#include <bit>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace tensordash {

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8((uint8_t)(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8((uint8_t)(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u32((uint32_t)s.size());
        for (char c : s)
            u8((uint8_t)c);
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked reader over a byte buffer; truncation latches !ok(). */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t len) : data_(data), len_(len) {}
    explicit ByteReader(const std::vector<uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    uint8_t
    u8()
    {
        if (pos_ >= len_) {
            ok_ = false;
            return 0;
        }
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)u8() << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)u8() << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    /** A bool is the byte 0 or 1, as ByteWriter::b writes it; any
     * other byte latches !ok() instead of decoding to a value that
     * would re-serialize differently. */
    bool
    b()
    {
        const uint8_t v = u8();
        if (v > 1)
            ok_ = false;
        return v == 1;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        if (n > remaining()) {
            ok_ = false;
            return "";
        }
        std::string s((const char *)data_ + pos_, n);
        pos_ += n;
        return s;
    }

    size_t remaining() const { return len_ - pos_; }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return ok_; }

    /** Latch !ok() from caller-side validation (e.g. a count field
     * exceeding a structural bound), joining the truncation path. */
    void fail() { ok_ = false; }

    /** True when the whole buffer was consumed without truncation. */
    bool atEnd() const { return ok_ && pos_ == len_; }

  private:
    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Read a whole file into @p out; false on any I/O error. */
bool readFileBytes(const std::string &path, std::vector<uint8_t> *out);

/**
 * Read at most the first @p max_bytes of a file into @p out (the file
 * may be shorter).  Cache-inspection tools read just the fixed-size
 * blob header this way instead of pulling whole entries into memory.
 * @return false on any I/O error.
 */
bool readFileHead(const std::string &path, size_t max_bytes,
                  std::vector<uint8_t> *out);

/**
 * Write @p data to @p path atomically (temp file + rename), so a
 * concurrent reader — another sweep process sharing the cache dir —
 * never observes a half-written blob.  @return false on I/O error.
 */
bool writeFileBytes(const std::string &path,
                    const std::vector<uint8_t> &data);

} // namespace tensordash

#endif // TENSORDASH_COMMON_SERIAL_HH_
