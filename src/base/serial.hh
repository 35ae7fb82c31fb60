/**
 * @file
 * Minimal binary serialization for checkpoint/restart: fixed-width
 * little-endian primitives and length-prefixed vectors. Both halves
 * work on in-memory bytes: the writer appends to a caller-owned
 * std::string (the payload type CheckpointSet::save takes), and the
 * reader parses such a string (a checkpoint payload, a trace file
 * read whole) through store::ByteReader, capping every count it
 * reads — a vector or tag length — by the bytes remaining before it
 * allocates or copies anything. The library's checkpoint model
 * mirrors gem5's: configuration is reconstructed by the application
 * (the same code that built the objects the first time), and only
 * *mutable state* travels through the checkpoint, guarded by
 * magic/version tags and shape checks on load.
 *
 * Error model: appending to memory cannot fail, so the writer has
 * no error state. Damaged bytes (truncation, tag skew, corrupt
 * lengths) are an environment fact a resilient harness must
 * survive, not a library bug — so the reader never fatals on them.
 * The first mismatch latches a sticky error (ok() turns false,
 * error() says what and where) and every subsequent read returns
 * zeros without consuming input, so a load path can finish cheaply
 * and the caller (Region::loadCheckpoint, the auto-resume
 * supervisor) can fall back to an older checkpoint generation.
 * *Shape* disagreements observed through a healthy reader — a
 * checkpoint for a different model order or lattice — are fatal
 * (readVecInto, the component load() functions): that is caller
 * misconfiguration, not file damage.
 */

#ifndef TDFE_BASE_SERIAL_HH
#define TDFE_BASE_SERIAL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "store/codec.hh"

namespace tdfe
{

/** Sequential binary writer. */
class BinaryWriter
{
  public:
    /** Append to @p out (must outlive the writer). */
    explicit BinaryWriter(std::string &out) : buf(&out) {}

    /**
     * Write each field straight through to @p out (must outlive the
     * writer), so writes through this writer and direct writes to
     * @p out interleave in call order. The stream form exists for
     * the perfbench harness, which builds its checkpoint payload
     * over an ostringstream; nothing in the library calls it. The
     * caller checks its stream.
     */
    explicit BinaryWriter(std::ostream &out) : stream(&out) {}

    /** Fixed-width primitives. @{ */
    void writeU64(std::uint64_t v) { put(&v, sizeof(v)); }
    void writeI64(std::int64_t v) { put(&v, sizeof(v)); }
    void writeF64(double v) { put(&v, sizeof(v)); }
    void writeBool(bool v);
    /** @} */

    /** Length-prefixed double vector. */
    void writeVec(const std::vector<double> &v);

    /** Length-prefixed byte tag (magic / section names). */
    void writeTag(const std::string &tag);

  private:
    /** Append @p n raw bytes at @p data to the sink. */
    void put(const void *data, std::size_t n);

    std::string *buf = nullptr;
    std::ostream *stream = nullptr;
};

/**
 * Sequential binary reader over an in-memory byte range with a
 * sticky error latch: short reads, tag mismatches, and lengths the
 * remaining bytes cannot hold set ok() false and record a message
 * instead of fatal()ing; later reads return zeros (empty vectors).
 * Check ok() after a load to learn whether the values are real.
 */
class BinaryReader
{
  public:
    /** Read the @p size bytes at @p data (must outlive the reader). */
    BinaryReader(const void *data, std::size_t size)
        : in(static_cast<const std::uint8_t *>(data), size)
    {
    }

    /** Read @p bytes in place (must outlive the reader). @{ */
    explicit BinaryReader(const std::string &bytes)
        : BinaryReader(bytes.data(), bytes.size())
    {
    }
    BinaryReader(std::string &&) = delete;
    /** @} */

    /** Fixed-width primitives (0 once the reader has failed). @{ */
    std::uint64_t readU64() { return have(8) ? in.u64() : 0; }
    std::int64_t readI64() { return have(8) ? in.i64() : 0; }
    double readF64();
    bool readBool();
    /** @} */

    /** Length-prefixed double vector (empty after a failure). */
    std::vector<double> readVec();

    /**
     * Length-prefixed double vector read straight into @p dst, whose
     * size is the configured shape. Damage latches the error and
     * leaves @p dst untouched; a length that is present in full but
     * differs from dst.size() is fatal, naming @p what.
     */
    void readVecInto(std::vector<double> &dst, const char *what);

    /**
     * Read a tag and check it against the expectation; a mismatch
     * latches the error (section skew reported at the boundary
     * where it happened) and subsequent reads return zeros.
     */
    void expectTag(const std::string &tag);

    /** @return bytes not yet consumed. */
    std::size_t remaining() const { return in.remaining(); }

    /** @return true while no read has failed. */
    bool ok() const { return ok_; }

    /** @return the first failure's description ("" while ok). */
    const std::string &error() const { return error_; }

    /** Latch a failure (first one wins; loaders may add context). */
    void fail(const std::string &message);

  private:
    /** @return whether @p n more bytes can be read (false, with a
     *  truncation latched, when they are not there). */
    bool have(std::size_t n);

    /** Read a length prefix of @p unit-byte items; a length the
     *  remaining bytes cannot hold latches an error naming @p what.
     *  @return the length, 0 after a failure. */
    std::uint64_t readLength(std::size_t unit, const std::string &what);

    store::ByteReader in;
    bool ok_ = true;
    std::string error_;
};

} // namespace tdfe

#endif // TDFE_BASE_SERIAL_HH
