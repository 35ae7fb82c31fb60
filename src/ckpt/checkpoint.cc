#include "ckpt/checkpoint.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/codec.hh"

namespace tdfe
{

namespace ckpt
{

namespace
{

constexpr char envelopeMagic[8] = {'T', 'D', 'C', 'K',
                                   'E', 'N', 'V', '1'};
constexpr std::uint32_t envelopeVersion = 1;
constexpr char generationSuffix[] = ".tdck";

/** Split @p prefix into (directory, basename) for the scan. */
void
splitPrefix(const std::string &prefix, std::string *dir,
            std::string *base)
{
    const std::size_t slash = prefix.find_last_of('/');
    if (slash == std::string::npos) {
        *dir = ".";
        *base = prefix;
    } else {
        *dir = prefix.substr(0, slash == 0 ? 1 : slash);
        *base = prefix.substr(slash + 1);
    }
}

/** Envelope bytes before the payload (magic .. header CRC). */
constexpr std::size_t headerBytes = 36;
/** Envelope bytes after the payload (its CRC). */
constexpr std::size_t trailerBytes = 4;

/** @return @p payload in the envelope of @p iteration. */
std::vector<std::uint8_t>
encodeEnvelope(const std::string &payload, std::uint64_t iteration)
{
    std::vector<std::uint8_t> out(envelopeMagic, envelopeMagic + 8);
    out.reserve(headerBytes + payload.size() + trailerBytes);
    store::putU32(out, envelopeVersion);
    store::putU32(out, 0); // reserved
    store::putU64(out, iteration);
    store::putU64(out, payload.size());
    store::putU32(out, store::crc32(out.data(), 32));
    const auto *p =
        reinterpret_cast<const std::uint8_t *>(payload.data());
    out.insert(out.end(), p, p + payload.size());
    store::putU32(out, store::crc32(p, payload.size()));
    return out;
}

/** Record @p error as @p info's verdict. @return false. */
bool
reject(EnvelopeInfo &info, const std::string &error)
{
    info.error = error;
    return false;
}

/**
 * Validate the envelope held in @p bytes into @p info: size, magic,
 * header CRC, version, exact length, payload CRC, in that order.
 * @p info gets every header field that parses, even for a rejected
 * envelope. @return info.valid — the payload then starts at
 * `bytes.data() + headerBytes`.
 */
bool
decodeEnvelope(const std::vector<std::uint8_t> &bytes,
               EnvelopeInfo &info)
{
    info.fileBytes = bytes.size();
    if (bytes.size() < headerBytes + trailerBytes)
        return reject(info, "file too small for an envelope (" +
                                std::to_string(bytes.size()) +
                                " bytes)");
    if (std::memcmp(bytes.data(), envelopeMagic, 8) != 0)
        return reject(info, "bad magic");
    store::ByteReader r(bytes.data() + 8, headerBytes - 8);
    info.version = r.u32();
    r.skip(4); // reserved
    info.iteration = r.u64();
    info.payloadBytes = r.u64();
    if (r.u32() != store::crc32(bytes.data(), 32))
        return reject(info,
                      "header CRC mismatch (torn or corrupt header)");
    if (info.version != envelopeVersion)
        return reject(info, "unsupported version " +
                                std::to_string(info.version));
    const std::size_t body = bytes.size() - headerBytes - trailerBytes;
    if (info.payloadBytes != body)
        return reject(info, "size mismatch: header promises " +
                                std::to_string(info.payloadBytes) +
                                " payload bytes, file has " +
                                std::to_string(body) + " (torn write)");
    const std::uint8_t *payload = bytes.data() + headerBytes;
    store::ByteReader crc(payload + body, trailerBytes);
    info.payloadCrc = crc.u32();
    if (info.payloadCrc != store::crc32(payload, body))
        return reject(info, "payload CRC mismatch (corrupt payload)");
    info.valid = true;
    return true;
}

/**
 * Read and validate the envelope at @p path into @p bytes. @p info
 * gets everything parseable, even for a rejected file.
 */
void
loadEnvelope(const std::string &path, std::vector<std::uint8_t> &bytes,
             EnvelopeInfo &info)
{
    // No size cap: a checkpoint is as large as the state it holds.
    const store::IoError io = store::readWholeFile(
        {}, path, std::numeric_limits<std::uint64_t>::max(), bytes);
    if (io.ok())
        decodeEnvelope(bytes, info);
    else
        info.error = io.message;
}

/** Best-effort fsync of the directory holding @p path so the rename
 *  itself survives node loss (matters only under SyncPerSeal). */
void
syncParentDir(const std::string &path)
{
    std::string dir, base;
    splitPrefix(path, &dir, &base);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

volatile std::sig_atomic_t interruptFlag = 0;

extern "C" void
sentinelHandler(int)
{
    interruptFlag = 1;
}

} // namespace

CkptStatus
writeCheckpointFile(const std::string &path,
                    const std::string &payload,
                    std::uint64_t iteration, const WriteOptions &opts)
{
    const std::vector<std::uint8_t> envelope =
        encodeEnvelope(payload, iteration);
    const CkptStatus st = store::publishFile(path, envelope.data(),
                                             envelope.size(), opts);
    // CheckpointSet prunes older generations after a save, so the
    // rename itself must survive node loss under SyncPerSeal.
    if (st.ok() &&
        opts.durability == store::DurabilityPolicy::SyncPerSeal)
        syncParentDir(path);
    return st;
}

bool
readCheckpointFile(const std::string &path, std::string *payload,
                   std::uint64_t *iteration, std::string *error)
{
    std::vector<std::uint8_t> bytes;
    EnvelopeInfo info;
    loadEnvelope(path, bytes, info);
    if (!info.valid) {
        if (error)
            *error = info.error;
        return false;
    }
    if (payload)
        payload->assign(reinterpret_cast<const char *>(bytes.data()) +
                            headerBytes,
                        static_cast<std::size_t>(info.payloadBytes));
    if (iteration)
        *iteration = info.iteration;
    return true;
}

EnvelopeInfo
inspectCheckpointFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EnvelopeInfo info;
    loadEnvelope(path, bytes, info);
    return info;
}

std::string
generationPath(const std::string &prefix, std::uint64_t iteration)
{
    char num[32];
    std::snprintf(num, sizeof(num), "%06llu",
                  static_cast<unsigned long long>(iteration));
    return prefix + "." + num + generationSuffix;
}

std::vector<Generation>
listGenerations(const std::string &prefix)
{
    std::string dir, base;
    splitPrefix(prefix, &dir, &base);
    std::vector<Generation> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    const std::string head = base + ".";
    const std::string tail = generationSuffix;
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() <= head.size() + tail.size())
            continue;
        if (name.compare(0, head.size(), head) != 0)
            continue;
        if (name.compare(name.size() - tail.size(), tail.size(),
                         tail) != 0)
            continue;
        const std::string digits = name.substr(
            head.size(), name.size() - head.size() - tail.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            continue;
        Generation g;
        g.iteration = std::strtoull(digits.c_str(), nullptr, 10);
        g.path = (dir == "." && prefix.find('/') == std::string::npos)
                     ? name
                     : dir + "/" + name;
        out.push_back(std::move(g));
    }
    ::closedir(d);
    std::sort(out.begin(), out.end(),
              [](const Generation &a, const Generation &b) {
                  return a.iteration > b.iteration;
              });
    return out;
}

CheckpointSet::CheckpointSet(std::string prefix, int keep,
                             store::DurabilityPolicy durability)
    : prefix_(std::move(prefix)), keep_(std::max(keep, 1)),
      durability_(durability)
{
}

bool
CheckpointSet::save(std::uint64_t iteration,
                    const std::string &payload)
{
    obs::SpanTimer span("ckpt.save", "ckpt");
    WriteOptions opts;
    opts.durability = durability_;
    if (writeHook_)
        writeHook_(iteration, opts);
    const std::string path = generationPath(prefix_, iteration);
    const CkptStatus st =
        writeCheckpointFile(path, payload, iteration, opts);
    if (!st.ok()) {
        // Sticky, like the store sink: the run continues, the
        // harness reports the first failure. Later saves still try —
        // a transient full scratch may drain.
        if (!degraded_) {
            degraded_ = true;
            status_ = st;
        }
        warnOnce(warned_, "ckpt",
                 detail::concatMessage(
                     "checkpoint set '", prefix_,
                     "' degraded (the run continues): ",
                     st.message));
        return false;
    }
    ++saved_;
    static obs::Counter writes("ckpt.writes_total");
    writes.add();
    static obs::Counter bytes("ckpt.bytes_written_total");
    bytes.add(payload.size());
    pruneOld();
    return true;
}

bool
CheckpointSet::openNewestValid(std::string *payload,
                               std::uint64_t *iteration,
                               std::string *path) const
{
    for (const Generation &g : listGenerations(prefix_)) {
        std::string error;
        if (readCheckpointFile(g.path, payload, iteration, &error)) {
            if (path)
                *path = g.path;
            return true;
        }
    }
    return false;
}

void
CheckpointSet::pruneOld() const
{
    const std::vector<Generation> gens = listGenerations(prefix_);
    for (std::size_t i = static_cast<std::size_t>(keep_);
         i < gens.size(); ++i)
        std::remove(gens[i].path.c_str());
}

void
installSignalSentinel()
{
    std::signal(SIGINT, sentinelHandler);
    std::signal(SIGTERM, sentinelHandler);
}

bool
interruptRequested()
{
    return interruptFlag != 0;
}

void
clearInterruptRequest()
{
    interruptFlag = 0;
}

void
requestInterrupt()
{
    interruptFlag = 1;
}

} // namespace ckpt

} // namespace tdfe
