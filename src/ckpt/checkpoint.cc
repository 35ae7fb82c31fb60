#include "ckpt/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"
#include "base/portable.hh"
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
constexpr std::size_t headerBytes = 36; // magic..headerCrc inclusive
constexpr std::size_t trailerBytes = 4; // payload CRC
constexpr char generationSuffix[] = ".tdck";

void
appendU32(std::string &out, std::uint32_t v)
{
    char b[4];
    std::memcpy(b, &v, sizeof(v));
    out.append(b, sizeof(b));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char b[8];
    std::memcpy(b, &v, sizeof(v));
    out.append(b, sizeof(b));
}

std::uint32_t
loadU32(const char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
loadU64(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

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

/** Read a whole file into @p out. @return false when unreadable. */
bool
slurp(const std::string &path, std::string *out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    out->resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!out->empty())
        in.read(&(*out)[0],
                static_cast<std::streamsize>(out->size()));
    if (in.gcount() != static_cast<std::streamsize>(out->size())) {
        if (error)
            *error = "short read of '" + path + "'";
        return false;
    }
    return true;
}

/**
 * Parse + validate an envelope held in memory. Fills @p info with
 * everything parseable even when invalid.
 */
void
parseEnvelope(const std::string &bytes, EnvelopeInfo *info,
              std::string *payload)
{
    info->fileBytes = bytes.size();
    if (bytes.size() < headerBytes + trailerBytes) {
        info->error = "file too small for a checkpoint envelope (" +
                      std::to_string(bytes.size()) + " bytes)";
        return;
    }
    if (std::memcmp(bytes.data(), envelopeMagic,
                    sizeof(envelopeMagic)) != 0) {
        info->error = "bad magic (not a checkpoint envelope)";
        return;
    }
    info->version = loadU32(bytes.data() + 8);
    info->iteration = loadU64(bytes.data() + 16);
    info->payloadBytes = loadU64(bytes.data() + 24);
    const std::uint32_t header_crc = loadU32(bytes.data() + 32);
    const std::uint32_t header_crc_want =
        store::crc32(bytes.data(), 32);
    if (header_crc != header_crc_want) {
        info->error = "header CRC mismatch (torn or corrupt header)";
        return;
    }
    if (info->version != envelopeVersion) {
        info->error = "unsupported envelope version " +
                      std::to_string(info->version);
        return;
    }
    if (bytes.size() !=
        headerBytes + info->payloadBytes + trailerBytes) {
        info->error =
            "size mismatch: header promises " +
            std::to_string(info->payloadBytes) + " payload bytes, " +
            "file has " +
            std::to_string(bytes.size() - headerBytes -
                           trailerBytes) +
            " (torn write)";
        return;
    }
    const char *body = bytes.data() + headerBytes;
    info->payloadCrc =
        loadU32(body + info->payloadBytes);
    const std::uint32_t payload_crc_want =
        store::crc32(body, static_cast<std::size_t>(
                               info->payloadBytes));
    if (info->payloadCrc != payload_crc_want) {
        info->error = "payload CRC mismatch (corrupt payload)";
        return;
    }
    info->valid = true;
    if (payload)
        payload->assign(body, static_cast<std::size_t>(
                                  info->payloadBytes));
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
    // Assemble the whole envelope first so the file sees exactly one
    // write call — an injected crash-at-byte-N then tears the file at
    // precisely that offset, independent of buffering.
    std::string env;
    env.reserve(headerBytes + payload.size() + trailerBytes);
    env.append(envelopeMagic, sizeof(envelopeMagic));
    appendU32(env, envelopeVersion);
    appendU32(env, 0); // reserved
    appendU64(env, iteration);
    appendU64(env, payload.size());
    appendU32(env, store::crc32(env.data(), 32));
    env.append(payload);
    appendU32(env, store::crc32(payload.data(), payload.size()));

    const std::string tmp = path + ".tmp";
    store::IoError err;
    std::unique_ptr<store::StoreFile> file =
        store::openOsFile(tmp, &err);
    if (!file) {
        return {err.code != 0 ? err.code : EIO,
                "cannot open '" + tmp + "': " + err.message};
    }
    if (opts.wrapFile)
        file = opts.wrapFile(std::move(file));

    CkptStatus bad;
    err = file->write(env.data(), env.size());
    if (!err.ok()) {
        bad = {err.code, "write to '" + tmp + "' failed: " +
                             err.message};
    }
    if (bad.ok()) {
        switch (opts.durability) {
          case store::DurabilityPolicy::None:
            break;
          case store::DurabilityPolicy::FlushPerSeal:
            err = file->flush();
            break;
          case store::DurabilityPolicy::SyncPerSeal:
            err = file->sync();
            break;
        }
        if (!err.ok())
            bad = {err.code, "durability on '" + tmp +
                                 "' failed: " + err.message};
    }
    err = file->close();
    if (bad.ok() && !err.ok())
        bad = {err.code, "close of '" + tmp + "' failed: " +
                             err.message};
    if (!bad.ok()) {
        std::remove(tmp.c_str());
        return bad;
    }
    if (opts.skipRename) {
        // Injected crash-before-publish: the durable tmp file is
        // abandoned exactly as a real crash would leave it.
        return {};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int e = errno;
        std::remove(tmp.c_str());
        return {e != 0 ? e : EIO, "rename '" + tmp + "' -> '" + path +
                                      "' failed"};
    }
    if (opts.durability == store::DurabilityPolicy::SyncPerSeal)
        syncParentDir(path);
    return {};
}

bool
readCheckpointFile(const std::string &path, std::string *payload,
                   std::uint64_t *iteration, std::string *error)
{
    std::string bytes;
    std::string slurp_error;
    if (!slurp(path, &bytes, &slurp_error)) {
        if (error)
            *error = slurp_error;
        return false;
    }
    EnvelopeInfo info;
    parseEnvelope(bytes, &info, payload);
    if (!info.valid) {
        if (error)
            *error = info.error;
        return false;
    }
    if (iteration)
        *iteration = info.iteration;
    return true;
}

EnvelopeInfo
inspectCheckpointFile(const std::string &path)
{
    EnvelopeInfo info;
    std::string bytes;
    if (!slurp(path, &bytes, &info.error))
        return info;
    parseEnvelope(bytes, &info, nullptr);
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
