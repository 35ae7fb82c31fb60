#include "ckpt/checkpoint.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

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
    if (!io.ok()) {
        info.error = io.message;
        return;
    }
    info.fileBytes = bytes.size();
    store::FrameInfo frame;
    info.valid = store::decodeFrame(envelopeMagic, envelopeVersion,
                                    bytes, frame, &info.error);
    info.version = frame.version;
    info.iteration = frame.counter;
    info.payloadBytes = frame.payloadBytes;
    info.payloadCrc = frame.payloadCrc;
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
    std::vector<std::uint8_t> frame;
    store::encodeFrame(envelopeMagic, envelopeVersion, iteration,
                       payload.data(), payload.size(), frame);
    const CkptStatus st =
        store::publishFile(path, frame.data(), frame.size(), opts);
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
                            store::frameHeaderBytes,
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
