#include "store/frame.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/portable.hh"
#include "store/codec.hh"

namespace tdfe
{

namespace store
{

void
encodeFrame(const char (&magic)[8], std::uint32_t version,
            std::uint64_t counter, const void *payload, std::size_t n,
            std::vector<std::uint8_t> &out)
{
    out.clear();
    out.reserve(frameHeaderBytes + n + frameTrailerBytes);
    out.insert(out.end(), magic, magic + 8);
    putU32(out, version);
    putU32(out, 0); // reserved
    putU64(out, counter);
    putU64(out, n);
    putU32(out, crc32(out.data(), 32));
    const auto *p = static_cast<const std::uint8_t *>(payload);
    out.insert(out.end(), p, p + n);
    putU32(out, crc32(p, n));
}

namespace
{

bool
reject(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

} // namespace

bool
decodeFrame(const char (&magic)[8], std::uint32_t version,
            const std::vector<std::uint8_t> &bytes, FrameInfo &info,
            std::string *error)
{
    const std::size_t fixed = frameHeaderBytes + frameTrailerBytes;
    if (bytes.size() < fixed)
        return reject(error, "file too small for a frame (" +
                                 std::to_string(bytes.size()) +
                                 " bytes)");
    if (std::memcmp(bytes.data(), magic, 8) != 0)
        return reject(error, "bad magic");
    ByteReader r(bytes.data() + 8, frameHeaderBytes - 8);
    info.version = r.u32();
    r.skip(4); // reserved
    info.counter = r.u64();
    info.payloadBytes = r.u64();
    if (r.u32() != crc32(bytes.data(), 32))
        return reject(error,
                      "header CRC mismatch (torn or corrupt header)");
    if (info.version != version)
        return reject(error, "unsupported version " +
                                 std::to_string(info.version));
    const std::size_t body = bytes.size() - fixed;
    if (info.payloadBytes != body)
        return reject(error, "size mismatch: header promises " +
                                 std::to_string(info.payloadBytes) +
                                 " payload bytes, file has " +
                                 std::to_string(body) +
                                 " (torn write)");
    const std::uint8_t *payload = bytes.data() + frameHeaderBytes;
    ByteReader crc(payload + body, frameTrailerBytes);
    info.payloadCrc = crc.u32();
    if (info.payloadCrc != crc32(payload, body))
        return reject(error, "payload CRC mismatch (corrupt payload)");
    return true;
}

IoError
publishFile(const std::string &path, const void *data, std::size_t n,
            const PublishOptions &opts)
{
    const std::string tmp = path + ".tmp";
    IoError err;
    std::unique_ptr<StoreFile> file = openOsFile(tmp, &err);
    if (!file)
        return err;
    if (opts.wrapFile)
        file = opts.wrapFile(std::move(file));

    // One write call, so an injected crash-at-byte-N tears the file
    // at exactly that offset, independent of buffering.
    err = file->write(data, n);
    if (err.ok() && opts.durability == DurabilityPolicy::FlushPerSeal)
        err = file->flush();
    if (err.ok() && opts.durability == DurabilityPolicy::SyncPerSeal)
        err = file->sync();
    const IoError closed = file->close();
    if (err.ok())
        err = closed;
    // skipRename: the durable temp file is abandoned exactly as a
    // crash before the publish would leave it.
    if (err.ok() && !opts.skipRename &&
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        err.code = errno != 0 ? errno : EIO;
        err.message = "rename to '" + path +
                      "' failed: " + std::strerror(err.code);
    }
    if (!err.ok()) {
        std::remove(tmp.c_str());
        err.message = "'" + tmp + "': " + err.message;
    }
    return err;
}

IoError
readWholeFile(const ReadFileFactory &factory, const std::string &path,
              std::uint64_t max_bytes, std::vector<std::uint8_t> &out)
{
    IoError err;
    const std::unique_ptr<ReadFile> file =
        openReadFileVia(factory, path, &err);
    if (!file) {
        if (err.ok()) {
            err.code = EIO;
            err.message = "cannot open " + path;
        }
        return err;
    }
    if (file->size() > max_bytes) {
        err.code = EFBIG;
        err.message = "'" + path + "' is " +
                      std::to_string(file->size()) +
                      " bytes, over the " + std::to_string(max_bytes) +
                      "-byte cap";
        return err;
    }
    out.resize(static_cast<std::size_t>(file->size()));
    return file->readAt(0, out.data(), out.size());
}

} // namespace store

} // namespace tdfe
