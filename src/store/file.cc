#include "store/file.hh"

#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"

namespace tdfe
{

namespace store
{

namespace
{

/** Failure of an operation on the whole file (open, size). */
IoError
fileError(int code, const std::string &what)
{
    IoError e;
    e.code = code != 0 ? code : EIO;
    e.message = what + ": " + std::strerror(e.code);
    return e;
}

/** Failure of a read or write at @p offset. */
IoError
errnoError(int code, std::uint64_t offset, const std::string &what)
{
    IoError e =
        fileError(code, what + " at offset " + std::to_string(offset));
    e.offset = offset;
    return e;
}

/**
 * Production file: stdio-buffered writes over a POSIX descriptor.
 * Stdio keeps the per-seal write cheap under DurabilityPolicy::None
 * (blocks coalesce in user space) while fileno() gives the real
 * descriptor for fsync and ftruncate. Every error is reported as a
 * value with the exact failing offset.
 */
class OsFile final : public StoreFile
{
  public:
    OsFile(std::FILE *fp, std::string path)
        : fp_(fp), path_(std::move(path))
    {
    }

    ~OsFile() override { close(); }

    IoError
    write(const void *data, std::size_t n) override
    {
        if (!fp_)
            return errnoError(EBADF, offset_, "write to closed file");
        errno = 0;
        const std::size_t wrote = std::fwrite(data, 1, n, fp_);
        offset_ += wrote;
        if (wrote != n) {
            IoError e = errnoError(errno, offset_, "short write (" +
                                       std::to_string(wrote) + "/" +
                                       std::to_string(n) + " bytes)");
            // Clear the stream error so a truncate-and-rewrite retry
            // is possible; the error has been captured as a value.
            std::clearerr(fp_);
            return e;
        }
        return IoError();
    }

    IoError
    flush() override
    {
        if (!fp_)
            return errnoError(EBADF, offset_, "flush of closed file");
        errno = 0;
        if (std::fflush(fp_) != 0) {
            IoError e = errnoError(errno, offset_, "flush failed");
            std::clearerr(fp_);
            return e;
        }
        return IoError();
    }

    IoError
    sync() override
    {
        IoError e = flush();
        if (!e.ok())
            return e;
        errno = 0;
        if (::fsync(fileno(fp_)) != 0)
            return errnoError(errno, offset_, "fsync failed");
        return IoError();
    }

    IoError
    truncateTo(std::uint64_t size) override
    {
        if (!fp_)
            return errnoError(EBADF, offset_,
                              "truncate of closed file");
        // Drop whatever stdio still buffers (it may be exactly the
        // bytes being rolled back), cut the kernel file, reseek.
        std::clearerr(fp_);
        std::fflush(fp_); // best effort; ftruncate defines the size
        errno = 0;
        if (::ftruncate(fileno(fp_),
                        static_cast<off_t>(size)) != 0)
            return errnoError(errno, offset_, "ftruncate failed");
        if (std::fseek(fp_, static_cast<long>(size), SEEK_SET) != 0)
            return errnoError(errno, offset_, "seek failed");
        offset_ = size;
        return IoError();
    }

    IoError
    close() override
    {
        if (!fp_)
            return IoError();
        errno = 0;
        const int rc = std::fclose(fp_);
        fp_ = nullptr;
        if (rc != 0)
            return errnoError(errno, offset_, "close failed");
        return IoError();
    }

    std::uint64_t offset() const override { return offset_; }
    const std::string &path() const override { return path_; }

  private:
    std::FILE *fp_;
    std::string path_;
    std::uint64_t offset_ = 0;
};

/**
 * Production read file: pread over one descriptor, so concurrent
 * cursors never race on a shared file position.
 */
class OsReadFile final : public ReadFile
{
  public:
    OsReadFile(int fd, std::uint64_t size, std::string path)
        : fd_(fd), size_(size), path_(std::move(path))
    {
    }

    ~OsReadFile() override { ::close(fd_); }

    IoError
    readAt(std::uint64_t offset, void *dst,
           std::size_t n) const override
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        std::size_t done = 0;
        while (done < n) {
            errno = 0;
            const ssize_t got =
                ::pread(fd_, out + done, n - done,
                        static_cast<off_t>(offset + done));
            if (got > 0) {
                done += static_cast<std::size_t>(got);
                continue;
            }
            if (got < 0 && errno == EINTR)
                continue;
            if (got == 0)
                return errnoError(EIO, offset + done,
                                  "short read (" +
                                      std::to_string(done) + "/" +
                                      std::to_string(n) +
                                      " bytes)");
            return errnoError(errno, offset + done, "read failed");
        }
        return IoError();
    }

    std::uint64_t size() const override { return size_; }
    const std::string &path() const override { return path_; }

  private:
    int fd_;
    std::uint64_t size_;
    std::string path_;
};

/** The one policy <-> name table. */
constexpr struct
{
    DurabilityPolicy policy;
    const char *name;
} policyNames[] = {
    {DurabilityPolicy::None, "none"},
    {DurabilityPolicy::FlushPerSeal, "flush"},
    {DurabilityPolicy::SyncPerSeal, "fsync"},
};

} // namespace

bool
lookupDurabilityPolicy(const std::string &name, DurabilityPolicy &out)
{
    for (const auto &p : policyNames)
        if (name == p.name) {
            out = p.policy;
            return true;
        }
    return false;
}

DurabilityPolicy
parseDurabilityPolicy(const std::string &name)
{
    DurabilityPolicy policy = DurabilityPolicy::None;
    if (!lookupDurabilityPolicy(name, policy))
        TDFE_FATAL("unknown store durability policy '", name,
                   "' (expected none, flush, or fsync)");
    return policy;
}

const char *
durabilityPolicyName(DurabilityPolicy policy)
{
    for (const auto &p : policyNames)
        if (p.policy == policy)
            return p.name;
    return "?";
}

std::unique_ptr<StoreFile>
openOsFile(const std::string &path, IoError *error, bool keep)
{
    errno = 0;
    std::FILE *fp = std::fopen(path.c_str(), keep ? "r+b" : "wb");
    if (!fp) {
        if (error)
            *error = fileError(errno, "cannot open " + path);
        return nullptr;
    }
    return std::make_unique<OsFile>(fp, path);
}

std::unique_ptr<ReadFile>
openOsReadFile(const std::string &path, IoError *error)
{
    errno = 0;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (error)
            *error = fileError(errno, "cannot open " + path);
        return nullptr;
    }
    errno = 0;
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
        if (error)
            *error = fileError(errno, "cannot size " + path);
        ::close(fd);
        return nullptr;
    }
    return std::make_unique<OsReadFile>(
        fd, static_cast<std::uint64_t>(size), path);
}

std::unique_ptr<ReadFile>
openReadFileVia(const ReadFileFactory &factory,
                const std::string &path, IoError *error)
{
    if (factory)
        return factory(path, error);
    return openOsReadFile(path, error);
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

FaultyReadFile::FaultyReadFile(std::unique_ptr<ReadFile> inner,
                               ReadFaultPlan plan)
    : inner_(std::move(inner)), plan_(plan),
      remaining_(plan.failCount)
{
    TDFE_ASSERT(inner_, "FaultyReadFile needs an underlying file");
}

IoError
FaultyReadFile::readAt(std::uint64_t offset, void *dst,
                       std::size_t n) const
{
    if (plan_.kind == ReadFaultPlan::Kind::ErrorAt &&
        offset + n > plan_.atByte &&
        remaining_.load(std::memory_order_relaxed) > 0 &&
        remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
        std::uint64_t at = offset;
        if (plan_.shortRead && offset < plan_.atByte) {
            const std::size_t fwd =
                static_cast<std::size_t>(plan_.atByte - offset);
            const IoError e = inner_->readAt(offset, dst, fwd);
            if (!e.ok())
                return e;
            at = plan_.atByte;
        }
        IoError e;
        e.code = plan_.errCode;
        e.offset = at;
        e.message = "injected read " +
                    std::string(std::strerror(plan_.errCode)) +
                    " at offset " + std::to_string(at);
        return e;
    }
    return inner_->readAt(offset, dst, n);
}

FaultyFile::FaultyFile(std::unique_ptr<StoreFile> inner,
                       FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan),
      remaining_(plan.failCount)
{
    TDFE_ASSERT(inner_, "FaultyFile needs an underlying file");
}

IoError
FaultyFile::write(const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);

    if (plan_.kind == FaultPlan::Kind::Crash) {
        // The crash point: forward the honest prefix, drop the rest,
        // and keep reporting success — the writer must not be able
        // to tell (a crashed node never gets an error code either).
        if (offset_ < plan_.atByte) {
            const std::size_t fwd = static_cast<std::size_t>(
                std::min<std::uint64_t>(n, plan_.atByte - offset_));
            const IoError e = inner_->write(bytes, fwd);
            if (!e.ok())
                return e;
        }
        offset_ += n;
        return IoError();
    }

    if (plan_.kind == FaultPlan::Kind::ErrorAt && remaining_ > 0 &&
        offset_ + n > plan_.atByte) {
        --remaining_;
        if (plan_.shortWrite && offset_ < plan_.atByte) {
            const std::size_t fwd = static_cast<std::size_t>(
                plan_.atByte - offset_);
            const IoError e = inner_->write(bytes, fwd);
            if (!e.ok())
                return e;
            offset_ += fwd;
        }
        IoError e;
        e.code = plan_.errCode;
        e.offset = offset_;
        e.message = "injected " +
                    std::string(std::strerror(plan_.errCode)) +
                    " at offset " + std::to_string(e.offset);
        return e;
    }

    const IoError e = inner_->write(bytes, n);
    if (e.ok())
        offset_ += n;
    return e;
}

IoError
FaultyFile::flush()
{
    if (plan_.kind == FaultPlan::Kind::Crash)
        return IoError(); // the lying kernel again
    return inner_->flush();
}

IoError
FaultyFile::sync()
{
    if (plan_.kind == FaultPlan::Kind::Crash)
        return IoError();
    return inner_->sync();
}

IoError
FaultyFile::truncateTo(std::uint64_t size)
{
    if (plan_.kind == FaultPlan::Kind::Crash) {
        // Nothing past the crash mark ever reached the inner file;
        // cutting the logical position is all there is to do.
        offset_ = size;
        if (size < plan_.atByte)
            return inner_->truncateTo(size);
        return IoError();
    }
    const IoError e = inner_->truncateTo(size);
    if (e.ok())
        offset_ = size;
    return e;
}

IoError
FaultyFile::close()
{
    return inner_->close();
}

} // namespace store

} // namespace tdfe
