/**
 * @file
 * JobStore implementation (see job_store.hh).
 */

#include "serve/job_store.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/fault.hh"
#include "sim/journal.hh"
#include "sim/report.hh"

namespace nosq {
namespace serve {

namespace {

constexpr const char *store_schema = "nosq-store-v1";

std::string
headerLine()
{
    return std::string("{\"schema\":\"") + store_schema + "\"}\n";
}

std::string
recordLine(const std::string &fp, const RunResult &run)
{
    std::string line;
    line.reserve(1024);
    line += "{\"fp\":";
    jsonString(line, fp);
    line += ",\"run\":";
    appendJson(line, run, JsonSpacing::Compact);
    line += "}\n";
    return line;
}

} // anonymous namespace

JobStore::~JobStore()
{
    if (file != nullptr)
        std::fclose(file);
}

bool
JobStore::open(const std::string &path, std::string &error)
{
    file_path = path;
    results.clear();
    warns.clear();

    // Salvage pass: accept a clean prefix, skip bad records, stop at
    // a torn final line.
    std::string text;
    if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
        char buffer[1 << 16];
        std::size_t got;
        while ((got = std::fread(buffer, 1, sizeof(buffer), in)) >
               0)
            text.append(buffer, got);
        std::fclose(in);
    }
    bool header_ok = false;
    if (!text.empty()) {
        std::size_t pos = 0, line_no = 0;
        while (pos < text.size()) {
            const std::size_t nl = text.find('\n', pos);
            if (nl == std::string::npos) {
                warns.push_back("store: dropped torn final line");
                break;
            }
            const std::string line = text.substr(pos, nl - pos);
            pos = nl + 1;
            ++line_no;
            JsonValue v;
            if (!parseJson(line, v, nullptr)) {
                warns.push_back("store: skipped malformed line " +
                                std::to_string(line_no));
                continue;
            }
            if (line_no == 1) {
                const JsonValue *schema = v.find("schema");
                if (schema == nullptr ||
                    schema->kind != JsonValue::Kind::String ||
                    schema->string != store_schema) {
                    warns.push_back(
                        "store: wrong or missing schema header; "
                        "starting fresh");
                    break;
                }
                header_ok = true;
                continue;
            }
            if (!header_ok)
                break;
            const JsonValue *fp = v.find("fp");
            const JsonValue *run = v.find("run");
            RunResult result;
            // A record marked invalid is skipped like a malformed
            // one: its job must re-run.
            if (fp == nullptr ||
                fp->kind != JsonValue::Kind::String ||
                fp->string.empty() || run == nullptr ||
                !runResultFromJson(*run, result) ||
                !statsValid(result)) {
                warns.push_back("store: skipped invalid record at "
                                "line " +
                                std::to_string(line_no));
                continue;
            }
            if (!results.emplace(fp->string, std::move(result))
                     .second)
                warns.push_back(
                    "store: skipped duplicate fingerprint " +
                    fp->string);
        }
    }

    if (!text.empty() && !header_ok) {
        // Nothing was loaded, but the records may be recoverable by
        // hand (one flipped header byte): keep the file aside rather
        // than letting the compaction below destroy it.
        const std::string aside = path + ".corrupt";
        if (std::rename(path.c_str(), aside.c_str()) == 0)
            warns.push_back("store: kept the unreadable file at '" +
                            aside + "' for manual recovery");
    }

    // Compact so the live file is clean before new appends.
    return compact(error);
}

bool
JobStore::compact(std::string &error)
{
    if (file != nullptr) {
        std::fclose(file);
        file = nullptr;
    }

    const std::string tmp = file_path + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
        error = "store: cannot write '" + tmp +
                "': " + std::strerror(errno);
        return false;
    }
    std::string contents = headerLine();
    for (const auto &[fp, run] : results)
        contents += recordLine(fp, run);
    bool wrote =
        std::fwrite(contents.data(), 1, contents.size(), out) ==
            contents.size() &&
        std::fflush(out) == 0;
    if (wrote) {
        if (FaultInjector::global().check(FaultSite::StoreFsync) ==
            FaultAction::Fail) {
            errno = EIO;
            wrote = false;
        } else {
            wrote = fsync(fileno(out)) == 0;
        }
    }
    std::fclose(out);
    bool renamed = false;
    if (wrote) {
        if (FaultInjector::global().check(FaultSite::StoreRename) ==
            FaultAction::Fail)
            errno = EIO;
        else
            renamed = std::rename(tmp.c_str(),
                                  file_path.c_str()) == 0;
    }
    if (!renamed) {
        std::remove(tmp.c_str());
        error = "store: cannot replace '" + file_path +
                "': " + std::strerror(errno);
        return false;
    }

    file = std::fopen(file_path.c_str(), "ab");
    if (file == nullptr) {
        error = "store: cannot append to '" + file_path +
                "': " + std::strerror(errno);
        return false;
    }
    append_failures = 0; // every result is on disk again
    return true;
}

bool
JobStore::has(const std::string &fp) const
{
    return results.find(fp) != results.end();
}

const RunResult &
JobStore::get(const std::string &fp) const
{
    return results.at(fp);
}

void
JobStore::erase(const std::string &fp)
{
    results.erase(fp);
}

void
JobStore::clear()
{
    results.clear();
}

void
JobStore::put(const std::string &fp, const RunResult &run)
{
    if (!statsValid(run))
        return;
    if (!results.emplace(fp, run).second)
        return;
    if (file == nullptr)
        return;
    const std::string line = recordLine(fp, run);
    bool appended = false;
    if (FaultInjector::global().check(FaultSite::StoreWrite) ==
        FaultAction::Fail)
        errno = EIO;
    else
        appended = std::fwrite(line.data(), 1, line.size(), file) ==
                       line.size() &&
                   std::fflush(file) == 0;
    if (!appended) {
        // Lose this one record on disk, not the store: the
        // in-memory copy still serves, later appends proceed, and
        // the next compact() rewrites everything.
        ++append_failures;
        warns.push_back("store: append failed: " +
                        std::string(std::strerror(errno)) +
                        " (1 record unpersisted until compaction)");
        std::clearerr(file);
    }
}

StoreLock::~StoreLock()
{
    if (lock_fd >= 0) {
        // Unlink BEFORE releasing the lock: a process that opened
        // this inode meanwhile will fail acquire()'s post-flock inode
        // check and retry against a fresh sidecar, so no two
        // holders can ever coexist, and no .lock litter remains.
        std::remove(lock_path.c_str());
        ::close(lock_fd); // releases the flock
    }
}

bool
StoreLock::acquire(const std::string &store_path, std::string &error)
{
    // The destructor unlinks the sidecar while still holding the
    // lock, so after flocking we must confirm the file we locked is
    // still the one on disk (a racer may have locked a fresh sidecar
    // created after an unlink) and retry if not.
    lock_path = store_path + ".lock";
    for (int attempt = 0;; ++attempt) {
        const int fd =
            ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd < 0) {
            error = "cannot open '" + lock_path +
                    "': " + std::strerror(errno);
            return false;
        }
        struct stat fd_stat, path_stat;
        if (::flock(fd, LOCK_EX | LOCK_NB) == 0 &&
            ::fstat(fd, &fd_stat) == 0 &&
            ::stat(lock_path.c_str(), &path_stat) == 0 &&
            fd_stat.st_dev == path_stat.st_dev &&
            fd_stat.st_ino == path_stat.st_ino) {
            lock_fd = fd;
            return true;
        }
        ::close(fd);
        if (attempt >= 7) {
            error = "'" + store_path + "' is in use by another "
                    "process ('" + lock_path + "' is held); "
                    "refusing to share it";
            return false;
        }
        ::usleep(150 * 1000);
    }
}

} // namespace serve
} // namespace nosq
