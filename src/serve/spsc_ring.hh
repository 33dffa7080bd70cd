/**
 * @file
 * Single-producer/single-consumer byte ring over anonymous shared
 * memory, the daemon<->worker transport of nosq_sweepd.
 *
 * The daemon mmap()s one SharedArena per worker (MAP_SHARED |
 * MAP_ANONYMOUS) *before* forking it, so parent and child address
 * the same physical pages with no filesystem object to leak or name.
 * Each arena holds two rings (jobs down, results up), a heartbeat
 * word the worker bumps and the daemon watches, and a stop flag.
 *
 * Ring discipline (the classic cache-friendly SPSC layout): head and
 * tail are monotonically increasing byte counters on separate cache
 * lines -- the producer writes only `tail`, the consumer writes only
 * `head`, each with release stores after/before touching the data
 * bytes, so no lock and no CAS is ever needed. Capacity is a power
 * of two; indices are masked, and the counters themselves never
 * wrap in practice (2^64 bytes of traffic). Messages are
 * length-prefixed (4-byte little-endian count) and written with
 * plain byte copies that may straddle the wrap point.
 *
 * A SIGKILLed peer cannot corrupt the invariants: the survivor sees
 * a ring that simply stops advancing (and a heartbeat that stops
 * bumping), which is exactly the failure signal the daemon's
 * requeue logic consumes.
 *
 * The rings carry the data; wake pipes carry only "look now". A
 * producer posts one byte to the consumer's non-blocking pipe after
 * each push, and an idle consumer sleeps in poll() on the read end
 * instead of on a timer. A consumer drains the pipe BEFORE it
 * drains the ring, so a push that races the drain leaves its byte
 * behind and the next poll() returns at once: no wake is lost. The
 * pipe is a doorbell, not a count -- a full pipe (EAGAIN) already
 * holds a pending wake.
 */

#ifndef NOSQ_SERVE_SPSC_RING_HH
#define NOSQ_SERVE_SPSC_RING_HH

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <unistd.h>

namespace nosq {
namespace serve {

/** One SPSC byte ring; lives inside shared memory, never copied. */
class SpscRing
{
  public:
    /** Bytes of payload capacity; messages cost 4 + size bytes. */
    static constexpr std::size_t capacity = 1u << 20;

    /**
     * Append one length-prefixed message.
     * @return false (ring unchanged) when @p message does not fit in
     *         the free space right now -- the caller retries later
     */
    bool
    tryPush(const std::string &message)
    {
        const std::size_t need = header_bytes + message.size();
        if (need > capacity)
            return false; // never fits; drop instead of deadlock
        const std::uint64_t head =
            head_.load(std::memory_order_acquire);
        const std::uint64_t tail =
            tail_.load(std::memory_order_relaxed);
        if (capacity - static_cast<std::size_t>(tail - head) < need)
            return false;
        std::uint8_t header[header_bytes];
        const std::uint32_t n =
            static_cast<std::uint32_t>(message.size());
        header[0] = static_cast<std::uint8_t>(n);
        header[1] = static_cast<std::uint8_t>(n >> 8);
        header[2] = static_cast<std::uint8_t>(n >> 16);
        header[3] = static_cast<std::uint8_t>(n >> 24);
        copyIn(tail, header, header_bytes);
        copyIn(tail + header_bytes,
               reinterpret_cast<const std::uint8_t *>(
                   message.data()),
               message.size());
        tail_.store(tail + need, std::memory_order_release);
        return true;
    }

    /**
     * Pop one message if a complete one is available.
     * @return false when the ring is empty (a half-written message
     *         is never observable: the producer publishes `tail`
     *         only after the bytes)
     */
    bool
    tryPop(std::string &out)
    {
        const std::uint64_t tail =
            tail_.load(std::memory_order_acquire);
        const std::uint64_t head =
            head_.load(std::memory_order_relaxed);
        if (tail == head)
            return false;
        std::uint8_t header[header_bytes];
        copyOut(head, header, header_bytes);
        const std::uint32_t n = static_cast<std::uint32_t>(
            header[0] | (header[1] << 8) | (header[2] << 16) |
            (std::uint32_t(header[3]) << 24));
        out.resize(n);
        copyOut(head + header_bytes,
                reinterpret_cast<std::uint8_t *>(&out[0]), n);
        head_.store(head + header_bytes + n,
                    std::memory_order_release);
        return true;
    }

    bool
    empty() const
    {
        return tail_.load(std::memory_order_acquire) ==
               head_.load(std::memory_order_acquire);
    }

  private:
    static constexpr std::size_t header_bytes = 4;

    void
    copyIn(std::uint64_t at, const std::uint8_t *src,
           std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            data_[(at + i) & (capacity - 1)] = src[i];
    }

    void
    copyOut(std::uint64_t at, std::uint8_t *dst, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = data_[(at + i) & (capacity - 1)];
    }

    alignas(64) std::atomic<std::uint64_t> head_{0}; // consumer
    alignas(64) std::atomic<std::uint64_t> tail_{0}; // producer
    alignas(64) std::uint8_t data_[capacity];
};

static_assert((SpscRing::capacity & (SpscRing::capacity - 1)) == 0,
              "ring capacity must be a power of two");

/** Everything the daemon shares with one worker process. */
struct WorkerChannel
{
    SpscRing jobs;    ///< daemon -> worker
    SpscRing results; ///< worker -> daemon
    /** Monotonic liveness counter; the worker bumps it every loop
     * iteration and per job, the daemon watches it move. */
    std::atomic<std::uint64_t> heartbeat{0};
    /** Set by the daemon for a clean worker shutdown. */
    std::atomic<bool> stop{false};
};

/**
 * mmap() a WorkerChannel in anonymous shared memory. Must be called
 * BEFORE fork() so both sides inherit the mapping.
 * @return nullptr on mmap failure
 */
inline WorkerChannel *
mapWorkerChannel()
{
    void *mem =
        mmap(nullptr, sizeof(WorkerChannel),
             PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
             -1, 0);
    if (mem == MAP_FAILED)
        return nullptr;
    return new (mem) WorkerChannel();
}

inline void
unmapWorkerChannel(WorkerChannel *channel)
{
    if (channel != nullptr)
        munmap(channel, sizeof(WorkerChannel));
}

// --- wake pipes -------------------------------------------------------------

/** Open a pipe with both ends non-blocking.
 * @return false (errno set, nothing left open) on failure */
inline bool
openWakePipe(int fds[2])
{
    if (pipe(fds) != 0)
        return false;
    if (fcntl(fds[0], F_SETFL, O_NONBLOCK) != 0 ||
        fcntl(fds[1], F_SETFL, O_NONBLOCK) != 0) {
        const int saved = errno;
        close(fds[0]);
        close(fds[1]);
        errno = saved;
        return false;
    }
    return true;
}

/** Ring the doorbell at write end @p fd. EAGAIN means a wake is
 * already pending. A consumer that has exited needs none: the daemon
 * ignores the EPIPE (and SIGPIPE), and a worker whose daemon is gone
 * dies of SIGPIPE as it would of its parent-death signal. */
inline void
postWake(int fd)
{
    const char byte = 1;
    while (write(fd, &byte, 1) < 0 && errno == EINTR) {
    }
}

/** Consume every pending wake at read end @p fd. */
inline void
drainWakes(int fd)
{
    char buffer[64];
    for (;;) {
        const ssize_t got = read(fd, buffer, sizeof(buffer));
        if (got > 0 || (got < 0 && errno == EINTR))
            continue;
        return; // empty (EAGAIN) or every writer gone
    }
}

/** Sleep until a wake arrives at read end @p fd or @p timeout_ms
 * passes, then consume whatever is pending. */
inline void
awaitWake(int fd, int timeout_ms)
{
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) > 0)
        drainWakes(fd);
}

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_SPSC_RING_HH
