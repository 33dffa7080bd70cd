#include "memsys/coherence.hh"

#include <cassert>
#include <stdexcept>
#include <string>

namespace nosq {

namespace {

/** Portable popcount (C++17: no std::popcount). */
unsigned
countBits(std::uint64_t mask)
{
    unsigned n = 0;
    while (mask != 0) {
        mask &= mask - 1;
        ++n;
    }
    return n;
}

} // namespace

const char *
cohStateName(CohState state)
{
    switch (state) {
      case CohState::Invalid: return "Invalid";
      case CohState::Shared: return "Shared";
      case CohState::Exclusive: return "Exclusive";
      case CohState::Modified: return "Modified";
    }
    return "?";
}

CoherenceStats
CoherenceStats::operator-(const CoherenceStats &base) const
{
    CoherenceStats d;
    d.cohInvalidations = cohInvalidations - base.cohInvalidations;
    d.cohC2cTransfers = cohC2cTransfers - base.cohC2cTransfers;
    d.cohUpgradeMisses = cohUpgradeMisses - base.cohUpgradeMisses;
    return d;
}

Directory::Directory(unsigned cores) : numCores(cores)
{
    if (cores < 1 || cores > max_cores) {
        throw std::invalid_argument(
            "Directory: cores must be in [1, " +
            std::to_string(max_cores) + "], got " + std::to_string(cores));
    }
}

Directory::Outcome
Directory::read(unsigned core, Addr line)
{
    assert(core < numCores);
    Outcome out;
    Line &ln = lines[line];
    const std::uint64_t self = std::uint64_t(1) << core;

    if (ln.sharers & self) {
        // Already a sharer (S, E, or M): local hit, nothing to do.
        return out;
    }
    if (ln.owner >= 0) {
        // A remote core holds it E or M; downgrade the owner to S.
        if (ln.dirty) {
            out.c2c = true;
            ++counters.cohC2cTransfers;
        }
        ln.owner = -1;
        ln.dirty = false;
        ln.sharers |= self;
        return out;
    }
    if (ln.sharers == 0) {
        // First reader anywhere: grant Exclusive (clean).
        ln.sharers = self;
        ln.owner = int(core);
        return out;
    }
    // Join the sharer set.
    ln.sharers |= self;
    return out;
}

Directory::Outcome
Directory::write(unsigned core, Addr line)
{
    assert(core < numCores);
    Outcome out;
    Line &ln = lines[line];
    const std::uint64_t self = std::uint64_t(1) << core;

    if (ln.owner == int(core)) {
        // Silent E->M (or already M): no traffic.
        ln.dirty = true;
        return out;
    }

    const std::uint64_t others = ln.sharers & ~self;
    if (others != 0) {
        out.invalidated = countBits(others);
        counters.cohInvalidations += out.invalidated;
        if (ln.owner >= 0 && ln.dirty) {
            // Remote Modified copy must be transferred before the
            // write can proceed.
            out.c2c = true;
            ++counters.cohC2cTransfers;
        }
        if (ln.sharers & self) {
            // We held it Shared: this is an upgrade miss.
            out.upgrade = true;
            ++counters.cohUpgradeMisses;
        }
    } else if (ln.sharers & self) {
        // Sole Shared holder upgrading (owner slot was vacated by an
        // earlier downgrade): silent upgrade, no invalidations.
        out.upgrade = true;
        ++counters.cohUpgradeMisses;
    }

    ln.sharers = self;
    ln.owner = int(core);
    ln.dirty = true;
    return out;
}

bool
Directory::evict(unsigned core, Addr line)
{
    assert(core < numCores);
    auto it = lines.find(line);
    if (it == lines.end())
        return false;
    Line &ln = it->second;
    const std::uint64_t self = std::uint64_t(1) << core;
    if (!(ln.sharers & self))
        return false;

    const bool wasModified = ln.owner == int(core) && ln.dirty;
    ln.sharers &= ~self;
    if (ln.owner == int(core)) {
        ln.owner = -1;
        ln.dirty = false;
    }
    if (ln.sharers == 0)
        lines.erase(it);
    return wasModified;
}

CohState
Directory::stateOf(unsigned core, Addr line) const
{
    auto it = lines.find(line);
    if (it == lines.end())
        return CohState::Invalid;
    const Line &ln = it->second;
    const std::uint64_t self = std::uint64_t(1) << core;
    if (!(ln.sharers & self))
        return CohState::Invalid;
    if (ln.owner == int(core))
        return ln.dirty ? CohState::Modified : CohState::Exclusive;
    return CohState::Shared;
}

void
validateSharedL2Params(const SharedL2Params &params)
{
    validateCacheParams(params.l2);
    if (params.memoryLatency == 0)
        throw std::invalid_argument("SharedL2Params: memoryLatency == 0");
    if (params.busTransfer == 0)
        throw std::invalid_argument("SharedL2Params: busTransfer == 0");
    if (params.c2cLatency == 0)
        throw std::invalid_argument("SharedL2Params: c2cLatency == 0");
    if (params.upgradeLatency == 0)
        throw std::invalid_argument("SharedL2Params: upgradeLatency == 0");
}

SharedL2::SharedL2(const SharedL2Params &params_, unsigned cores)
    : params((validateSharedL2Params(params_), params_)),
      dir(cores),
      l2Cache(params.l2),
      memBus(params.busTransfer, params.busContention),
      l1ds(cores, nullptr)
{
}

void
SharedL2::attachL1d(unsigned core, Cache *l1d)
{
    assert(core < dir.cores());
    l1ds[core] = l1d;
}

void
SharedL2::invalidateRemote(unsigned core, Addr addr)
{
    for (unsigned i = 0; i < l1ds.size(); ++i) {
        if (i == core || l1ds[i] == nullptr)
            continue;
        l1ds[i]->invalidate(addr);
    }
}

Cycle
SharedL2::fill(unsigned core, Addr addr, bool write, Cycle now)
{
    const Addr paddr = physical(core, addr);
    const Addr line = paddr / params.l2.lineBytes;

    const Directory::Outcome out =
        write ? dir.write(core, line) : dir.read(core, line);
    if (out.invalidated != 0)
        invalidateRemote(core, addr);

    if (out.c2c) {
        // Served directly from the remote core's Modified copy: the
        // line bypasses the L2 tag path entirely.
        return params.c2cLatency;
    }

    Cycle lat = out.invalidated != 0 ? params.upgradeLatency : 0;
    if (l2Cache.access(paddr, write))
        return lat + params.l2.hitLatency;
    lat += params.l2.hitLatency + params.memoryLatency;
    return lat + memBus.transferAt(now + lat);
}

Cycle
SharedL2::writeHit(unsigned core, Addr addr, Cycle now)
{
    (void)now;
    const Addr paddr = physical(core, addr);
    const Addr line = paddr / params.l2.lineBytes;

    const Directory::Outcome out = dir.write(core, line);
    if (out.invalidated == 0)
        return 0;
    invalidateRemote(core, addr);
    return params.upgradeLatency + (out.c2c ? params.c2cLatency : 0);
}

} // namespace nosq
