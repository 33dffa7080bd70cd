/**
 * @file
 * The store-writer shadow memory.
 *
 * The shadow memory is the *dependence oracle*: for every byte it
 * remembers the SSN and dynamic sequence number of the last store that
 * wrote it. The functional simulator uses it to annotate each load
 * with its true producing store(s), which the harness uses to measure
 * Table 5's communication columns and the timing model uses to train
 * idealized predictors (the "Perfect SMB" configuration of Figure 2).
 */

#ifndef NOSQ_WORKLOAD_MEMORY_HH
#define NOSQ_WORKLOAD_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/sparse_memory.hh"
#include "common/types.hh"

namespace nosq {

/** Last-writer record for one byte of memory. */
struct ByteWriter
{
    /** Low 32 bits of the writing store's SSN; 0 = never written. */
    std::uint32_t ssn = 0;
    /** Low 32 bits of the writing store's dynamic sequence number. */
    std::uint32_t seq = 0;
    /** The writing store's access size in bytes (1/2/4/8). */
    std::uint8_t size = 0;

    bool valid() const { return ssn != 0; }
};

/** Byte-granular last-store-writer tracking (the dependence oracle). */
class ShadowMemory
{
  public:
    static constexpr unsigned page_bits = SparseMemory::page_bits;
    static constexpr Addr page_size = SparseMemory::page_size;
    static constexpr Addr page_mask = SparseMemory::page_mask;

    /** Record that store (@p ssn, @p seq) wrote [addr, addr+size). */
    void
    recordStore(Addr addr, unsigned size, SSN ssn, InstSeq seq)
    {
        for (unsigned i = 0; i < size; ++i) {
            ByteWriter &w = byte(addr + i);
            w.ssn = static_cast<std::uint32_t>(ssn);
            w.seq = static_cast<std::uint32_t>(seq);
            w.size = static_cast<std::uint8_t>(size);
        }
    }

    /** @return the last-writer record for @p addr. */
    ByteWriter
    writer(Addr addr) const
    {
        const Addr tag = addr >> page_bits;
        if (tag != cachedTag || cachedPage == nullptr) {
            const auto it = pages.find(tag);
            if (it == pages.end())
                return ByteWriter();
            cachedTag = tag;
            cachedPage = it->second.get();
        }
        return (*cachedPage)[addr & page_mask];
    }

  private:
    using Page = std::array<ByteWriter, page_size>;

    ByteWriter &
    byte(Addr addr)
    {
        const Addr tag = addr >> page_bits;
        if (tag != cachedTag || cachedPage == nullptr) {
            auto &slot = pages[tag];
            if (!slot)
                slot = std::make_unique<Page>();
            cachedTag = tag;
            cachedPage = slot.get();
        }
        return (*cachedPage)[addr & page_mask];
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;

    // Last-page cache, as in SparseMemory. Pages are never freed and
    // live behind unique_ptr, so the pointer survives map rehashes.
    mutable Addr cachedTag = ~Addr(0);
    mutable Page *cachedPage = nullptr;
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_MEMORY_HH
