/**
 * @file
 * Sparse byte-addressed memory whose copies share pages
 * copy-on-write.
 *
 * A program's data segment is written once into a SparseMemory
 * (Program::image); every simulation of that program starts its
 * memories as copies of it. A copy shares the 4KB pages: each page is
 * reference-counted and never written in place while shared, and the
 * first write to a shared page copies that page only. Building a
 * core therefore costs one pointer per page of the image, and each
 * memory grows only by the pages its own stores touch.
 *
 * Thread safety: one SparseMemory is not safe for concurrent use
 * (even reads update its lookup cache). Copying reads only the
 * source's page table and reference counts, so many threads may copy
 * one shared const image at once; the copies are independent.
 */

#ifndef NOSQ_COMMON_SPARSE_MEMORY_HH
#define NOSQ_COMMON_SPARSE_MEMORY_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace nosq {

// Multi-byte values move between registers and pages by memcpy.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "SparseMemory assumes a little-endian host");

/** Byte-addressable sparse memory backed by shared 4KB pages. */
class SparseMemory
{
  public:
    static constexpr unsigned page_bits = 12;
    static constexpr Addr page_size = Addr(1) << page_bits;
    static constexpr Addr page_mask = page_size - 1;

    SparseMemory() = default;

    /** Share @p other's pages; neither side writes them in place. */
    SparseMemory(const SparseMemory &other) : pages(other.pages) {}

    SparseMemory(SparseMemory &&other) noexcept
        : pages(std::move(other.pages))
    {
        other.dropCache();
    }

    SparseMemory &
    operator=(const SparseMemory &other)
    {
        if (this != &other) {
            pages = other.pages;
            dropCache();
        }
        return *this;
    }

    SparseMemory &
    operator=(SparseMemory &&other) noexcept
    {
        pages = std::move(other.pages);
        dropCache();
        other.dropCache();
        return *this;
    }

    /** Read @p size (1..8) bytes little-endian; unwritten bytes are 0. */
    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        std::uint64_t value = 0;
        if ((addr & page_mask) <= page_size - 8) {
            // The 8 bytes at addr lie in one page: one fixed-size load
            // (no memcpy call), masked down to the access.
            if (const Page *p = find(addr))
                std::memcpy(&value, p->bytes + (addr & page_mask), 8);
            return value & sizeMask(size);
        }
        readBytes(addr, reinterpret_cast<std::uint8_t *>(&value), size);
        return value;
    }

    /** Write the low @p size (1..8) bytes of @p value little-endian. */
    void
    write(Addr addr, unsigned size, std::uint64_t value)
    {
        if ((addr & page_mask) <= page_size - 8) {
            // As in read(): merge into the 8 bytes at addr, which the
            // private page holds whatever the access size.
            std::uint8_t *at =
                writable(addr)->bytes + (addr & page_mask);
            std::uint64_t word;
            std::memcpy(&word, at, 8);
            const std::uint64_t mask = sizeMask(size);
            word = (word & ~mask) | (value & mask);
            std::memcpy(at, &word, 8);
            return;
        }
        writeBytes(addr, reinterpret_cast<const std::uint8_t *>(&value),
                   size);
    }

    std::uint8_t
    readByte(Addr addr) const
    {
        return static_cast<std::uint8_t>(read(addr, 1));
    }

    /** Copy [addr, addr+len) into @p out; unwritten bytes are 0. */
    void
    readBytes(Addr addr, std::uint8_t *out, std::size_t len) const
    {
        while (len > 0) {
            const std::size_t n = chunk(addr, len);
            if (const Page *p = find(addr))
                std::memcpy(out, p->bytes + (addr & page_mask), n);
            else
                std::memset(out, 0, n);
            addr += n;
            out += n;
            len -= n;
        }
    }

    /** Copy @p len bytes from @p data to [addr, addr+len). */
    void
    writeBytes(Addr addr, const std::uint8_t *data, std::size_t len)
    {
        while (len > 0) {
            const std::size_t n = chunk(addr, len);
            std::memcpy(writable(addr)->bytes + (addr & page_mask), data,
                        n);
            addr += n;
            data += n;
            len -= n;
        }
    }

    /**
     * Write @p count 64-bit words little-endian from the 8-byte
     * aligned @p base: word i is word_at(i), called once per word in
     * increasing i. The words go in page by page in address order,
     * and a page they cover whole is written once, not zeroed or
     * copied first.
     */
    template <class WordAt>
    void
    fillWords(Addr base, std::size_t count, WordAt &&word_at)
    {
        nosq_assert(base % 8 == 0, "fillWords base not 8-aligned");
        for (std::size_t i = 0; i < count;) {
            const Addr addr = base + 8 * i;
            const std::size_t bytes = chunk(addr, 8 * (count - i));
            std::uint8_t *at = writable(addr, bytes == page_size)->bytes +
                (addr & page_mask);
            for (const std::size_t end = i + bytes / 8; i < end;
                 ++i, at += 8) {
                const std::uint64_t word = word_at(i);
                std::memcpy(at, &word, 8);
            }
        }
    }

    /** Call fn(page base address, its page_size bytes) for each
     * present page, in address order. */
    template <class Fn>
    void
    forEachPage(Fn &&fn) const
    {
        std::vector<Addr> tags;
        tags.reserve(pages.size());
        for (const auto &slot : pages)
            tags.push_back(slot.first);
        std::sort(tags.begin(), tags.end());
        for (const Addr tag : tags) {
            const Page *page = pages.find(tag)->second.get();
            fn(tag << page_bits, page->bytes);
        }
    }

    /** Pages present, shared or not. */
    std::size_t numPages() const { return pages.size(); }

    /** Pages no other copy shares (this memory's private cost). */
    std::size_t
    ownedPages() const
    {
        return std::size_t(std::count_if(
            pages.begin(), pages.end(),
            [](const auto &slot) { return slot.second.get()->unique(); }));
    }

    /** Same pages present, holding the same bytes. */
    friend bool
    operator==(const SparseMemory &a, const SparseMemory &b)
    {
        if (a.pages.size() != b.pages.size())
            return false;
        for (const auto &[tag, page] : a.pages) {
            const auto it = b.pages.find(tag);
            if (it == b.pages.end())
                return false;
            if (it->second.get() != page.get() &&
                std::memcmp(it->second.get()->bytes, page.get()->bytes,
                            page_size) != 0)
                return false;
        }
        return true;
    }

  private:
    struct Page
    {
        std::atomic<std::uint32_t> refs{1};
        std::uint8_t bytes[page_size];

        /** No other handle shares the page, so it may be written
         * (acquire: the last sharer's reads happen before). */
        bool
        unique() const
        {
            return refs.load(std::memory_order_acquire) == 1;
        }
    };

    /** Owning, reference-counting handle to a Page (null allowed). */
    class PageRef
    {
      public:
        PageRef() = default;

        /** A fresh page holding a copy of @p src (zeros if null),
         * or left unwritten if the caller overwrites it @p whole. */
        static PageRef
        make(const Page *src, bool whole)
        {
            PageRef ref;
            ref.page = new Page;
            if (whole)
                return ref;
            if (src)
                std::memcpy(ref.page->bytes, src->bytes, page_size);
            else
                std::memset(ref.page->bytes, 0, page_size);
            return ref;
        }

        PageRef(const PageRef &other) noexcept : page(other.page)
        {
            if (page)
                page->refs.fetch_add(1, std::memory_order_relaxed);
        }

        PageRef(PageRef &&other) noexcept
            : page(std::exchange(other.page, nullptr))
        {
        }

        PageRef &
        operator=(PageRef other) noexcept
        {
            std::swap(page, other.page);
            return *this;
        }

        ~PageRef()
        {
            // acq_rel: every holder's accesses happen before the
            // delete, or before the write a Page::unique() allows.
            if (page &&
                page->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete page;
        }

        Page *get() const { return page; }

      private:
        Page *page = nullptr;
    };

    /** The low @p size (1..8) bytes of a word set. */
    static std::uint64_t
    sizeMask(unsigned size)
    {
        return ~std::uint64_t(0) >> (64 - 8 * size);
    }

    /** Bytes of [addr, addr+len) that lie in addr's page. */
    static std::size_t
    chunk(Addr addr, std::size_t len)
    {
        return std::min<std::size_t>(len, page_size - (addr & page_mask));
    }

    const Page *
    find(Addr addr) const
    {
        const Addr tag = addr >> page_bits;
        if (tag != cachedTag || cachedPage == nullptr) {
            const auto it = pages.find(tag);
            if (it == pages.end())
                return nullptr;
            cachedTag = tag;
            cachedPage = it->second.get();
        }
        return cachedPage;
    }

    /** addr's page, made present and private to this memory. Its
     * old bytes are kept unless the caller overwrites it @p whole. */
    Page *
    writable(Addr addr, bool whole = false)
    {
        const Addr tag = addr >> page_bits;
        if (tag == cachedTag && cachedPage != nullptr &&
            cachedPage->unique())
            return cachedPage;
        PageRef &slot = pages[tag];
        if (!slot.get() || !slot.get()->unique())
            slot = PageRef::make(slot.get(), whole);
        cachedTag = tag;
        cachedPage = slot.get();
        return cachedPage;
    }

    void
    dropCache()
    {
        cachedTag = ~Addr(0);
        cachedPage = nullptr;
    }

    std::unordered_map<Addr, PageRef> pages;

    // Last-page cache: successive accesses almost always share a
    // page, so one tag check replaces a hash lookup. It always names
    // the page currently in the table for cachedTag (writable()
    // refreshes it when it replaces a shared page with a private
    // copy), and a write through it first re-checks that no copy of
    // this memory has started sharing the page since. So copying
    // leaves the source's cache valid and starts the copy's empty,
    // and no cached pointer can ever write a shared page. Pages are
    // heap objects, so the pointer survives map rehashes.
    mutable Addr cachedTag = ~Addr(0);
    mutable Page *cachedPage = nullptr;
};

} // namespace nosq

#endif // NOSQ_COMMON_SPARSE_MEMORY_HH
