/**
 * @file
 * Sparse byte-addressable memory image over a 32-bit address space,
 * shared by the assembler's program image, the golden simulator, and
 * both microarchitectural models. Little-endian, zero-fill-on-read.
 */
#ifndef DIAG_COMMON_SPARSE_MEM_HPP
#define DIAG_COMMON_SPARSE_MEM_HPP

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"

namespace diag
{

/** Paged sparse memory; untouched locations read as zero. */
class SparseMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kPageSize = 1u << kPageShift;

    SparseMemory() = default;
    SparseMemory(SparseMemory &&) = default;
    SparseMemory &operator=(SparseMemory &&) = default;

    /** Deep copy (used to snapshot state between runs). */
    SparseMemory(const SparseMemory &other) { *this = other; }

    SparseMemory &
    operator=(const SparseMemory &other)
    {
        if (this == &other)
            return *this;
        pages_.clear();
        for (const auto &kv : other.pages_)
            pages_[kv.first] = std::make_unique<Page>(*kv.second);
        return *this;
    }

    u8
    read8(Addr addr) const
    {
        const Page *p = findPage(addr);
        return p ? (*p)[addr & (kPageSize - 1)] : 0;
    }

    void
    write8(Addr addr, u8 value)
    {
        page(addr)[addr & (kPageSize - 1)] = value;
    }

    u16 read16(Addr addr) const { return static_cast<u16>(readLE(addr, 2)); }

    void write16(Addr addr, u16 value) { writeLE(addr, value, 2); }

    u32 read32(Addr addr) const { return readLE(addr, 4); }

    void write32(Addr addr, u32 value) { writeLE(addr, value, 4); }

    /** Read @p bytes (1, 2, or 4) zero-extended to 32 bits. */
    u32
    read(Addr addr, unsigned bytes) const
    {
        switch (bytes) {
          case 1: return read8(addr);
          case 2: return read16(addr);
          default: return read32(addr);
        }
    }

    /** Write the low @p bytes (1, 2, or 4) of @p value. */
    void
    write(Addr addr, u32 value, unsigned bytes)
    {
        switch (bytes) {
          case 1: write8(addr, static_cast<u8>(value)); break;
          case 2: write16(addr, static_cast<u16>(value)); break;
          default: write32(addr, value); break;
        }
    }

    void
    writeBlock(Addr addr, const void *src, size_t len)
    {
        const u8 *bytes = static_cast<const u8 *>(src);
        for (size_t i = 0; i < len; ++i)
            write8(addr + static_cast<Addr>(i), bytes[i]);
    }

    void
    readBlock(Addr addr, void *dst, size_t len) const
    {
        u8 *bytes = static_cast<u8 *>(dst);
        for (size_t i = 0; i < len; ++i)
            bytes[i] = read8(addr + static_cast<Addr>(i));
    }

    /** Number of resident pages (for tests / footprint reporting). */
    size_t numPages() const { return pages_.size(); }

    /** Invoke @p fn with the base address of every resident page. */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &kv : pages_)
            fn(static_cast<Addr>(kv.first) << kPageShift);
    }

    /** Drop all contents. */
    void clear() { pages_.clear(); }

    /** Every address reads the same in both images (an absent page
     *  reads as zero, so it equals an all-zero one). */
    bool
    sameContents(const SparseMemory &other) const
    {
        return pagesMatch(other) && other.pagesMatch(*this);
    }

  private:
    using Page = std::array<u8, kPageSize>;

    /** Each of this image's pages equals @p other's bytes there. */
    bool
    pagesMatch(const SparseMemory &other) const
    {
        static const Page kZeroPage{};
        for (const auto &[num, page] : pages_) {
            const auto it = other.pages_.find(num);
            if (*page != (it == other.pages_.end() ? kZeroPage
                                                   : *it->second))
                return false;
        }
        return true;
    }

    /** True iff [addr, addr + bytes) lies on one page. */
    static bool
    onOnePage(Addr addr, unsigned bytes)
    {
        return (addr & (kPageSize - 1)) + bytes <= kPageSize;
    }

    /** The @p bytes (2 or 4) at @p addr, little-endian, built with
     *  shifts so the host's byte order does not matter. One page
     *  lookup when they share a page; byte by byte across two. */
    u32
    readLE(Addr addr, unsigned bytes) const
    {
        u32 v = 0;
        if (onOnePage(addr, bytes)) {
            if (const Page *p = findPage(addr)) {
                const u8 *b = p->data() + (addr & (kPageSize - 1));
                for (unsigned i = 0; i < bytes; ++i)
                    v |= static_cast<u32>(b[i]) << (8 * i);
            }
            return v;
        }
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<u32>(read8(addr + i)) << (8 * i);
        return v;
    }

    /** Store the low @p bytes (2 or 4) of @p value at @p addr,
     *  little-endian; creates exactly the pages it touches. */
    void
    writeLE(Addr addr, u32 value, unsigned bytes)
    {
        if (onOnePage(addr, bytes)) {
            u8 *b = page(addr).data() + (addr & (kPageSize - 1));
            for (unsigned i = 0; i < bytes; ++i)
                b[i] = static_cast<u8>(value >> (8 * i));
            return;
        }
        for (unsigned i = 0; i < bytes; ++i)
            write8(addr + i, static_cast<u8>(value >> (8 * i)));
    }

    const Page *
    findPage(Addr addr) const
    {
        auto it = pages_.find(addr >> kPageShift);
        return it == pages_.end() ? nullptr : it->second.get();
    }

    Page &
    page(Addr addr)
    {
        auto &slot = pages_[addr >> kPageShift];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->fill(0);
        }
        return *slot;
    }

    std::unordered_map<u32, std::unique_ptr<Page>> pages_;
};

} // namespace diag

#endif // DIAG_COMMON_SPARSE_MEM_HPP
