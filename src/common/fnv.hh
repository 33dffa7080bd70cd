/**
 * @file
 * Shared FNV-1a 64 fingerprint accumulator.
 *
 * Hashes canonical "key=value" text instead of struct bytes, so
 * fingerprints are independent of padding, in-memory field order,
 * and ABI. Used by the sweep journal's job fingerprints
 * (sim/journal.cc) and the program cache's profile fingerprints
 * (workload/program_cache.cc); keep the byte-feeding discipline
 * stable -- journal fingerprints are persisted across runs.
 */

#ifndef NOSQ_COMMON_FNV_HH
#define NOSQ_COMMON_FNV_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace nosq {

/** FNV-1a 64 accumulator over length-prefixed canonical text. */
class Fnv
{
  public:
    void
    text(std::string_view s)
    {
        // Length prefix rather than a delimiter byte: with a
        // delimiter, adjacent free-form fields could absorb each
        // other's bytes ("A|B" + "C" vs "A" + "B|C") and distinct
        // tuples would collide.
        length(s.size());
        bytes(s);
    }

    /** Hashes the same bytes as text("<key>=<decimal value>"). */
    void
    field(const char *key, std::uint64_t value)
    {
        char digits[20];
        const char *end =
            std::to_chars(digits, digits + sizeof(digits), value).ptr;
        const std::string_view name(key);
        const std::string_view number(
            digits, static_cast<std::size_t>(end - digits));
        length(name.size() + 1 + number.size());
        bytes(name);
        byte('=');
        bytes(number);
    }

    /** The accumulated hash as 16 lowercase hex digits. */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(hash >> (60 - 4 * i)) & 0xf];
        return out;
    }

    /** The accumulated hash as a raw 64-bit value. */
    std::uint64_t value() const { return hash; }

  private:
    void
    length(std::uint64_t n)
    {
        for (int i = 0; i < 8; ++i) {
            byte(static_cast<unsigned char>(n & 0xff));
            n >>= 8;
        }
    }

    void
    bytes(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }

    void
    byte(unsigned char b)
    {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }

    std::uint64_t hash = 0xcbf29ce484222325ull;
};

} // namespace nosq

#endif // NOSQ_COMMON_FNV_HH
