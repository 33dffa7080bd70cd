#include "isa/isa.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace nosq {

void
opcodeMisuse(const char *query, const char *kind, Opcode op)
{
    nosq_panic("%s of %s opcode %d", query, kind, static_cast<int>(op));
}

const char *
opcodeName(Opcode op)
{
    const auto index = static_cast<std::size_t>(op);
    return index < std::size(opcode_table) ? opcode_table[index].name
                                           : "???";
}

std::uint64_t
extendValue(std::uint64_t raw, unsigned size, ExtendKind ext)
{
    if (size == 8)
        return raw;
    const std::uint64_t mask =
        (size == 8) ? ~0ull : ((1ull << (size * 8)) - 1);
    raw &= mask;
    switch (ext) {
      case ExtendKind::Zero:
        return raw;
      case ExtendKind::Sign: {
        const std::uint64_t sign_bit = 1ull << (size * 8 - 1);
        return (raw ^ sign_bit) - sign_bit;
      }
      case ExtendKind::FpCvt:
        nosq_assert(size == 4, "FpCvt extend of non-4-byte value");
        return fp32ToReg(static_cast<std::uint32_t>(raw));
    }
    return raw;
}

std::uint64_t
fp32ToReg(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    double d = static_cast<double>(f);
    std::uint64_t out;
    std::memcpy(&out, &d, sizeof(out));
    return out;
}

std::uint32_t
regToFp32(std::uint64_t reg)
{
    double d;
    std::memcpy(&d, &reg, sizeof(d));
    float f = static_cast<float>(d);
    std::uint32_t out;
    std::memcpy(&out, &f, sizeof(out));
    return out;
}

} // namespace nosq
