/**
 * @file
 * Fixed-width little-endian multi-limb unsigned integers.
 *
 * BigInt<N> is the raw storage type underneath every finite-field
 * element in GZKP-CPP. A value is N 64-bit limbs, least-significant
 * limb first, matching the machine-word decomposition the paper
 * describes in Section 2.1 (r = sum r_i * D^i with D = 2^64).
 *
 * Only plain integer arithmetic lives here; modular arithmetic is in
 * fp.hh. Everything is header-only so the compiler can fully unroll
 * the small fixed-size loops (N is 4, 6, or 12 in practice).
 */

#ifndef GZKP_FF_BIGINT_HH
#define GZKP_FF_BIGINT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gzkp::ff {

using uint128 = unsigned __int128;

/**
 * Fixed-width unsigned integer with N 64-bit limbs (little-endian).
 */
template <std::size_t N>
struct BigInt {
    static constexpr std::size_t kLimbs = N;
    static constexpr std::size_t kBits = N * 64;

    std::array<std::uint64_t, N> limbs{};

    constexpr BigInt() = default;

    /** Construct from a single machine word. */
    static constexpr BigInt
    fromUint64(std::uint64_t v)
    {
        BigInt r;
        r.limbs[0] = v;
        return r;
    }

    static constexpr BigInt zero() { return BigInt(); }
    static constexpr BigInt one() { return fromUint64(1); }

    /**
     * Parse a hex string (optionally "0x"-prefixed). Throws
     * std::invalid_argument on malformed input or overflow. Usable in
     * constant expressions (Fp's compile-time modulus).
     */
    static constexpr BigInt
    fromHex(std::string_view s)
    {
        if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
            s.remove_prefix(2);
        if (s.empty())
            throw std::invalid_argument("BigInt::fromHex: empty string");
        BigInt r;
        std::size_t bit = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            char c = s[s.size() - 1 - i];
            std::uint64_t v;
            if (c >= '0' && c <= '9') v = c - '0';
            else if (c >= 'a' && c <= 'f') v = 10 + (c - 'a');
            else if (c >= 'A' && c <= 'F') v = 10 + (c - 'A');
            else
                throw std::invalid_argument("BigInt::fromHex: bad digit");
            bit = i * 4;
            if (v != 0 && bit + 4 > kBits && (bit >= kBits || (v >> (kBits - bit)) != 0))
                throw std::invalid_argument("BigInt::fromHex: overflow");
            if (bit < kBits)
                r.limbs[bit / 64] |= v << (bit % 64);
        }
        return r;
    }

    /** Render as lowercase hex with "0x" prefix, no leading zeros. */
    std::string
    toHex() const
    {
        static const char *digits = "0123456789abcdef";
        std::string out;
        bool started = false;
        for (std::size_t i = N; i-- > 0;) {
            for (int shift = 60; shift >= 0; shift -= 4) {
                unsigned d = (limbs[i] >> shift) & 0xf;
                if (d != 0)
                    started = true;
                if (started)
                    out.push_back(digits[d]);
            }
        }
        if (!started)
            out = "0";
        return "0x" + out;
    }

    constexpr bool
    isZero() const
    {
        for (std::size_t i = 0; i < N; ++i)
            if (limbs[i] != 0)
                return false;
        return true;
    }

    constexpr bool isOdd() const { return limbs[0] & 1; }

    /** Bit i (0 = least significant). Out-of-range bits read as 0. */
    constexpr bool
    bit(std::size_t i) const
    {
        if (i >= kBits)
            return false;
        return (limbs[i / 64] >> (i % 64)) & 1;
    }

    constexpr void
    setBit(std::size_t i)
    {
        limbs[i / 64] |= std::uint64_t(1) << (i % 64);
    }

    /** Index of the highest set bit plus one; 0 for zero. */
    constexpr std::size_t
    numBits() const
    {
        for (std::size_t i = N; i-- > 0;) {
            if (limbs[i] != 0) {
                std::uint64_t v = limbs[i];
                std::size_t b = 0;
                while (v != 0) {
                    v >>= 1;
                    ++b;
                }
                return i * 64 + b;
            }
        }
        return 0;
    }

    /** Number of trailing zero bits (kBits for zero). */
    constexpr std::size_t
    countTrailingZeros() const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (limbs[i] != 0) {
                std::uint64_t v = limbs[i];
                std::size_t b = 0;
                while ((v & 1) == 0) {
                    v >>= 1;
                    ++b;
                }
                return i * 64 + b;
            }
        }
        return kBits;
    }

    /** Three-way compare: -1, 0, +1. */
    constexpr int
    cmp(const BigInt &o) const
    {
        for (std::size_t i = N; i-- > 0;) {
            if (limbs[i] < o.limbs[i])
                return -1;
            if (limbs[i] > o.limbs[i])
                return 1;
        }
        return 0;
    }

    constexpr bool operator==(const BigInt &o) const { return cmp(o) == 0; }
    constexpr bool operator!=(const BigInt &o) const { return cmp(o) != 0; }
    constexpr bool operator<(const BigInt &o) const { return cmp(o) < 0; }
    constexpr bool operator<=(const BigInt &o) const { return cmp(o) <= 0; }
    constexpr bool operator>(const BigInt &o) const { return cmp(o) > 0; }
    constexpr bool operator>=(const BigInt &o) const { return cmp(o) >= 0; }

    /** out = a + b; returns the carry out of the top limb. */
    static constexpr std::uint64_t
    add(const BigInt &a, const BigInt &b, BigInt &out)
    {
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < N; ++i) {
            uint128 t = uint128(a.limbs[i]) + b.limbs[i] + carry;
            out.limbs[i] = std::uint64_t(t);
            carry = std::uint64_t(t >> 64);
        }
        return carry;
    }

    /** out = a - b; returns the borrow out of the top limb (0 or 1). */
    static constexpr std::uint64_t
    sub(const BigInt &a, const BigInt &b, BigInt &out)
    {
        std::uint64_t borrow = 0;
        for (std::size_t i = 0; i < N; ++i) {
            uint128 t = uint128(a.limbs[i]) - b.limbs[i] - borrow;
            out.limbs[i] = std::uint64_t(t);
            borrow = (t >> 64) ? 1 : 0;
        }
        return borrow;
    }

    /** Full schoolbook product a * b, 2N limbs wide. */
    static constexpr BigInt<2 * N>
    mulWide(const BigInt &a, const BigInt &b)
    {
        BigInt<2 * N> out;
        for (std::size_t i = 0; i < N; ++i) {
            std::uint64_t carry = 0;
            for (std::size_t j = 0; j < N; ++j) {
                uint128 t = uint128(a.limbs[i]) * b.limbs[j] +
                    out.limbs[i + j] + carry;
                out.limbs[i + j] = std::uint64_t(t);
                carry = std::uint64_t(t >> 64);
            }
            out.limbs[i + N] = carry;
        }
        return out;
    }

    /** Logical left shift by `bits` (bits may exceed 64). */
    constexpr BigInt
    shl(std::size_t bits) const
    {
        BigInt r;
        std::size_t limb_shift = bits / 64;
        std::size_t bit_shift = bits % 64;
        for (std::size_t i = N; i-- > 0;) {
            std::uint64_t v = 0;
            if (i >= limb_shift) {
                v = limbs[i - limb_shift] << bit_shift;
                if (bit_shift != 0 && i > limb_shift)
                    v |= limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            r.limbs[i] = v;
        }
        return r;
    }

    /** Logical right shift by `bits` (bits may exceed 64). */
    constexpr BigInt
    shr(std::size_t bits) const
    {
        BigInt r;
        std::size_t limb_shift = bits / 64;
        std::size_t bit_shift = bits % 64;
        for (std::size_t i = 0; i < N; ++i) {
            std::uint64_t v = 0;
            if (i + limb_shift < N) {
                v = limbs[i + limb_shift] >> bit_shift;
                if (bit_shift != 0 && i + limb_shift + 1 < N)
                    v |= limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            r.limbs[i] = v;
        }
        return r;
    }

    /**
     * Extract a window of `width` bits starting at bit `lo`
     * (width <= 64); bits past the top read as 0. Used by every
     * windowed MSM algorithm.
     */
    constexpr std::uint64_t
    bits(std::size_t lo, std::size_t width) const
    {
        if (width == 0 || lo >= kBits)
            return 0;
        const std::size_t limb = lo / 64, shift = lo % 64;
        std::uint64_t v = limbs[limb] >> shift;
        if (shift != 0 && limb + 1 < N)
            v |= limbs[limb + 1] << (64 - shift);
        return width >= 64 ? v : v & ((std::uint64_t(1) << width) - 1);
    }

    /** Uniform random value over the full 64*N-bit range. */
    template <typename Rng>
    static BigInt
    random(Rng &rng)
    {
        std::uniform_int_distribution<std::uint64_t> dist;
        BigInt r;
        for (std::size_t i = 0; i < N; ++i)
            r.limbs[i] = dist(rng);
        return r;
    }

    /** Truncate or zero-extend to M limbs. */
    template <std::size_t M>
    constexpr BigInt<M>
    resize() const
    {
        BigInt<M> r;
        for (std::size_t i = 0; i < (M < N ? M : N); ++i)
            r.limbs[i] = limbs[i];
        return r;
    }
};

} // namespace gzkp::ff

#endif // GZKP_FF_BIGINT_HH
