// The repo's canonical float total order: the order every sort backend
// produces and every sketch that orders floats agrees on.

#ifndef STREAMGPU_COMMON_FLOAT_ORDER_H_
#define STREAMGPU_COMMON_FLOAT_ORDER_H_

#include <bit>
#include <cstdint>

namespace streamgpu {

/// Maps a float's bit pattern to an unsigned key with the same total order:
/// negative floats have their bits inverted, non-negative floats get the sign
/// bit set. Strictly monotone over bit patterns, so sorting the keys sorts
/// the floats with -0.0 < +0.0, sign-set NaNs at the bottom and sign-clear
/// NaNs at the top (each by payload) — a deterministic total order where
/// operator< is only partial.
constexpr std::uint32_t OrderedKeyFromBits(std::uint32_t bits) {
  return bits & 0x80000000u ? ~bits : bits | 0x80000000u;
}

/// OrderedKeyFromBits of `value`'s bit pattern.
constexpr std::uint32_t OrderedKey(float value) {
  return OrderedKeyFromBits(std::bit_cast<std::uint32_t>(value));
}

}  // namespace streamgpu

#endif  // STREAMGPU_COMMON_FLOAT_ORDER_H_
