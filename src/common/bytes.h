// bytes.h — raw byte-buffer type used throughout the NTCS, plus helpers.
//
// All NTCS messages are, at the bottom, contiguous byte buffers (the paper
// requires the original application message to be a contiguous block of
// memory; linked structures are not allowed — §5.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ntcs {

/// Owned contiguous byte buffer.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of a byte buffer.
using BytesView = std::span<const std::uint8_t>;

/// Build a Bytes from a string (no terminator is added).
Bytes to_bytes(std::string_view s);

/// Copy a view into a Bytes of its own.
inline Bytes to_bytes(BytesView b) { return Bytes(b.begin(), b.end()); }

/// Interpret a byte buffer as text (copies).
std::string to_string(BytesView b);

/// Append the contents of `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Hex dump (for diagnostics), at most `max_bytes` shown.
std::string hex_dump(BytesView b, std::size_t max_bytes = 64);

}  // namespace ntcs
