// The snapshot codec: every detector and composite format frames its
// state through these helpers, little-endian and length-checked, so corrupt
// input surfaces as std::runtime_error rather than silently wrong state.
//
//   write_u64 / read_u64        one word
//   write_words / read_words    a counted word block (the filter payloads)
//   expect_magic                a format's leading tag
//   write_window / expect_window
//                               the five window words every detector and
//                               the tiered pool carry; a snapshot whose
//                               window differs from the instance's, or
//                               whose kind or basis word is out of range,
//                               is refused by one message
//   write_index_strategy / expect_index_strategy
//                               the filter headers' retired strategy word
//   write_section / read_section
//                               a versioned, CRC-checked section; the
//                               callback forms hand the body a payload
//                               stream and refuse payload bytes the body
//                               did not consume
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/window.hpp"
#include "hashing/crc32.hpp"

namespace ppc::core::detail {

inline void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

inline std::uint64_t read_u64(std::istream& in) {
  char buf[8];
  in.read(buf, 8);
  if (!in) throw std::runtime_error("snapshot: truncated input");
  std::uint64_t v;
  std::memcpy(&v, buf, 8);
  return v;
}

inline void write_words(std::ostream& out, std::span<const std::uint64_t> w) {
  write_u64(out, w.size());
  out.write(reinterpret_cast<const char*>(w.data()),
            static_cast<std::streamsize>(w.size() * 8));
}

/// Bytes left in `in` where the stream can seek (files, stringstreams),
/// else UINT64_MAX. Counts read from a header are bounded by it BEFORE
/// allocating: a corrupt header must fail cleanly, not reserve gigabytes
/// and then hit EOF.
inline std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return ~std::uint64_t{0};
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  return end == std::istream::pos_type(-1)
             ? ~std::uint64_t{0}
             : static_cast<std::uint64_t>(end - pos);
}

/// Hard cap on one word block: 2 GiB of filter payload. Real snapshots sit
/// far below this (the DetectorPool budget caps live filters at 1 GiB);
/// a count beyond it can only come from corruption, and rejecting it here
/// keeps a forged header from turning into a multi-GiB allocation.
inline constexpr std::uint64_t kMaxSnapshotWords = std::uint64_t{1} << 28;

inline std::vector<std::uint64_t> read_words(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  if (count > kMaxSnapshotWords) {
    throw std::runtime_error("snapshot: implausible word count " +
                             std::to_string(count));
  }
  if (count * 8 > bytes_left(in)) {
    throw std::runtime_error("snapshot: word count exceeds stream size");
  }
  std::vector<std::uint64_t> w(count);
  in.read(reinterpret_cast<char*>(w.data()),
          static_cast<std::streamsize>(count * 8));
  if (!in) throw std::runtime_error("snapshot: truncated word block");
  return w;
}

inline void expect_magic(std::istream& in, std::uint64_t magic,
                         const char* what) {
  if (read_u64(in) != magic) {
    throw std::runtime_error(std::string("snapshot: bad magic for ") + what);
  }
}

inline void write_window(std::ostream& out, const WindowSpec& w) {
  write_u64(out, static_cast<std::uint64_t>(w.kind));
  write_u64(out, static_cast<std::uint64_t>(w.basis));
  write_u64(out, w.length);
  write_u64(out, w.subwindows);
  write_u64(out, w.time_unit_us);
}

/// Reads the five window words and requires them to describe `expected`.
/// `what` names the format in the error ("<what>::restore: ...").
inline void expect_window(std::istream& in, const WindowSpec& expected,
                          const char* what) {
  std::uint64_t w[5];
  for (std::uint64_t& word : w) word = read_u64(in);
  const bool in_range =
      w[0] <= static_cast<std::uint64_t>(WindowKind::kSliding) &&
      w[1] <= static_cast<std::uint64_t>(WindowBasis::kTime) &&
      w[3] <= 0xffffffffull;
  const WindowSpec saved{static_cast<WindowKind>(w[0]),
                         static_cast<WindowBasis>(w[1]), w[2],
                         static_cast<std::uint32_t>(w[3]), w[4]};
  if (in_range && saved == expected) return;
  throw std::runtime_error(
      std::string(what) + "::restore: snapshot window [" +
      (in_range ? saved.describe()
                : "corrupt: kind " + std::to_string(w[0]) + ", basis " +
                      std::to_string(w[1]) + ", Q=" + std::to_string(w[3])) +
      "] does not match this instance [" + expected.describe() + "]");
}

/// The filter headers keep a word that once named the index strategy.
/// Double hashing, written as 0, is the only derivation left; any other
/// value describes a filter this build cannot reproduce.
inline void write_index_strategy(std::ostream& out) { write_u64(out, 0); }

inline void expect_index_strategy(std::istream& in, const char* what) {
  const std::uint64_t word = read_u64(in);
  if (word != 0) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             " index strategy " + std::to_string(word) +
                             " is not supported (only 0, double hashing)");
  }
}

// ---------------------------------------------------------------------------
// Versioned, CRC-checked sections.
//
// GBF and TBF keep their original raw field layout; APBF and everything
// built on top of the filters — ShardedDetector, DetectorPool,
// TieredDetectorPool, ReputationLedger and the ppcd snapshot file envelope
// — wrap their payload in a section header, so corruption anywhere in a
// multi-filter file is caught before any state is applied:
//
//   u64 magic       section type (see the registry below)
//   u64 version     format version, currently kSnapshotFormatVersion
//   u64 byte_count  payload length in bytes
//   u64 crc         CRC-32 (IEEE 0xEDB88320, same polynomial as the wire
//                   protocol) of the payload bytes, stored in the low 32
//                   bits; high 32 bits must be zero
//   u8[byte_count]  payload
// ---------------------------------------------------------------------------

/// Registry of section/filter magics ("PPC..." tags in little-endian bytes).
inline constexpr std::uint64_t kShardedMagic = 0x50504353'48443031ULL;  // "PPCSHD01"
inline constexpr std::uint64_t kPoolMagic = 0x50504350'4F4F4C31ULL;     // "PPCPOOL1"
inline constexpr std::uint64_t kServerSnapshotMagic =
    0x50504353'52563031ULL;  // "PPCSRV01"
inline constexpr std::uint64_t kApbfMagic = 0x50504341'50424631ULL;  // "PPCAPBF1"
inline constexpr std::uint64_t kTieredPoolMagic =
    0x50504354'49455231ULL;  // "PPCTIER1"
inline constexpr std::uint64_t kEnforceMagic =
    0x50504345'4E463031ULL;  // "PPCENF01"

inline constexpr std::uint64_t kSnapshotFormatVersion = 1;

/// Hard cap on one section payload: 2 GiB, matching kMaxSnapshotWords.
inline constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 31;

/// The section checksum: the same CRC-32 the wire frames carry.
inline std::uint32_t section_crc32(const std::string& payload) {
  return hashing::crc32(
      {reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
}

/// Wraps `payload` in a section header (magic, version, length, CRC) and
/// writes it to `out`.
inline void write_section(std::ostream& out, std::uint64_t magic,
                          const std::string& payload) {
  write_u64(out, magic);
  write_u64(out, kSnapshotFormatVersion);
  write_u64(out, payload.size());
  write_u64(out, section_crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Reads and validates one section from `in`; returns the payload bytes.
/// Rejects wrong magic, unknown version, implausible length (absolute cap
/// plus, on seekable streams, the bytes actually remaining — a forged count
/// must fail before allocation), and any CRC mismatch.
inline std::string read_section(std::istream& in, std::uint64_t magic,
                                const char* what) {
  expect_magic(in, magic, what);
  const std::uint64_t version = read_u64(in);
  if (version != kSnapshotFormatVersion) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": unsupported format version " +
                             std::to_string(version));
  }
  const std::uint64_t bytes = read_u64(in);
  if (bytes > kMaxSectionBytes) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": implausible section size " +
                             std::to_string(bytes));
  }
  const std::uint64_t stored_crc = read_u64(in);
  if (stored_crc > 0xFFFFFFFFull) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": corrupt checksum field");
  }
  if (bytes > bytes_left(in)) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": section size exceeds stream size");
  }
  std::string payload(static_cast<std::size_t>(bytes), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (!in) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": truncated section payload");
  }
  if (section_crc32(payload) != stored_crc) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": checksum mismatch (corrupt snapshot)");
  }
  return payload;
}

/// Writes one section whose payload is what `body` writes to the stream it
/// is handed.
template <std::invocable<std::ostream&> Body>
void write_section(std::ostream& out, std::uint64_t magic, Body&& body) {
  std::ostringstream payload(std::ios::binary);
  std::forward<Body>(body)(payload);
  write_section(out, magic, std::move(payload).str());
}

/// Reads and validates one section, then hands its payload to `body` as a
/// stream. Payload bytes `body` leaves unread are refused: a section holds
/// exactly one state.
template <std::invocable<std::istream&> Body>
void read_section(std::istream& in, std::uint64_t magic, const char* what,
                  Body&& body) {
  std::istringstream payload(read_section(in, magic, what), std::ios::binary);
  std::forward<Body>(body)(payload);
  if (payload.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": trailing bytes after the section payload");
  }
}

}  // namespace ppc::core::detail
