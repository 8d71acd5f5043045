#pragma once
// Little-endian length-prefixed byte codec, shared by the scenario-result
// store payload (core/sweep.cpp) and the baseline parameter cache
// (core/experiment.cpp). Writers append fixed-width integers / doubles /
// length-prefixed strings to a std::string; ByteReader walks the same
// layout back, checking the remaining byte count before EVERY read, so a
// truncated or garbage buffer can only ever fail a read — never
// over-read, throw, or allocate from a damaged length word. That
// defensive contract is what lets both consumers treat malformed input
// as a miss or a load error instead of undefined behavior.

#include <cstdint>
#include <cstring>
#include <string>

namespace falvolt::common {

inline void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline void put_i32(std::string& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}

inline void put_f64(std::string& b, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(b, bits);
}

inline void put_str(std::string& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b += s;
}

/// Cursor over an encoded buffer; every read validates the remaining
/// byte count first. All reads return false (leaving `out` unspecified)
/// on underflow.
struct ByteReader {
  const std::string& bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }

  bool u32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= std::uint32_t{static_cast<unsigned char>(bytes[pos + i])}
             << (8 * i);
    }
    pos += 4;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= std::uint64_t{static_cast<unsigned char>(bytes[pos + i])}
             << (8 * i);
    }
    pos += 8;
    return true;
  }

  bool i32(std::int32_t& out) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    out = static_cast<std::int32_t>(raw);
    return true;
  }

  bool f64(double& out) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&out, &bits, sizeof(out));
    return true;
  }

  bool str(std::string& out) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (len > remaining()) return false;
    out.assign(bytes, pos, len);
    pos += len;
    return true;
  }
};

}  // namespace falvolt::common
