#include "store/record_frame.h"

#include <cstring>

#include "store/fingerprint.h"
#include "store/hash.h"

namespace falvolt::store {

namespace {

void encode_le(std::uint8_t* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t decode_le(const std::uint8_t* in, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= std::uint64_t{in[i]} << (8 * i);
  }
  return v;
}

}  // namespace

std::string frame_record(const std::string& payload) {
  Sha256 h;
  h.update(payload);
  const Sha256::Digest checksum = h.digest();
  std::uint8_t header[kRecordHeaderBytes];
  encode_le(header, kRecordMagic, 4);
  encode_le(header + 4, kStoreFormatEpoch, 4);
  encode_le(header + 8, payload.size(), 8);
  std::memcpy(header + 16, checksum.data(), checksum.size());
  std::string out;
  out.reserve(sizeof(header) + payload.size());
  out.append(reinterpret_cast<const char*>(header), sizeof(header));
  out += payload;
  return out;
}

std::optional<std::string> unframe_record(const std::string& bytes) {
  if (bytes.size() < kRecordHeaderBytes) return std::nullopt;
  const std::uint8_t* header =
      reinterpret_cast<const std::uint8_t*>(bytes.data());
  if (decode_le(header, 4) != kRecordMagic ||
      decode_le(header + 4, 4) != kStoreFormatEpoch) {
    return std::nullopt;
  }
  // The length must match the frame exactly: a truncated payload AND a
  // record with trailing garbage both read as a miss.
  const std::uint64_t payload_len = decode_le(header + 8, 8);
  if (payload_len != bytes.size() - kRecordHeaderBytes) return std::nullopt;

  std::string payload = bytes.substr(kRecordHeaderBytes);
  Sha256 h;
  h.update(payload);
  const Sha256::Digest digest = h.digest();
  if (std::memcmp(digest.data(), header + 16, digest.size()) != 0) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace falvolt::store
