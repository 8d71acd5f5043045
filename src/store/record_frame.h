#pragma once
// The on-disk frame of every `.rec` record file (LocalDirStore).
//
// Frame: magic u32, store format epoch u32, payload length u64 — all
// explicitly little-endian so stores move between machines regardless
// of host byte order — then the 32-byte SHA-256 of the payload, then
// the payload itself. Validation checks every field AND that the frame
// length matches exactly (a truncated payload and trailing garbage
// both fail), so damage of any kind degrades to "miss" (recompute),
// never to a throw or a wrong payload.

#include <cstdint>
#include <optional>
#include <string>

namespace falvolt::store {

constexpr std::uint32_t kRecordMagic = 0x46565253;  // "FVRS"

/// Frame header size: magic u32 + epoch u32 + payload length u64 +
/// SHA-256 digest (32 bytes).
constexpr std::size_t kRecordHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) + 32;

/// Frame `payload` into the on-disk record bytes (header + payload).
std::string frame_record(const std::string& payload);

/// Validate a full frame and return its payload; nullopt on bad magic,
/// foreign epoch, length mismatch (truncation OR trailing garbage), or
/// checksum mismatch. Never throws on damage.
std::optional<std::string> unframe_record(const std::string& bytes);

// Durable publishing lives in io::atomic_publish (io/env.h): records
// and manifests both stage + rename + dir-fsync through the
// one injectable entry point, which is what the crash harness faults.

}  // namespace falvolt::store
