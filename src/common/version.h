#pragma once
// Library version, embedded in result-store provenance records so a
// fleet operator can tell which build computed a cached cell. Bump on
// every release-worthy change; unlike store::kStoreFormatEpoch this
// NEVER invalidates cached results — it is a label, not an input.

namespace falvolt {

inline constexpr const char* kFalvoltVersion = "0.6.0";

}  // namespace falvolt
