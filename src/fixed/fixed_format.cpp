#include "fixed/fixed_format.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace falvolt::fx {

FixedFormat::FixedFormat(int total_bits, int frac_bits)
    : total_bits_(total_bits), frac_bits_(frac_bits) {
  if (total_bits < 2 || total_bits > 32) {
    throw std::invalid_argument("FixedFormat: total_bits must be in [2, 32]");
  }
  if (frac_bits < 0 || frac_bits > total_bits - 1) {
    throw std::invalid_argument(
        "FixedFormat: frac_bits must be in [0, total_bits - 1]");
  }
  scale_ = std::int64_t{1} << frac_bits;
  const std::int64_t half_range = std::int64_t{1} << (total_bits - 1);
  max_raw_ = static_cast<std::int32_t>(half_range - 1);
  min_raw_ = static_cast<std::int32_t>(-half_range);
  word_mask_ = total_bits == 32 ? 0xffffffffu
                                : ((std::uint32_t{1} << total_bits) - 1);
  sign_bit_ = std::uint32_t{1} << (total_bits - 1);
}

std::int32_t FixedFormat::quantize(double v) const {
  if (std::isnan(v)) return 0;
  const double scaled = v * static_cast<double>(scale_);
  // llround saturates badly on overflow -> clamp in double space first.
  const double lo = static_cast<double>(min_raw_);
  const double hi = static_cast<double>(max_raw_);
  if (scaled <= lo) return min_raw_;
  if (scaled >= hi) return max_raw_;
  return static_cast<std::int32_t>(std::llround(scaled));
}

std::int32_t FixedFormat::sign_extend(std::uint32_t bits) const {
  bits &= word_mask_;
  if (total_bits_ == 32) return static_cast<std::int32_t>(bits);
  if (bits & sign_bit_) {
    return static_cast<std::int32_t>(bits | ~word_mask_);
  }
  return static_cast<std::int32_t>(bits);
}

std::string FixedFormat::to_string() const {
  std::ostringstream os;
  os << "Q" << int_bits() << "." << frac_bits_ << " (" << total_bits_
     << "-bit)";
  return os.str();
}

}  // namespace falvolt::fx
