#include "arith/floatk.h"

#include <cmath>

#include "base/logging.h"

namespace ccdb {

FloatK::FloatK(BigInt mantissa, std::int64_t exponent)
    : mantissa_(std::move(mantissa)), exponent_(exponent) {
  Normalize();
}

void FloatK::Normalize() {
  if (mantissa_.is_zero()) {
    exponent_ = 0;
    return;
  }
  while (mantissa_.IsEven()) {
    mantissa_ = mantissa_.ShiftRight(1);
    ++exponent_;
  }
}

Rational FloatK::ToRational() const {
  return Rational::FromScaledInt(mantissa_, exponent_);
}

bool FloatK::FitsFormat(const FpFormat& format) const {
  if (is_zero()) return true;
  if (mantissa_.bit_length() > format.mantissa_bits) return false;
  return exponent_ >= -format.exponent_bound &&
         exponent_ <= format.exponent_bound;
}

StatusOr<FloatK> FloatK::FromRational(const Rational& value,
                                      const FpFormat& format, FpMode mode) {
  if (value.is_zero()) return FloatK();

  // Exact case: denominator a power of two and everything fits.
  {
    const BigInt& den = value.denominator();
    BigInt d = den;
    std::int64_t e = 0;
    while (d.IsEven()) {
      d = d.ShiftRight(1);
      ++e;
    }
    if (d.is_one()) {
      FloatK exact(value.numerator(), -e);
      if (exact.FitsFormat(format)) return exact;
      if (mode == FpMode::kExact) {
        return Status::Undefined("value " + value.ToString() +
                                 " not representable in F_k (mantissa)");
      }
    } else if (mode == FpMode::kExact) {
      return Status::Undefined("value " + value.ToString() +
                               " not representable in F_k (non-dyadic)");
    }
  }

  // Round to nearest-even with `format.mantissa_bits` significant bits.
  // Find scale s such that round(value * 2^s) has exactly mantissa_bits bits.
  Rational magnitude = value.Abs();
  std::int64_t scale =
      static_cast<std::int64_t>(format.mantissa_bits) -
      (static_cast<std::int64_t>(magnitude.numerator().bit_length()) -
       static_cast<std::int64_t>(magnitude.denominator().bit_length())) -
      1;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // scaled = value * 2^scale as an exact rational.
    Rational scaled =
        scale >= 0
            ? magnitude * Rational(BigInt::Pow2(static_cast<std::uint64_t>(scale)))
            : magnitude / Rational(BigInt::Pow2(static_cast<std::uint64_t>(-scale)));
    // Round to nearest integer, ties to even.
    BigInt floor = scaled.Floor();
    Rational frac = scaled - Rational(floor);
    BigInt rounded = floor;
    int half_cmp = frac.Compare(Rational(BigInt(1), BigInt(2)));
    if (half_cmp > 0 || (half_cmp == 0 && !floor.IsEven())) {
      rounded += BigInt(1);
    }
    if (rounded.is_zero()) {
      // Scale guess too small (value rounded away entirely): zoom in.
      scale += static_cast<std::int64_t>(format.mantissa_bits);
      continue;
    }
    if (rounded.bit_length() != format.mantissa_bits) {
      // Wrong significand width (initial estimate off by one, or rounding
      // carried into a new bit as in 0.1111 -> 1.000): move the scale so the
      // significand has exactly mantissa_bits bits and re-round.
      scale += static_cast<std::int64_t>(format.mantissa_bits) -
               static_cast<std::int64_t>(rounded.bit_length());
      continue;
    }
    FloatK result(value.sign() < 0 ? -rounded : rounded, -scale);
    if (!result.FitsFormat(format)) {
      if (result.is_zero()) return FloatK();
      return Status::Undefined("exponent overflow in F_k for " +
                               value.ToString());
    }
    return result;
  }
  return Status::Internal("FloatK rounding failed to converge");
}

FloatK FloatK::FromDouble(double value) {
  CCDB_CHECK_MSG(std::isfinite(value), "FromDouble requires a finite value");
  if (value == 0.0) return FloatK();
  int exp = 0;
  double frac = std::frexp(value, &exp);  // value = frac * 2^exp, |frac| in [0.5,1)
  // 53 bits of mantissa.
  double scaled = std::ldexp(frac, 53);
  BigInt mantissa(static_cast<std::int64_t>(scaled));
  return FloatK(std::move(mantissa), exp - 53);
}

StatusOr<FloatK> FloatK::Add(const FloatK& a, const FloatK& b,
                             const FpFormat& format, FpMode mode) {
  return FromRational(a.ToRational() + b.ToRational(), format, mode);
}

StatusOr<FloatK> FloatK::Sub(const FloatK& a, const FloatK& b,
                             const FpFormat& format, FpMode mode) {
  return FromRational(a.ToRational() - b.ToRational(), format, mode);
}

StatusOr<FloatK> FloatK::Mul(const FloatK& a, const FloatK& b,
                             const FpFormat& format, FpMode mode) {
  return FromRational(a.ToRational() * b.ToRational(), format, mode);
}

std::string FloatK::ToString() const {
  return "[" + mantissa_.ToString() + "," + std::to_string(exponent_) + "]";
}

}  // namespace ccdb
