#ifndef CCDB_ARITH_FLOATK_H_
#define CCDB_ARITH_FLOATK_H_

#include <cstdint>
#include <string>

#include "arith/bigint.h"
#include "arith/rational.h"
#include "base/status.h"

namespace ccdb {

/// Format of the finite structure F_k = <F^k, <=, +, ., 0, 1> of k-floating
/// numbers (paper, Section 4): a floating number is a pair [n, e] denoting
/// n * 2^e, with the mantissa n on `mantissa_bits` bits and the exponent e
/// bounded by `exponent_bound` (the paper allots log(k) digits to e, i.e.
/// |e| <= k when the base is 2).
struct FpFormat {
  std::uint32_t mantissa_bits = 53;
  std::int64_t exponent_bound = 53;

  /// Convenience: the paper's F_k with base-2 numeration.
  static FpFormat ForK(std::uint32_t k) {
    return FpFormat{k, static_cast<std::int64_t>(k)};
  }
};

/// How an operation treats results that are not exactly representable.
///
/// The paper models F_k operations as *relations* (footnote 1): they are
/// partially defined, and a term's value "might be undefined … caused by
/// overflow of exponent (number too large or too small) or mantissa
/// (insufficient precision)". kExact reproduces that semantics; kRound is
/// the conventional round-to-nearest-even semantics used by the numerical
/// modules of Section 5.
enum class FpMode {
  kExact,
  kRound,
};

/// A value of F_k: mantissa * 2^exponent, normalized so the mantissa is odd
/// (or zero with exponent 0). Immutable value type.
class FloatK {
 public:
  /// Constructs zero.
  FloatK() : mantissa_(0), exponent_(0) {}

  /// Constructs mantissa * 2^exponent, normalizing. The result is NOT
  /// checked against any format; FitsFormat() tells whether it fits.
  FloatK(BigInt mantissa, std::int64_t exponent);

  /// Exact conversion from an integer.
  static FloatK FromInt(std::int64_t value) { return FloatK(BigInt(value), 0); }

  /// Rounds (or exactly converts) a rational into the format. Returns
  /// kUndefined on exponent overflow/underflow, or in kExact mode when the
  /// value is not representable.
  static StatusOr<FloatK> FromRational(const Rational& value,
                                       const FpFormat& format, FpMode mode);

  /// Nearest FloatK to a double; requires a finite double.
  static FloatK FromDouble(double value);

  const BigInt& mantissa() const { return mantissa_; }
  std::int64_t exponent() const { return exponent_; }

  bool is_zero() const { return mantissa_.is_zero(); }
  int sign() const { return mantissa_.sign(); }

  /// The exact rational value mantissa * 2^exponent.
  Rational ToRational() const;
  double ToDouble() const { return ToRational().ToDouble(); }

  /// True iff the value is representable in `format` (mantissa and exponent
  /// within bounds after normalization).
  bool FitsFormat(const FpFormat& format) const;

  /// F_k arithmetic: exact result re-fit into the format under `mode`.
  static StatusOr<FloatK> Add(const FloatK& a, const FloatK& b,
                              const FpFormat& format, FpMode mode);
  static StatusOr<FloatK> Sub(const FloatK& a, const FloatK& b,
                              const FpFormat& format, FpMode mode);
  static StatusOr<FloatK> Mul(const FloatK& a, const FloatK& b,
                              const FpFormat& format, FpMode mode);

  bool operator==(const FloatK& other) const {
    return mantissa_ == other.mantissa_ && exponent_ == other.exponent_;
  }
  bool operator!=(const FloatK& other) const { return !(*this == other); }
  bool operator<(const FloatK& other) const {
    return ToRational() < other.ToRational();
  }

  /// Renders "[n,e]" in the paper's pair notation.
  std::string ToString() const;

 private:
  void Normalize();

  BigInt mantissa_;
  std::int64_t exponent_;
};

}  // namespace ccdb

#endif  // CCDB_ARITH_FLOATK_H_
