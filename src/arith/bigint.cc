#include "arith/bigint.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "base/logging.h"

namespace ccdb {

namespace {
constexpr std::uint64_t kBase = 1ull << 32;
// Largest magnitude the inline word can hold for a negative value (|INT64_MIN|).
constexpr std::uint64_t kNegWordMax = 1ull << 63;

std::int64_t Int64FromMagnitude(bool negative, std::uint64_t magnitude) {
  // Negate in unsigned space so |INT64_MIN| round-trips without UB.
  if (negative) return -static_cast<std::int64_t>(magnitude - 1) - 1;
  return static_cast<std::int64_t>(magnitude);
}
}  // namespace

BigInt BigInt::FromMagnitude(bool negative, unsigned __int128 magnitude) {
  if (magnitude == 0) return BigInt();
  std::uint64_t word_max = negative ? kNegWordMax
                                    : static_cast<std::uint64_t>(INT64_MAX);
  if (magnitude <= word_max) {
    return BigInt(
        Int64FromMagnitude(negative, static_cast<std::uint64_t>(magnitude)));
  }
  BigInt result;
  result.small_ = false;
  result.negative_ = negative;
  while (magnitude != 0) {
    result.limbs_.push_back(static_cast<std::uint32_t>(magnitude & 0xffffffffu));
    magnitude >>= 32;
  }
  return result;
}

BigInt BigInt::FromInt128(__int128 value) {
  bool negative = value < 0;
  unsigned __int128 magnitude =
      negative ? ~static_cast<unsigned __int128>(value) + 1
               : static_cast<unsigned __int128>(value);
  return FromMagnitude(negative, magnitude);
}

BigInt BigInt::FromLimbs(bool negative, std::vector<std::uint32_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  if (limbs.size() <= 2) {
    std::uint64_t magnitude = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2) {
      magnitude |= static_cast<std::uint64_t>(limbs[1]) << 32;
    }
    return FromMagnitude(negative, magnitude);
  }
  BigInt result;
  result.small_ = false;
  result.negative_ = negative;
  result.limbs_ = std::move(limbs);
  return result;
}

std::vector<std::uint32_t> BigInt::MagnitudeLimbs() const {
  if (!small_) return limbs_;
  std::vector<std::uint32_t> out;
  std::uint64_t magnitude = SmallMagnitude();
  if (magnitude != 0) {
    out.push_back(static_cast<std::uint32_t>(magnitude & 0xffffffffu));
    std::uint32_t high = static_cast<std::uint32_t>(magnitude >> 32);
    if (high != 0) out.push_back(high);
  }
  return out;
}

StatusOr<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) {
    return Status::InvalidArgument("integer literal has no digits");
  }
  // Accumulate up to 18 digits at a time in a hardware word, splicing each
  // chunk in with one multiply-add; word-sized literals never leave the
  // inline representation.
  BigInt result;
  std::uint64_t chunk = 0;
  int chunk_digits = 0;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid digit in integer literal: " +
                                     std::string(text));
    }
    chunk = chunk * 10 + static_cast<std::uint64_t>(c - '0');
    if (++chunk_digits == 18) {
      result = result * BigInt(1000000000000000000ll) +
               BigInt(static_cast<std::int64_t>(chunk));
      chunk = 0;
      chunk_digits = 0;
    }
  }
  if (chunk_digits > 0) {
    std::int64_t scale = 1;
    for (int d = 0; d < chunk_digits; ++d) scale *= 10;
    result = result * BigInt(scale) + BigInt(static_cast<std::int64_t>(chunk));
  }
  if (negative) result = -result;
  return result;
}

BigInt BigInt::Pow2(std::uint64_t exponent) {
  if (exponent <= 62) return BigInt(std::int64_t{1} << exponent);
  BigInt result;
  result.small_ = false;
  result.negative_ = false;
  result.limbs_.assign(exponent / 32 + 1, 0);
  result.limbs_.back() = 1u << (exponent % 32);
  return result;
}

std::int64_t BigInt::ToInt64() const {
  CCDB_CHECK(small_);
  return value_;
}

double BigInt::ToDouble() const {
  if (small_) return static_cast<double>(value_);
  double result = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    result = result * static_cast<double>(kBase) + limbs_[i];
  }
  return negative_ ? -result : result;
}

BigInt BigInt::operator-() const {
  if (small_) {
    if (value_ == INT64_MIN) return FromMagnitude(false, kNegWordMax);
    return BigInt(-value_);
  }
  // Negating +2^63 lands back on INT64_MIN, so the flip must re-canonicalize.
  return FromLimbs(!negative_, limbs_);
}

BigInt BigInt::Abs() const {
  if (small_) {
    if (value_ == INT64_MIN) return FromMagnitude(false, kNegWordMax);
    return BigInt(value_ < 0 ? -value_ : value_);
  }
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

int BigInt::CompareMagnitude(const std::vector<std::uint32_t>& a,
                             const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (small_ && other.small_) {
    if (value_ == other.value_) return 0;
    return value_ < other.value_ ? -1 : 1;
  }
  // Mixed: by canonical form the limb value's magnitude exceeds every
  // inline value's, so its sign decides.
  if (!small_ && other.small_) return negative_ ? -1 : 1;
  if (small_ && !other.small_) return other.negative_ ? 1 : -1;
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

std::vector<std::uint32_t> BigInt::AddMagnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<std::uint32_t> out;
  out.reserve(big.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    std::uint64_t sum = carry + big[i] + (i < small.size() ? small[i] : 0u);
    out.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::SubMagnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  CCDB_DCHECK(CompareMagnitude(a, b) >= 0);
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<std::uint32_t> BigInt::MulMagnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
BigInt::DivModMagnitude(const std::vector<std::uint32_t>& a,
                        const std::vector<std::uint32_t>& b) {
  CCDB_CHECK_MSG(!b.empty(), "division by zero");
  if (CompareMagnitude(a, b) < 0) return {{}, a};
  if (b.size() == 1) {
    // Short division.
    std::vector<std::uint32_t> quotient(a.size(), 0);
    std::uint64_t rem = 0;
    std::uint64_t divisor = b[0];
    for (std::size_t i = a.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | a[i];
      quotient[i] = static_cast<std::uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    std::vector<std::uint32_t> remainder;
    if (rem != 0) remainder.push_back(static_cast<std::uint32_t>(rem));
    return {quotient, remainder};
  }

  // Knuth TAOCP vol.2 algorithm D. Normalize so the divisor's top limb has
  // its high bit set.
  int shift = 0;
  {
    std::uint32_t top = b.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  auto shl = [](const std::vector<std::uint32_t>& v, int s) {
    std::vector<std::uint32_t> out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= s == 0 ? v[i] : (v[i] << s);
      if (s != 0) out[i + 1] |= static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(v[i]) >> (32 - s));
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  std::vector<std::uint32_t> u = shl(a, shift);
  std::vector<std::uint32_t> v = shl(b, shift);
  std::size_t n = v.size();
  std::size_t m = u.size() - n;
  u.resize(u.size() + 1, 0);  // u[m+n] slot

  std::vector<std::uint32_t> q(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numerator / v[n - 1];
    std::uint64_t rhat = numerator % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat*v from u[j..j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) - borrow -
                          static_cast<std::int64_t>(product & 0xffffffffu);
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(u[j + n]) - borrow -
                        static_cast<std::int64_t>(carry);
    if (diff < 0) {
      // qhat was one too large: add back.
      diff += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] +
                            add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      diff += static_cast<std::int64_t>(add_carry);
      diff &= 0xffffffff;
    }
    u[j + n] = static_cast<std::uint32_t>(diff);
    q[j] = static_cast<std::uint32_t>(qhat);
  }
  while (!q.empty() && q.back() == 0) q.pop_back();

  // Denormalize the remainder u[0..n-1] >> shift.
  std::vector<std::uint32_t> r(u.begin(), u.begin() + n);
  if (shift != 0) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      r[i] >>= shift;
      if (i + 1 < n) {
        r[i] |= u[i + 1] << (32 - shift);
      }
    }
  }
  while (!r.empty() && r.back() == 0) r.pop_back();
  return {q, r};
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (small_ && other.small_) {
    std::int64_t sum;
    if (!__builtin_add_overflow(value_, other.value_, &sum)) {
      return BigInt(sum);
    }
    return FromInt128(static_cast<__int128>(value_) + other.value_);
  }
  bool a_neg = is_negative();
  bool b_neg = other.is_negative();
  std::vector<std::uint32_t> a = MagnitudeLimbs();
  std::vector<std::uint32_t> b = other.MagnitudeLimbs();
  if (a_neg == b_neg) return FromLimbs(a_neg, AddMagnitude(a, b));
  int cmp = CompareMagnitude(a, b);
  if (cmp >= 0) return FromLimbs(a_neg, SubMagnitude(a, b));
  return FromLimbs(b_neg, SubMagnitude(b, a));
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (small_ && other.small_) {
    std::int64_t diff;
    if (!__builtin_sub_overflow(value_, other.value_, &diff)) {
      return BigInt(diff);
    }
    return FromInt128(static_cast<__int128>(value_) - other.value_);
  }
  return *this + (-other);
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (small_ && other.small_) {
    std::int64_t product;
    if (!__builtin_mul_overflow(value_, other.value_, &product)) {
      return BigInt(product);
    }
    return FromInt128(static_cast<__int128>(value_) * other.value_);
  }
  bool negative = is_negative() != other.is_negative();
  return FromLimbs(negative, MulMagnitude(MagnitudeLimbs(),
                                          other.MagnitudeLimbs()));
}

std::pair<BigInt, BigInt> BigInt::DivMod(const BigInt& divisor) const {
  if (small_ && divisor.small_) {
    CCDB_CHECK_MSG(divisor.value_ != 0, "division by zero");
    if (value_ == INT64_MIN && divisor.value_ == -1) {
      // The lone overflowing hardware quotient: |INT64_MIN| spills.
      return {FromMagnitude(false, kNegWordMax), BigInt()};
    }
    return {BigInt(value_ / divisor.value_), BigInt(value_ % divisor.value_)};
  }
  auto [qm, rm] = DivModMagnitude(MagnitudeLimbs(), divisor.MagnitudeLimbs());
  bool q_negative = is_negative() != divisor.is_negative();
  bool r_negative = is_negative();
  return {FromLimbs(q_negative, std::move(qm)),
          FromLimbs(r_negative, std::move(rm))};
}

BigInt BigInt::operator/(const BigInt& other) const {
  return DivMod(other).first;
}

BigInt BigInt::operator%(const BigInt& other) const {
  return DivMod(other).second;
}

BigInt BigInt::ShiftLeft(std::uint64_t bits) const {
  if (is_zero() || bits == 0) return *this;
  if (small_ && bits <= 62) {
    // bit_length <= 64 and bits <= 62, so the product has at most 126 bits.
    return FromInt128(static_cast<__int128>(value_) << bits);
  }
  std::uint64_t limb_shift = bits / 32;
  int bit_shift = static_cast<int>(bits % 32);
  std::vector<std::uint32_t> source = MagnitudeLimbs();
  std::vector<std::uint32_t> out;
  out.assign(limb_shift, 0);
  if (bit_shift == 0) {
    out.insert(out.end(), source.begin(), source.end());
  } else {
    std::uint32_t carry = 0;
    for (std::uint32_t limb : source) {
      out.push_back((limb << bit_shift) | carry);
      carry = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(limb) >> (32 - bit_shift));
    }
    if (carry != 0) out.push_back(carry);
  }
  return FromLimbs(is_negative(), std::move(out));
}

BigInt BigInt::ShiftRight(std::uint64_t bits) const {
  if (small_) {
    if (bits >= 64) return BigInt();
    return FromMagnitude(value_ < 0, SmallMagnitude() >> bits);
  }
  std::uint64_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  int bit_shift = static_cast<int>(bits % 32);
  std::vector<std::uint32_t> out(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] >>= bit_shift;
      if (i + 1 < out.size()) {
        out[i] |= out[i + 1] << (32 - bit_shift);
      }
    }
  }
  return FromLimbs(negative_, std::move(out));
}

BigInt BigInt::Pow(std::uint32_t exponent) const {
  BigInt base = *this;
  BigInt result(1);
  while (exponent != 0) {
    if (exponent & 1u) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (a.small_ && b.small_) {
    std::uint64_t x = a.SmallMagnitude();
    std::uint64_t y = b.SmallMagnitude();
    while (y != 0) {
      std::uint64_t r = x % y;
      x = y;
      y = r;
    }
    return FromMagnitude(false, x);
  }
  // gcd(2^k, y) = 2^min(k, trailing zero bits of y): a power-of-two
  // operand (a dyadic denominator, as bisection midpoints have) needs no
  // division.
  auto trailing_zeros = [](const BigInt& v) -> std::uint64_t {
    if (v.small_) return __builtin_ctzll(v.SmallMagnitude());
    std::uint64_t bits = 0;
    while (v.limbs_[bits / 32] == 0) bits += 32;
    return bits + __builtin_ctz(v.limbs_[bits / 32]);
  };
  if (!a.is_zero() && !b.is_zero()) {
    std::uint64_t a_zeros = trailing_zeros(a), b_zeros = trailing_zeros(b);
    if (a_zeros + 1 == a.bit_length() || b_zeros + 1 == b.bit_length()) {
      return Pow2(std::min(a_zeros, b_zeros));
    }
  }
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

std::string BigInt::ToString() const {
  if (small_) return std::to_string(value_);
  std::vector<std::uint32_t> digits;  // base 10^9 chunks, little-endian
  std::vector<std::uint32_t> work = limbs_;
  while (!work.empty()) {
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    digits.push_back(static_cast<std::uint32_t>(rem));
    while (!work.empty() && work.back() == 0) work.pop_back();
  }
  std::string out;
  if (negative_) out.push_back('-');
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u", digits.back());
  out += buf;
  for (std::size_t i = digits.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof(buf), "%09u", digits[i]);
    out += buf;
  }
  return out;
}

std::size_t BigInt::Hash() const {
  if (small_) {
    // Hash the 32-bit limb decomposition so values hash identically to the
    // limb representation they would have had before the inline fast path.
    std::size_t h = value_ < 0 ? 0x9e3779b97f4a7c15ull : 0;
    std::uint64_t magnitude = SmallMagnitude();
    if (magnitude != 0) {
      h = h * 1099511628211ull + static_cast<std::uint32_t>(magnitude);
      std::uint32_t high = static_cast<std::uint32_t>(magnitude >> 32);
      if (high != 0) h = h * 1099511628211ull + high;
    }
    return h;
  }
  std::size_t h = negative_ ? 0x9e3779b97f4a7c15ull : 0;
  for (std::uint32_t limb : limbs_) {
    h = h * 1099511628211ull + limb;
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace ccdb
