#ifndef CCDB_TESTS_UPOLY_ORACLE_H_
#define CCDB_TESTS_UPOLY_ORACLE_H_

// Rational-arithmetic reference for the integer univariate kernel.
//
// These are the kernel's rational routines: remainder sequences divide over
// Q (UPoly::DivMod) and every sign is read off the exact rational value
// (UPoly::Evaluate). The engine runs the same algorithms on integers
// (homogenised sign evaluation, positive pseudo-remainders); the
// differential tests assert that both produce identical chains, gcds and
// isolating intervals.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "arith/interval.h"
#include "arith/rational.h"
#include "poly/root_isolation.h"
#include "poly/upoly.h"

namespace ccdb_test {

using ccdb::BigInt;
using ccdb::Interval;
using ccdb::IsolatedRoot;
using ccdb::Rational;
using ccdb::UPoly;

inline int ReferenceSign(const UPoly& p, const Rational& x) {
  return p.Evaluate(x).sign();
}

// Scales by a positive rational so the coefficients become coprime
// integers with the leading sign kept.
inline UPoly ReferenceNormalizePositive(const UPoly& p) {
  if (p.is_zero()) return p;
  BigInt den_lcm(1);
  for (const Rational& c : p.coefficients()) {
    const BigInt& d = c.denominator();
    den_lcm = den_lcm / BigInt::Gcd(den_lcm, d) * d;
  }
  BigInt num_gcd(0);
  for (const Rational& c : p.coefficients()) {
    num_gcd = BigInt::Gcd(num_gcd, c.numerator() * (den_lcm / c.denominator()));
  }
  return p.Scale(Rational(den_lcm, num_gcd));
}

inline UPoly ReferenceGcd(const UPoly& a, const UPoly& b) {
  UPoly x = ReferenceNormalizePositive(a);
  UPoly y = ReferenceNormalizePositive(b);
  while (!y.is_zero()) {
    UPoly r = ReferenceNormalizePositive(x.DivMod(y).second);
    x = std::move(y);
    y = std::move(r);
  }
  return x.MakeMonic();
}

inline std::vector<UPoly> ReferenceSturmChain(const UPoly& f) {
  std::vector<UPoly> chain;
  if (f.is_zero()) return chain;
  chain.push_back(ReferenceNormalizePositive(f));
  UPoly d = ReferenceNormalizePositive(f.Derivative());
  if (d.is_zero()) return chain;
  chain.push_back(std::move(d));
  while (true) {
    const UPoly& a = chain[chain.size() - 2];
    const UPoly& b = chain[chain.size() - 1];
    UPoly r = a.DivMod(b).second;
    if (r.is_zero()) break;
    chain.push_back(ReferenceNormalizePositive(-r));
  }
  return chain;
}

inline int ReferenceSturmCount(const std::vector<UPoly>& chain,
                               const Rational& a, const Rational& b) {
  auto variations = [&chain](const Rational& x) {
    int count = 0;
    int last = 0;
    for (const UPoly& p : chain) {
      int s = ReferenceSign(p, x);
      if (s == 0) continue;
      if (last != 0 && s != last) ++count;
      last = s;
    }
    return count;
  };
  return variations(a) - variations(b);
}

inline Interval ReferenceBisectToWidth(const UPoly& p, Rational lo,
                                       Rational hi, const Rational& width,
                                       bool* became_exact) {
  *became_exact = false;
  int sign_lo = ReferenceSign(p, lo);
  while (hi - lo > width) {
    Rational mid = Rational::Midpoint(lo, hi);
    int sign_mid = ReferenceSign(p, mid);
    if (sign_mid == 0) {
      *became_exact = true;
      return Interval(mid);
    }
    if (sign_mid == sign_lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return Interval(std::move(lo), std::move(hi));
}

inline bool ReferenceTrySnapRationalRoot(const UPoly& f, Rational* lo,
                                         Rational* hi, Rational* root) {
  BigInt den_lcm(1);
  for (const Rational& c : f.coefficients()) {
    const BigInt& d = c.denominator();
    den_lcm = den_lcm / BigInt::Gcd(den_lcm, d) * d;
  }
  BigInt lc = (f.leading_coefficient() * Rational(den_lcm)).numerator().Abs();
  if (lc.bit_length() > 20) return false;
  std::int64_t lc_value = lc.ToInt64();
  Rational target_width(BigInt(1), BigInt(2 * lc_value));
  int sign_lo = ReferenceSign(f, *lo);
  while (*hi - *lo > target_width) {
    Rational mid = Rational::Midpoint(*lo, *hi);
    int sign_mid = ReferenceSign(f, mid);
    if (sign_mid == 0) {
      *root = mid;
      return true;
    }
    if (sign_mid == sign_lo) {
      *lo = mid;
    } else {
      *hi = mid;
    }
  }
  std::vector<std::int64_t> divisors;
  for (std::int64_t i = 1; i * i <= lc_value; ++i) {
    if (lc_value % i != 0) continue;
    divisors.push_back(i);
    if (i != lc_value / i) divisors.push_back(lc_value / i);
  }
  for (std::int64_t q : divisors) {
    Rational q_rational(q);
    BigInt p_lo = (*lo * q_rational).Floor();
    BigInt p_hi = (*hi * q_rational).Ceil();
    for (BigInt p = p_lo; p <= p_hi; p += BigInt(1)) {
      Rational candidate(p, BigInt(q));
      if (!(candidate > *lo && candidate < *hi)) continue;
      if (f.Evaluate(candidate).is_zero()) {
        *root = candidate;
        return true;
      }
    }
  }
  return false;
}

inline std::vector<IsolatedRoot> ReferenceIsolateRealRoots(const UPoly& p) {
  std::vector<IsolatedRoot> roots;
  UPoly f = p.SquarefreePart();
  if (f.degree() <= 0) return roots;
  if (f.degree() == 1) {
    roots.push_back({Interval(-f.coefficient(0) / f.coefficient(1)), true});
    return roots;
  }
  std::vector<UPoly> chain = ReferenceSturmChain(f);
  Rational bound = f.CauchyRootBound();
  struct Segment {
    Rational lo, hi;
    int count;
  };
  std::deque<Segment> work;
  int total = ReferenceSturmCount(chain, -bound, bound);
  if (total > 0) work.push_back({-bound, bound, total});
  while (!work.empty()) {
    Segment seg = work.front();
    work.pop_front();
    if (seg.count == 1) {
      if (ReferenceSign(f, seg.hi) == 0) {
        roots.push_back({Interval(seg.hi), true});
        continue;
      }
      Rational snapped(0);
      if (ReferenceTrySnapRationalRoot(f, &seg.lo, &seg.hi, &snapped)) {
        roots.push_back({Interval(snapped), true});
      } else {
        roots.push_back({Interval(seg.lo, seg.hi), false});
      }
      continue;
    }
    Rational mid = Rational::Midpoint(seg.lo, seg.hi);
    if (ReferenceSign(f, mid) == 0) {
      roots.push_back({Interval(mid), true});
      Rational delta = (seg.hi - seg.lo) * Rational(BigInt(1), BigInt(4));
      while (ReferenceSign(f, mid - delta) == 0 ||
             ReferenceSign(f, mid + delta) == 0 ||
             ReferenceSturmCount(chain, mid - delta, mid + delta) > 1) {
        delta = delta * Rational(BigInt(1), BigInt(2));
      }
      int left_count = ReferenceSturmCount(chain, seg.lo, mid - delta);
      int right_count = ReferenceSturmCount(chain, mid + delta, seg.hi);
      if (left_count > 0) work.push_back({seg.lo, mid - delta, left_count});
      if (right_count > 0) work.push_back({mid + delta, seg.hi, right_count});
      continue;
    }
    int left = ReferenceSturmCount(chain, seg.lo, mid);
    int right = seg.count - left;
    if (left > 0) work.push_back({seg.lo, mid, left});
    if (right > 0) work.push_back({mid, seg.hi, right});
  }
  std::sort(roots.begin(), roots.end(),
            [](const IsolatedRoot& a, const IsolatedRoot& b) {
              return a.interval.lo() < b.interval.lo();
            });
  return roots;
}

// Takes the squarefree part itself, as the earlier kernel did, so it also
// accepts a polynomial with repeated factors.
inline IsolatedRoot ReferenceRefineRoot(const UPoly& p, IsolatedRoot root,
                                        const Rational& width) {
  if (root.is_exact || root.interval.Width() <= width) return root;
  UPoly f = p.SquarefreePart();
  bool became_exact = false;
  Interval refined = ReferenceBisectToWidth(f, root.interval.lo(),
                                            root.interval.hi(), width,
                                            &became_exact);
  return {std::move(refined), became_exact};
}

}  // namespace ccdb_test

#endif  // CCDB_TESTS_UPOLY_ORACLE_H_
