#include "common.h"

#include <cstdio>

namespace perfbench {

namespace {

Int Abs(Int v) { return v < 0 ? -v : v; }

Int Gcd(Int a, Int b) {
  a = Abs(a);
  b = Abs(b);
  while (b != 0) {
    Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::string IntText(Int v) {
  if (v == 0) return "0";
  bool negative = v < 0;
  std::string digits;
  for (Int m = Abs(v); m > 0; m /= 10) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(m % 10)));
  }
  if (negative) digits.push_back('-');
  return std::string(digits.rbegin(), digits.rend());
}

}  // namespace

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

Frac::Frac(Int n, Int d) : num(n), den(d) {
  if (den < 0) {
    num = -num;
    den = -den;
  }
  Int g = Gcd(num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
}

std::string Frac::Text() const {
  // Negative constants are parenthesized so they compose inside any term.
  std::string body = den == 1 ? IntText(Abs(num)) : IntText(Abs(num)) + "/" + IntText(den);
  return num < 0 ? "(-" + body + ")" : body;
}

ccdb::Rational Frac::ToRational() const {
  return ccdb::Rational(ccdb::BigInt(static_cast<std::int64_t>(num)),
                        ccdb::BigInt(static_cast<std::int64_t>(den)));
}

Frac operator+(const Frac& a, const Frac& b) {
  return Frac(a.num * b.den + b.num * a.den, a.den * b.den);
}
Frac operator-(const Frac& a, const Frac& b) {
  return Frac(a.num * b.den - b.num * a.den, a.den * b.den);
}
Frac operator*(const Frac& a, const Frac& b) { return Frac(a.num * b.num, a.den * b.den); }
Frac operator/(const Frac& a, const Frac& b) { return Frac(a.num * b.den, a.den * b.num); }

bool LeqSqrt(const Frac& t, const Frac& a) {
  if (Sign(t) <= 0) return true;
  return Compare(t * t, a) <= 0;
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

bool PinnedValues(const ccdb::ConstraintRelation& relation, std::vector<ccdb::Rational>* out) {
  out->clear();
  const ccdb::Rational zero(0), one(1);
  for (const ccdb::GeneralizedTuple& tuple : relation.tuples()) {
    bool pinned = false;
    for (const ccdb::Atom& atom : tuple.atoms) {
      if (atom.op != ccdb::RelOp::kEq || atom.poly.TotalDegree() != 1 || atom.poly.max_var() != 0) {
        continue;
      }
      // a*v + b = 0 with b = f(0), a = f(1) - f(0).
      ccdb::Rational b = atom.poly.Evaluate({zero});
      ccdb::Rational a = atom.poly.Evaluate({one}) - b;
      ccdb::Rational value = -b / a;
      if (!tuple.SatisfiedAt({value})) return false;
      out->push_back(value);
      pinned = true;
      break;
    }
    if (!pinned) return false;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

std::string PinnedText(const ccdb::ConstraintRelation& relation) {
  std::vector<ccdb::Rational> values;
  if (!PinnedValues(relation, &values)) return "?";
  std::string text;
  for (const ccdb::Rational& v : values) {
    if (!text.empty()) text += ',';
    text += v.ToString();
  }
  return text;
}

std::string IdsText(const std::vector<int>& ids) {
  std::string text;
  for (int id : ids) {
    if (!text.empty()) text += ',';
    text += std::to_string(id);
  }
  return text;
}

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kWrite:
      return "write";
    case OpClass::kRefresh:
      return "refresh";
  }
  return "?";
}

Verdict ErrorVerdict(const ccdb::Status& status) {
  Verdict v;
  v.ok = false;
  v.correct = false;
  v.canonical = "error";
  v.detail = status.ToString();
  return v;
}

Verdict Expect(bool correct, std::string canonical, std::string detail) {
  Verdict v;
  v.correct = correct;
  v.canonical = std::move(canonical);
  if (!correct) v.detail = std::move(detail);
  return v;
}

Verdict Measured(Verdict v, const ccdb::ConstraintRelation& answer) {
  v.tuples = answer.tuples().size();
  for (const ccdb::GeneralizedTuple& t : answer.tuples()) v.atoms += t.atoms.size();
  return v;
}

Op ProbeRead(const char* family, std::string text, std::string var, Probes probes) {
  Op op;
  op.family = family;
  op.span = "engine.query";
  op.text = text;
  op.call = [text, var, probes](ccdb::ConstraintDatabase& db) {
    auto result = db.Query(text);
    return std::function<Verdict()>([result = std::move(result), var, probes]() {
      if (!result.ok()) return ErrorVerdict(result.status());
      std::string bits;
      bool correct = result->relation.arity() == 1;
      for (const auto& [value, inside] : probes) {
        bool got = correct && result->relation.Contains({value.ToRational()});
        bits += got ? '1' : '0';
        correct = correct && got == inside;
      }
      return Measured(Expect(correct, result->relation.ToString({var}), "probes " + bits),
                      result->relation);
    });
  };
  return op;
}

Op ScalarRead(const char* family, std::string text, double expected, double rel_tol,
              std::optional<Frac> exact) {
  Op op;
  op.family = family;
  op.span = "engine.query";
  op.text = text;
  op.call = [=](ccdb::ConstraintDatabase& db) {
    auto result = db.Query(text);
    return std::function<Verdict()>([result = std::move(result), expected, rel_tol, exact]() {
      if (!result.ok()) return ErrorVerdict(result.status());
      if (!result->has_scalar) return Expect(false, "?", "no scalar");
      const ccdb::AggregateValue& v = result->scalar;
      bool correct = v.exact && exact.has_value()
                         ? v.exact_value == exact->ToRational()
                         : std::abs(v.Value() - expected) <=
                               rel_tol * std::max(1.0, std::abs(expected));
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9f", v.Value());
      std::string got = v.exact ? v.exact_value.ToString() : buf;
      return Expect(correct, got, "value " + got);
    });
  };
  return op;
}

Op WriteOp(const char* family, const char* span, std::string text,
           std::function<ccdb::Status(ccdb::ConstraintDatabase&)> write) {
  Op op;
  op.op_class = OpClass::kWrite;
  op.family = family;
  op.span = span;
  op.text = std::move(text);
  op.call = [write = std::move(write)](ccdb::ConstraintDatabase& db) {
    ccdb::Status st = write(db);
    return std::function<Verdict()>([st]() {
      if (!st.ok()) return ErrorVerdict(st);
      return Expect(true, "ok");
    });
  };
  return op;
}

}  // namespace perfbench
