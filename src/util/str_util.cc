#include "util/str_util.h"

#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace rased {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args2);
    out.resize(static_cast<size_t>(n));
  }
  va_end(args2);
  return out;
}

namespace {

// The whole of `text` as a base-10 integer, with strtoll/strtoull's
// optional leading '+' (from_chars takes only '-').
template <typename T>
bool WholeInteger(std::string_view text, T* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return false;
  }
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

// strtod reports a range error for a result that is tiny (below DBL_MIN
// once rounded to 53 bits) and inexact; `v` is `text` read as a double,
// nonzero and at most DBL_MIN in magnitude. Re-reading in the wider long
// double decides both: it holds any 16 hex digits exactly. A decimal is
// taken as inexact, since only one of some 700 significant digits can
// equal a number this small.
bool UnderflowsLikeStrtod(std::string_view text, std::chars_format format,
                          double v) {
  long double wide = 0.0L;
  std::from_chars(text.data(), text.data() + text.size(), wide, format);
  if (std::fabs(v) == DBL_MIN && std::fabs(wide) >= DBL_MIN - 0x1p-1076L) {
    return false;  // rounds up to DBL_MIN: not tiny
  }
  if (format != std::chars_format::hex) return true;
  std::string_view digits = text.substr(0, text.find_first_of("pP"));
  size_t first = digits.find_first_not_of("0.");
  size_t last = digits.find_last_not_of("0.");
  size_t significant = 0;
  for (size_t i = first; i != std::string_view::npos && i <= last; ++i) {
    significant += digits[i] != '.';
  }
  return significant > 16 || static_cast<double>(wide) != wide;
}

}  // namespace

Result<int64_t> ParseInt(std::string_view text) {
  std::string_view t = Trim(text);
  if (t.empty()) return Status::InvalidArgument("empty integer");
  int64_t v = 0;
  if (!WholeInteger(t, &v)) {
    return Status::InvalidArgument("not an integer: '" + std::string(t) + "'");
  }
  return v;
}

Result<uint64_t> ParseUint(std::string_view text) {
  std::string_view t = Trim(text);
  uint64_t v = 0;
  if (t.empty() || !WholeInteger(t, &v)) {
    return Status::InvalidArgument("not an unsigned integer: '" +
                                   std::string(t) + "'");
  }
  return v;
}

Result<double> ParseDouble(std::string_view text) {
  std::string_view t = Trim(text);
  if (t.empty()) return Status::InvalidArgument("empty double");
  // strtod's grammar: a sign, then a decimal or "0x" hex significand, or
  // inf/infinity/nan/nan(...). strtod flags overflow and any subnormal or
  // flushed-to-zero result as a range error; so does this.
  const char* p = t.data();
  const char* last = p + t.size();
  const bool negative = *p == '-';
  if (*p == '+' || *p == '-') ++p;
  std::chars_format format = std::chars_format::general;
  if (last - p > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
    p += 2;
    format = std::chars_format::hex;
  }
  double v = 0.0;
  bool ok = p != last && *p != '+' && *p != '-';
  const std::string_view token(p, static_cast<size_t>(last - p));
  if (ok && format == std::chars_format::hex) {
    // A binary exponent is 'p', at most one sign, then digits (from_chars
    // lets "p+-3" through).
    size_t e = token.find_first_of("pP");
    if (e != std::string_view::npos) {
      std::string_view exponent = token.substr(e + 1);
      if (!exponent.empty() && (exponent[0] == '+' || exponent[0] == '-')) {
        exponent.remove_prefix(1);
      }
      ok = !exponent.empty() && exponent[0] >= '0' && exponent[0] <= '9';
    }
  }
  if (ok) {
    auto [ptr, ec] = std::from_chars(p, last, v, format);
    ok = ec == std::errc() && ptr == last;
  }
  if (ok && v != 0.0 && std::fabs(v) <= DBL_MIN) {
    ok = !UnderflowsLikeStrtod(token, format, v);
  }
  if (ok && std::isnan(v) && token.back() == ')') {
    // strtod reads a "nan(...)" payload with strtoull(base 0), whose range
    // error it passes on.
    std::string_view payload = token.substr(4, token.size() - 5);
    int base = 10;
    if (payload.size() > 2 && payload[0] == '0' &&
        (payload[1] == 'x' || payload[1] == 'X') &&
        std::isxdigit(static_cast<unsigned char>(payload[2]))) {
      payload.remove_prefix(2);
      base = 16;
    } else if (!payload.empty() && payload[0] == '0') {
      base = 8;
    }
    uint64_t bits = 0;
    ok = std::from_chars(payload.data(), payload.data() + payload.size(), bits,
                         base)
             .ec != std::errc::result_out_of_range;
  }
  if (!ok) {
    return Status::InvalidArgument("not a double: '" + std::string(t) + "'");
  }
  return negative ? -v : v;
}

bool ConsumeScanfInt(std::string_view* text, int* out) {
  std::string_view t = *text;
  size_t i = 0;
  while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i]))) ++i;
  const bool negative = i < t.size() && t[i] == '-';
  if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
  const size_t digits = i;
  // The magnitude may reach 2^31 (INT_MIN's); any more digits refuse.
  constexpr int64_t kLimit = int64_t{1} << 31;
  int64_t magnitude = 0;
  for (; i < t.size() && t[i] >= '0' && t[i] <= '9'; ++i) {
    magnitude = magnitude * 10 + (t[i] - '0');
    if (magnitude > kLimit) return false;
  }
  if (i == digits || (!negative && magnitude == kLimit)) return false;
  *out = static_cast<int>(negative ? -magnitude : magnitude);
  text->remove_prefix(i);
  return true;
}

std::string WithThousandsSep(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string AsciiLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace rased
