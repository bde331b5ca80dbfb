#include "util/date.h"

#include <cstdio>

#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

// Civil-from-days and days-from-civil follow Howard Hinnant's public-domain
// chrono-compatible algorithms (http://howardhinnant.github.io/date_algorithms.html).

// Days since 1970-01-01 for a civil date.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<int>(doe) - 719468;
}

struct Civil {
  int year;
  int month;
  int day;
};

Civil CivilFromDays(int32_t z) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1, 31]
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;                  // [1, 12]
  return Civil{y + (m <= 2), static_cast<int>(m), static_cast<int>(d)};
}

bool IsLeap(int y) { return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0); }

int DaysInMonthOf(int y, int m) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

Date Date::FromYmd(int year, int month, int day) {
  RASED_CHECK(month >= 1 && month <= 12) << "month=" << month;
  RASED_CHECK(day >= 1 && day <= DaysInMonthOf(year, month))
      << year << "-" << month << "-" << day;
  return Date(DaysFromCivil(year, month, day));
}

Result<Date> Date::Parse(std::string_view text) {
  // Accepts what sscanf(text, "%d-%d-%d%c") read as exactly three fields:
  // leading whitespace and signs are tolerated, trailing junk is not, and
  // the text ends at its first NUL. Below 8 bytes is too short for a date.
  // Fields must fit an int, and the year ToString's 0000-9999.
  std::string_view rest = text.substr(0, text.find('\0'));
  int y = 0, m = 0, d = 0;
  auto field = [&rest](int* out, bool dash_after) {
    if (!ConsumeScanfInt(&rest, out)) return false;
    if (!dash_after) return true;
    if (rest.empty() || rest.front() != '-') return false;
    rest.remove_prefix(1);
    return true;
  };
  if (!field(&y, true) || !field(&m, true) || !field(&d, false) ||
      !rest.empty() || text.size() < 8) {
    return Status::InvalidArgument("expected YYYY-MM-DD, got '" +
                                   std::string(text) + "'");
  }
  if (y < 0 || y > 9999 || m < 1 || m > 12 || d < 1 ||
      d > DaysInMonthOf(y, m)) {
    return Status::InvalidArgument("invalid calendar date '" +
                                   std::string(text) + "'");
  }
  return Date(DaysFromCivil(y, m, d));
}

int Date::year() const { return CivilFromDays(days_).year; }
int Date::month() const { return CivilFromDays(days_).month; }
int Date::day() const { return CivilFromDays(days_).day; }

int Date::weekday() const {
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  int32_t w = (days_ + 3) % 7;
  return w < 0 ? w + 7 : w;
}

int Date::days_in_month() const {
  Civil c = CivilFromDays(days_);
  return DaysInMonthOf(c.year, c.month);
}

Date Date::week_start() const {
  int w = week_of_month();
  RASED_CHECK(w >= 0) << "straggler day " << ToString() << " has no week";
  Civil c = CivilFromDays(days_);
  return FromYmd(c.year, c.month, 7 * w + 1);
}

Date Date::week_end() const {
  int w = week_of_month();
  RASED_CHECK(w >= 0) << "straggler day " << ToString() << " has no week";
  Civil c = CivilFromDays(days_);
  return FromYmd(c.year, c.month, 7 * w + 7);
}

Date Date::AddMonths(int n) const {
  Civil c = CivilFromDays(days_);
  int total = (c.year * 12 + (c.month - 1)) + n;
  int y = total >= 0 ? total / 12 : (total - 11) / 12;
  int m = total - y * 12 + 1;
  int d = c.day;
  int dim = DaysInMonthOf(y, m);
  if (d > dim) d = dim;
  return FromYmd(y, m, d);
}

Date Date::AddYears(int n) const { return AddMonths(12 * n); }

std::string Date::ToString() const {
  Civil c = CivilFromDays(days_);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

DateRange DateRange::Intersect(const DateRange& other) const {
  DateRange r(first > other.first ? first : other.first,
              last < other.last ? last : other.last);
  return r;
}

std::string DateRange::ToString() const {
  if (empty()) return "[empty]";
  return "[" + first.ToString() + " .. " + last.ToString() + "]";
}

}  // namespace rased
