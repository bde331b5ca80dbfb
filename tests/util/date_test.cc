#include "util/date.h"

#include <gtest/gtest.h>

namespace rased {
namespace {

TEST(DateTest, EpochIsJan1st1970) {
  Date d;
  EXPECT_EQ(d.year(), 1970);
  EXPECT_EQ(d.month(), 1);
  EXPECT_EQ(d.day(), 1);
  EXPECT_EQ(d.days_since_epoch(), 0);
}

TEST(DateTest, FromYmdRoundTrips) {
  Date d = Date::FromYmd(2021, 7, 15);
  EXPECT_EQ(d.year(), 2021);
  EXPECT_EQ(d.month(), 7);
  EXPECT_EQ(d.day(), 15);
  EXPECT_EQ(d.ToString(), "2021-07-15");
}

TEST(DateTest, KnownDayCounts) {
  // Verified against `date -d @... +%F`.
  EXPECT_EQ(Date::FromYmd(2000, 1, 1).days_since_epoch(), 10957);
  EXPECT_EQ(Date::FromYmd(2021, 12, 31).days_since_epoch(), 18992);
  EXPECT_EQ(Date::FromYmd(1969, 12, 31).days_since_epoch(), -1);
}

TEST(DateTest, ParseValid) {
  auto d = Date::Parse("2006-01-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), Date::FromYmd(2006, 1, 1));
}

TEST(DateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Date::Parse("").ok());
  EXPECT_FALSE(Date::Parse("2020").ok());
  EXPECT_FALSE(Date::Parse("2020-13-01").ok());
  EXPECT_FALSE(Date::Parse("2020-02-30").ok());
  EXPECT_FALSE(Date::Parse("not-a-date").ok());
  EXPECT_FALSE(Date::Parse("2020-02-10x").ok());
  // Fields that do not fit an int are refused, never wrapped: each of
  // these reads as a valid 2020 date once truncated to 32 bits.
  EXPECT_FALSE(Date::Parse("4294969316-06-15").ok());
  EXPECT_FALSE(Date::Parse("2020-4294967302-15").ok());
  EXPECT_FALSE(Date::Parse("2020-06-4294967311").ok());
  // Years outside 0000-9999 would overflow the day arithmetic.
  EXPECT_FALSE(Date::Parse("-2147483648-01-01").ok());
  EXPECT_FALSE(Date::Parse("10000000-01-01").ok());
  EXPECT_FALSE(Date::Parse("10000-01-01").ok());
  EXPECT_FALSE(Date::Parse("-0001-01-01").ok());
}

TEST(DateTest, ParseAcceptsEveryFourDigitYear) {
  auto first = Date::Parse("0000-01-01");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().ToString(), "0000-01-01");
  auto last = Date::Parse("9999-12-31");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().ToString(), "9999-12-31");
}

TEST(DateTest, ParseAcceptsLeapDay) {
  EXPECT_TRUE(Date::Parse("2020-02-29").ok());
  EXPECT_FALSE(Date::Parse("2021-02-29").ok());
  EXPECT_TRUE(Date::Parse("2000-02-29").ok());   // 400-year leap
  EXPECT_FALSE(Date::Parse("1900-02-29").ok());  // 100-year non-leap
}

TEST(DateTest, WeekdayMatchesKnownDates) {
  EXPECT_EQ(Date::FromYmd(1970, 1, 1).weekday(), 3);   // Thursday
  EXPECT_EQ(Date::FromYmd(2021, 7, 5).weekday(), 0);   // Monday
  EXPECT_EQ(Date::FromYmd(2021, 7, 11).weekday(), 6);  // Sunday
}

TEST(DateTest, DaysInMonth) {
  EXPECT_EQ(Date::FromYmd(2021, 1, 1).days_in_month(), 31);
  EXPECT_EQ(Date::FromYmd(2021, 2, 1).days_in_month(), 28);
  EXPECT_EQ(Date::FromYmd(2020, 2, 1).days_in_month(), 29);
  EXPECT_EQ(Date::FromYmd(2021, 4, 1).days_in_month(), 30);
}

TEST(DateTest, MonthAndYearBoundaries) {
  Date d = Date::FromYmd(2021, 2, 28);
  EXPECT_TRUE(d.is_month_end());
  EXPECT_FALSE(d.is_year_end());
  EXPECT_TRUE(Date::FromYmd(2021, 12, 31).is_year_end());
  EXPECT_TRUE(Date::FromYmd(2021, 3, 1).is_month_start());
  EXPECT_TRUE(Date::FromYmd(2021, 1, 1).is_year_start());
}

TEST(DateTest, PaperWeekStructure) {
  // Weeks are clipped to months: days 1-7, 8-14, 15-21, 22-28; days 29-31
  // are stragglers with no week.
  EXPECT_EQ(Date::FromYmd(2021, 5, 1).week_of_month(), 0);
  EXPECT_EQ(Date::FromYmd(2021, 5, 7).week_of_month(), 0);
  EXPECT_EQ(Date::FromYmd(2021, 5, 8).week_of_month(), 1);
  EXPECT_EQ(Date::FromYmd(2021, 5, 28).week_of_month(), 3);
  EXPECT_EQ(Date::FromYmd(2021, 5, 29).week_of_month(), -1);
  EXPECT_EQ(Date::FromYmd(2021, 5, 31).week_of_month(), -1);

  EXPECT_TRUE(Date::FromYmd(2021, 5, 7).is_week_end());
  EXPECT_TRUE(Date::FromYmd(2021, 5, 28).is_week_end());
  EXPECT_FALSE(Date::FromYmd(2021, 5, 29).is_week_end());
  EXPECT_FALSE(Date::FromYmd(2021, 5, 6).is_week_end());

  EXPECT_EQ(Date::FromYmd(2021, 5, 10).week_start(),
            Date::FromYmd(2021, 5, 8));
  EXPECT_EQ(Date::FromYmd(2021, 5, 10).week_end(),
            Date::FromYmd(2021, 5, 14));
}

TEST(DateTest, EveryMonthHasExactlyFourWeeksPlusStragglers) {
  // Property: for all months in 2004..2030, exactly 28 days belong to
  // weeks 0..3 and days_in_month()-28 days are stragglers.
  for (int year = 2004; year <= 2030; ++year) {
    for (int month = 1; month <= 12; ++month) {
      Date first = Date::FromYmd(year, month, 1);
      int in_weeks = 0, stragglers = 0;
      for (int day = 1; day <= first.days_in_month(); ++day) {
        Date d = Date::FromYmd(year, month, day);
        if (d.week_of_month() >= 0) {
          ++in_weeks;
        } else {
          ++stragglers;
        }
      }
      EXPECT_EQ(in_weeks, 28) << year << "-" << month;
      EXPECT_EQ(stragglers, first.days_in_month() - 28);
    }
  }
}

TEST(DateTest, RoundTripAllDaysOver60Years) {
  // Property: days-since-epoch -> y/m/d -> days-since-epoch is identity.
  Date start = Date::FromYmd(1990, 1, 1);
  Date end = Date::FromYmd(2050, 12, 31);
  int32_t prev_day = start.days_since_epoch() - 1;
  for (Date d = start; d <= end; d = d.next()) {
    EXPECT_EQ(d.days_since_epoch(), prev_day + 1);
    Date back = Date::FromYmd(d.year(), d.month(), d.day());
    ASSERT_EQ(back, d) << d.ToString();
    prev_day = d.days_since_epoch();
  }
}

TEST(DateTest, AddMonthsClampsDay) {
  EXPECT_EQ(Date::FromYmd(2021, 1, 31).AddMonths(1),
            Date::FromYmd(2021, 2, 28));
  EXPECT_EQ(Date::FromYmd(2020, 1, 31).AddMonths(1),
            Date::FromYmd(2020, 2, 29));
  EXPECT_EQ(Date::FromYmd(2021, 5, 15).AddMonths(13),
            Date::FromYmd(2022, 6, 15));
  EXPECT_EQ(Date::FromYmd(2021, 3, 15).AddMonths(-3),
            Date::FromYmd(2020, 12, 15));
}

TEST(DateTest, AddYears) {
  EXPECT_EQ(Date::FromYmd(2020, 2, 29).AddYears(1),
            Date::FromYmd(2021, 2, 28));
  EXPECT_EQ(Date::FromYmd(2006, 1, 1).AddYears(15),
            Date::FromYmd(2021, 1, 1));
}

TEST(DateTest, Comparisons) {
  Date a = Date::FromYmd(2021, 1, 1);
  Date b = Date::FromYmd(2021, 1, 2);
  EXPECT_LT(a, b);
  EXPECT_LE(a, a);
  EXPECT_GT(b, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(b - a, 1);
  EXPECT_EQ(a - b, -1);
}

TEST(DateRangeTest, DefaultIsEmpty) {
  DateRange r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.num_days(), 0);
}

TEST(DateRangeTest, ContainsAndOverlaps) {
  DateRange r(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 12, 31));
  EXPECT_TRUE(r.Contains(Date::FromYmd(2021, 6, 15)));
  EXPECT_TRUE(r.Contains(r.first));
  EXPECT_TRUE(r.Contains(r.last));
  EXPECT_FALSE(r.Contains(Date::FromYmd(2022, 1, 1)));

  DateRange inner(Date::FromYmd(2021, 3, 1), Date::FromYmd(2021, 3, 31));
  EXPECT_TRUE(r.Contains(inner));
  EXPECT_FALSE(inner.Contains(r));

  DateRange next_year(Date::FromYmd(2022, 1, 1), Date::FromYmd(2022, 2, 1));
  EXPECT_FALSE(r.Overlaps(next_year));
  DateRange straddle(Date::FromYmd(2021, 12, 1), Date::FromYmd(2022, 2, 1));
  EXPECT_TRUE(r.Overlaps(straddle));
}

TEST(DateRangeTest, Intersect) {
  DateRange a(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 6, 30));
  DateRange b(Date::FromYmd(2021, 4, 1), Date::FromYmd(2021, 12, 31));
  DateRange i = a.Intersect(b);
  EXPECT_EQ(i.first, Date::FromYmd(2021, 4, 1));
  EXPECT_EQ(i.last, Date::FromYmd(2021, 6, 30));

  DateRange disjoint(Date::FromYmd(2022, 1, 1), Date::FromYmd(2022, 1, 2));
  EXPECT_TRUE(a.Intersect(disjoint).empty());
}

TEST(DateRangeTest, NumDays) {
  DateRange r(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 1));
  EXPECT_EQ(r.num_days(), 1);
  DateRange year(Date::FromYmd(2020, 1, 1), Date::FromYmd(2020, 12, 31));
  EXPECT_EQ(year.num_days(), 366);  // leap year
}

}  // namespace
}  // namespace rased
