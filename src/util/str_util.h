#ifndef RASED_UTIL_STR_UTIL_H_
#define RASED_UTIL_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace rased {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a base-10 signed/unsigned integer or double; the whole string must
/// be consumed. Returns InvalidArgument otherwise.
Result<int64_t> ParseInt(std::string_view text);
Result<uint64_t> ParseUint(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// Consumes one integer from the front of `*text` as scanf's "%d" reads
/// it: leading whitespace, an optional sign, then decimal digits. Returns
/// false when no digit follows or the value does not fit an int (scanf
/// would wrap it), leaving `*text` as it was. Stop `*text` at its first
/// NUL to read it as the C string scanf would see.
bool ConsumeScanfInt(std::string_view* text, int* out);

/// Thousands-separated rendering of a count, e.g. 9142858 -> "9,142,858"
/// (used by the dashboard table renderer to match the paper's Fig. 3).
std::string WithThousandsSep(uint64_t value);

/// Lower-cases ASCII characters.
std::string AsciiLower(std::string_view text);

}  // namespace rased

#endif  // RASED_UTIL_STR_UTIL_H_
