#include "dashboard/json_writer.h"

#include <charconv>
#include <cmath>

#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key; no comma
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_.push_back(',');
    has_value_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  has_value_.push_back(false);
}

void JsonWriter::EndObject() {
  RASED_CHECK(!has_value_.empty());
  has_value_.pop_back();
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  has_value_.push_back(false);
}

void JsonWriter::EndArray() {
  RASED_CHECK(!has_value_.empty());
  has_value_.pop_back();
  out_.push_back(']');
}

void JsonWriter::Key(std::string_view key) {
  RASED_CHECK(!pending_key_) << "two keys in a row";
  MaybeComma();
  out_.push_back('"');
  AppendEscaped(key);
  out_.append("\":");
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view value) {
  MaybeComma();
  out_.push_back('"');
  AppendEscaped(value);
  out_.push_back('"');
}

void JsonWriter::Value(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
}

void JsonWriter::Value(uint64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
}

void JsonWriter::Value(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no NaN/Inf
    return;
  }
  // The general format at precision 6 is printf's "%.6g", without the
  // locale and format-string work of a printf call per number.
  char buf[32];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

std::string JsonWriter::Finish() && {
  RASED_CHECK(has_value_.empty()) << "unbalanced JSON writer";
  return std::move(out_);
}

void JsonWriter::AppendEscaped(std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += StrFormat("\\u%04x", c);
        } else {
          out_.push_back(c);
        }
    }
  }
}

}  // namespace rased
