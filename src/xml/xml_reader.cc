#include "xml/xml_reader.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/str_util.h"

namespace rased {

namespace {

// Character classes of the "C" locale, one table lookup each, plus the
// two bytes an attribute value is checked for.
enum : uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4, kLtOrAmp = 8 };

struct CharClasses {
  uint8_t of[256] = {};
  constexpr CharClasses() {
    for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
      of[static_cast<unsigned char>(c)] = kSpace;
    }
    for (int c = 0; c < 256; ++c) {
      bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      bool digit = c >= '0' && c <= '9';
      if (alpha || c == '_' || c == ':') of[c] |= kNameStart | kNameChar;
      if (digit || c == '-' || c == '.') of[c] |= kNameChar;
    }
    of[static_cast<unsigned char>('<')] |= kLtOrAmp;
    of[static_cast<unsigned char>('&')] |= kLtOrAmp;
  }
};
constexpr CharClasses kClasses;

bool Is(char c, uint8_t cls) {
  return (kClasses.of[static_cast<unsigned char>(c)] & cls) != 0;
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!Is(c, kSpace)) return false;
  }
  return true;
}

}  // namespace

XmlReader::XmlReader(std::string_view input, XmlFragment where,
                     std::string_view root)
    : input_(input), where_(where) {
  if (!where_.first) open_elements_.push_back(root);
}

Status XmlReader::PopElement() {
  if (!where_.last && open_elements_.size() == 1) {
    return ParseError("root element closed before the last fragment");
  }
  open_elements_.pop_back();
  return Status::OK();
}

int XmlReader::line() const {
  return 1 + static_cast<int>(std::count(
                 input_.begin(), input_.begin() + static_cast<ptrdiff_t>(pos_),
                 '\n'));
}

Status XmlReader::ParseError(std::string_view what) const {
  return Status::Corruption(StrFormat("XML parse error at line %d: %.*s",
                                      line(), static_cast<int>(what.size()),
                                      what.data()));
}

void XmlReader::SkipWhitespace() {
  while (pos_ < input_.size() && Is(input_[pos_], kSpace)) ++pos_;
}

bool XmlReader::ConsumePrefix(std::string_view prefix) {
  if (input_.substr(pos_, prefix.size()) != prefix) return false;
  pos_ += prefix.size();
  return true;
}

Status XmlReader::SkipUntil(std::string_view terminator) {
  size_t at = input_.find(terminator, pos_);
  if (at == std::string_view::npos) {
    pos_ = input_.size();
    return ParseError("unexpected end of input while scanning for '" +
                      std::string(terminator) + "'");
  }
  pos_ = at + terminator.size();
  return Status::OK();
}

Status XmlReader::ParseName(std::string_view* out) {
  if (pos_ >= input_.size() || !Is(input_[pos_], kNameStart)) {
    return ParseError("expected name");
  }
  size_t start = pos_++;
  while (pos_ < input_.size() && Is(input_[pos_], kNameChar)) ++pos_;
  *out = input_.substr(start, pos_ - start);
  return Status::OK();
}

Status XmlReader::DecodeEntities(std::string_view raw) {
  for (size_t i = 0; i < raw.size(); ++i) {
    const void* amp = std::memchr(raw.data() + i, '&', raw.size() - i);
    size_t at = amp == nullptr
                    ? raw.size()
                    : static_cast<size_t>(static_cast<const char*>(amp) -
                                          raw.data());
    scratch_.append(raw.data() + i, at - i);
    if (at == raw.size()) break;
    i = at;
    size_t semi = raw.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return ParseError("unterminated entity reference");
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      scratch_.push_back('&');
    } else if (ent == "lt") {
      scratch_.push_back('<');
    } else if (ent == "gt") {
      scratch_.push_back('>');
    } else if (ent == "quot") {
      scratch_.push_back('"');
    } else if (ent == "apos") {
      scratch_.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      // Numeric character reference; emit UTF-8.
      uint32_t cp = 0;
      bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      std::string_view digits = ent.substr(hex ? 2 : 1);
      if (digits.empty()) return ParseError("empty character reference");
      for (char c : digits) {
        uint32_t d;
        if (c >= '0' && c <= '9') {
          d = static_cast<uint32_t>(c - '0');
        } else if (hex && c >= 'a' && c <= 'f') {
          d = static_cast<uint32_t>(c - 'a' + 10);
        } else if (hex && c >= 'A' && c <= 'F') {
          d = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          return ParseError("bad character reference '&" + std::string(ent) +
                            ";'");
        }
        cp = cp * (hex ? 16 : 10) + d;
        if (cp > 0x10FFFF) return ParseError("character reference out of range");
      }
      if (cp < 0x80) {
        scratch_.push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        scratch_.push_back(static_cast<char>(0xC0 | (cp >> 6)));
        scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else if (cp < 0x10000) {
        scratch_.push_back(static_cast<char>(0xE0 | (cp >> 12)));
        scratch_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else {
        scratch_.push_back(static_cast<char>(0xF0 | (cp >> 18)));
        scratch_.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        scratch_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        scratch_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      }
    } else {
      return ParseError("unknown entity '&" + std::string(ent) + ";'");
    }
    i = semi;
  }
  return Status::OK();
}

Status XmlReader::ParseAttributes(bool* self_closing) {
  attrs_.clear();
  decoded_.clear();
  scratch_.clear();
  *self_closing = false;
  for (;;) {
    SkipWhitespace();
    if (pos_ >= input_.size()) return ParseError("unterminated start tag");
    char c = input_[pos_];
    if (c == '>') {
      ++pos_;
      break;
    }
    if (c == '/') {
      ++pos_;
      if (Peek() != '>') return ParseError("expected '>' after '/'");
      ++pos_;
      *self_closing = true;
      break;
    }
    std::string_view name;
    RASED_RETURN_IF_ERROR(ParseName(&name));
    SkipWhitespace();
    if (Peek() != '=') return ParseError("expected '=' after attribute name");
    ++pos_;
    SkipWhitespace();
    char quote = Peek();
    if (quote != '"' && quote != '\'') {
      return ParseError("expected quoted attribute value");
    }
    size_t start = ++pos_;
    std::string_view rest = input_.substr(start);
    const void* close = std::memchr(rest.data(), quote, rest.size());
    std::string_view raw =
        close == nullptr
            ? rest
            : rest.substr(0, static_cast<size_t>(
                                 static_cast<const char*>(close) - rest.data()));
    // One pass finds both the first '<' (an error) and whether any '&'
    // needs decoding.
    bool has_entity = false;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (!Is(raw[i], kLtOrAmp)) continue;
      if (raw[i] == '&') {
        has_entity = true;
        continue;
      }
      pos_ = start + i;
      return ParseError("'<' in attribute value");
    }
    pos_ = start + raw.size();
    if (close == nullptr) return ParseError("unterminated attribute value");
    ++pos_;  // closing quote
    if (has_entity) {
      size_t offset = scratch_.size();
      RASED_RETURN_IF_ERROR(DecodeEntities(raw));
      decoded_.push_back({attrs_.size(), offset, scratch_.size() - offset});
      raw = {};
    }
    attrs_.push_back(XmlAttr{name, raw});
  }
  // scratch_ has stopped growing: point decoded values into it.
  for (const DecodedSpan& d : decoded_) {
    attrs_[d.attr].value = std::string_view(scratch_).substr(d.offset, d.size);
  }
  return Status::OK();
}

Result<XmlEvent> XmlReader::Next() {
  if (pending_end_) {
    pending_end_ = false;
    name_ = open_elements_.back();
    RASED_RETURN_IF_ERROR(PopElement());
    return XmlEvent::kEndElement;
  }
  for (;;) {
    if (pos_ >= input_.size()) {
      // A fragment before the last ends with the root, and only the root,
      // open; the whole document (or its last fragment) with none.
      const size_t open_at_end = where_.last ? 0 : 1;
      if (open_elements_.size() > open_at_end) {
        return ParseError("unexpected end of input");
      }
      if (open_elements_.size() < open_at_end) {
        return ParseError("fragment ends outside the root element");
      }
      return XmlEvent::kEof;
    }
    if (input_[pos_] != '<') {
      // Character data up to the next '<'.
      size_t start = pos_;
      std::string_view rest = input_.substr(start);
      const void* lt = std::memchr(rest.data(), '<', rest.size());
      pos_ = lt == nullptr ? input_.size()
                           : start + static_cast<size_t>(
                                         static_cast<const char*>(lt) -
                                         rest.data());
      std::string_view raw = input_.substr(start, pos_ - start);
      if (IsAllWhitespace(raw)) continue;  // ignorable whitespace
      text_ = raw;
      if (std::memchr(raw.data(), '&', raw.size()) != nullptr) {
        scratch_.clear();
        RASED_RETURN_IF_ERROR(DecodeEntities(raw));
        text_ = scratch_;
      }
      return XmlEvent::kText;
    }
    // Some markup; its second byte tells which.
    const char kind = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (kind == '!' || kind == '?') {
      if (ConsumePrefix("<!--")) {
        RASED_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (ConsumePrefix("<?")) {
        RASED_RETURN_IF_ERROR(SkipUntil("?>"));
      } else {  // DOCTYPE etc.; no internal-subset support
        pos_ += 2;
        RASED_RETURN_IF_ERROR(SkipUntil(">"));
      }
      continue;
    }
    if (kind == '/') {
      pos_ += 2;
      std::string_view name;
      RASED_RETURN_IF_ERROR(ParseName(&name));
      SkipWhitespace();
      if (Peek() != '>') return ParseError("malformed end tag");
      ++pos_;
      if (open_elements_.empty()) {
        return ParseError("end tag without matching start");
      }
      if (open_elements_.back() != name) {
        return ParseError("mismatched end tag </" + std::string(name) +
                          ">, expected </" +
                          std::string(open_elements_.back()) + ">");
      }
      RASED_RETURN_IF_ERROR(PopElement());
      name_ = name;
      return XmlEvent::kEndElement;
    }
    // Start tag.
    ++pos_;  // '<'
    RASED_RETURN_IF_ERROR(ParseName(&name_));
    bool self_closing = false;
    RASED_RETURN_IF_ERROR(ParseAttributes(&self_closing));
    open_elements_.push_back(name_);
    pending_end_ = self_closing;
    return XmlEvent::kStartElement;
  }
}

const std::string_view* XmlReader::FindAttr(std::string_view attr_name) const {
  for (const XmlAttr& a : attrs_) {
    if (a.name == attr_name) return &a.value;
  }
  return nullptr;
}

Status XmlReader::SkipElement() {
  if (pending_end_) {
    pending_end_ = false;
    return PopElement();
  }
  const ptrdiff_t target = static_cast<ptrdiff_t>(open_elements_.size()) - 1;
  while (static_cast<ptrdiff_t>(open_elements_.size()) > target) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, Next());
    if (ev == XmlEvent::kEof) return ParseError("EOF inside element");
  }
  return Status::OK();
}

}  // namespace rased
