#ifndef RASED_XML_XML_READER_H_
#define RASED_XML_XML_READER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace rased {

/// One element attribute. Both views are valid until the next call to
/// XmlReader::Next() or SkipElement(); the value is entity-decoded.
struct XmlAttr {
  std::string_view name;
  std::string_view value;
};

/// Pull-parser events produced by XmlReader::Next().
enum class XmlEvent {
  kStartElement,  ///< <name attr="v" ...> or <name .../> (see note below)
  kEndElement,    ///< </name>, also synthesized for self-closing elements
  kText,          ///< non-whitespace character data
  kEof,           ///< end of input
};

/// Where a fragment lies in its document. A document cut at the starts of
/// children of its root element reads as a run of fragments, each a view
/// into it: the first holds the prolog and the root's start tag, the last
/// the root's end tag, and every fragment is read as a run of the root's
/// content.
struct XmlFragment {
  bool first = true;  ///< begins at the start of the document
  bool last = true;   ///< ends at the end of the document

  /// Fragment `i` of `n`.
  static XmlFragment Of(size_t i, size_t n) { return {i == 0, i + 1 == n}; }
};

/// Minimal non-validating XML pull parser.
///
/// Scope: exactly what the OSM planet formats need — elements, attributes,
/// character data, comments, XML declarations/processing instructions and
/// DOCTYPE (all skipped), and the five predefined entities plus numeric
/// character references. No namespaces, CDATA, or DTD expansion.
///
/// A self-closing element <tag/> is reported as kStartElement followed
/// immediately by a synthetic kEndElement, so client code can treat both
/// element forms uniformly.
///
/// Zero-copy: names, attribute values and text are views into the input.
/// Only a value or text that contains '&' is decoded, into a scratch
/// buffer the reader owns and reuses. Every view stays valid until the
/// next Next()/SkipElement(). The reader borrows the input buffer; it must
/// outlive the reader and every view taken from it.
///
/// A fragment reader (see XmlFragment) starts inside a root element named
/// `root` unless it is the first, and reports kEof at its end unless it is
/// the last, provided the root alone is open there. It fails wherever the
/// whole document would have gone on differently at the fragment's edge:
/// a fragment that ends inside a child, a comment or a tag, ends before
/// the root opened, or closes the root before the last fragment. So a cut
/// anywhere but between two children of the root shows as an error.
class XmlReader {
 public:
  explicit XmlReader(std::string_view input) : XmlReader(input, {}, {}) {}
  /// `root` must outlive the reader.
  XmlReader(std::string_view input, XmlFragment where, std::string_view root);

  // Decoded views point into the reader's own buffer, so a copy or a move
  // would leave them pointing at the original.
  XmlReader(const XmlReader&) = delete;
  XmlReader& operator=(const XmlReader&) = delete;

  /// Advances to the next event. After kEof, keeps returning kEof.
  Result<XmlEvent> Next();

  /// Element name for the current kStartElement/kEndElement event.
  std::string_view name() const { return name_; }

  /// Attributes of the current kStartElement event.
  const std::vector<XmlAttr>& attributes() const { return attrs_; }

  /// Entity-decoded character data for the current kText event.
  std::string_view text() const { return text_; }

  /// Returns the value of the named attribute, or nullptr when absent.
  const std::string_view* FindAttr(std::string_view attr_name) const;

  /// 1-based line of the current parse position (for error messages).
  /// Counted from the input on each call.
  int line() const;

  /// Convenience: skips events until the matching kEndElement of the
  /// element whose kStartElement was just returned. No-op after a
  /// self-closing element's synthetic end was already consumed.
  Status SkipElement();

 private:
  Status ParseError(std::string_view what) const;
  /// Pops the innermost open element; an error when that would close the
  /// root of a fragment that is not the last.
  Status PopElement();
  void SkipWhitespace();
  bool ConsumePrefix(std::string_view prefix);
  Status SkipUntil(std::string_view terminator);
  Status ParseName(std::string_view* out);
  Status ParseAttributes(bool* self_closing);
  /// Appends `raw` with its entities decoded to scratch_.
  Status DecodeEntities(std::string_view raw);
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }

  std::string_view input_;
  size_t pos_ = 0;
  XmlFragment where_;

  std::string_view name_;
  std::vector<XmlAttr> attrs_;
  std::string_view text_;
  /// Decoded bytes of the current event; attrs_ entries listed in
  /// decoded_ (index, offset, size) point into it once the tag is read.
  std::string scratch_;
  struct DecodedSpan {
    size_t attr;
    size_t offset;
    size_t size;
  };
  std::vector<DecodedSpan> decoded_;
  bool pending_end_ = false;  // synthetic end for self-closing element
  std::vector<std::string_view> open_elements_;  // for end-tag checking
};

}  // namespace rased

#endif  // RASED_XML_XML_READER_H_
