#ifndef RASED_OSM_HISTORY_H_
#define RASED_OSM_HISTORY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "osm/element.h"
#include "util/result.h"
#include "xml/xml_reader.h"
#include "xml/xml_writer.h"

namespace rased {

/// Reader for OSM full-history planet files (Section II-B): a single <osm>
/// document containing *every version* of every element, with
/// visible="false" marking deletion versions. Versions of one element are
/// stored consecutively in ascending version order, which is what the
/// monthly crawler relies on to compare consecutive versions.
///
/// An instance pulls one version at a time into a caller-owned record,
/// either the owned Element or the crawler's ElementVersion, through the
/// same parse. The static helpers stream owned elements.
class HistoryReader {
 public:
  using Callback = std::function<Status(const Element&)>;

  /// Borrows `xml`, which must outlive the reader. A fragment (see
  /// XmlFragment) cut at element starts reads its elements' versions.
  explicit HistoryReader(std::string_view xml, XmlFragment where = {})
      : reader_(xml, where, "osm"), in_root_(!where.first) {}

  /// Reads the next element version in file order. Returns false at the
  /// end of the document, an error status at the first malformed input.
  Result<bool> Next(Element* element);
  Result<bool> Next(ElementVersion* version);

  static Status Parse(std::string_view xml, const Callback& cb);
  static Result<std::vector<Element>> ParseAll(std::string_view xml);

 private:
  template <typename Out>
  Result<bool> NextVersion(Out* out);

  XmlReader reader_;
  bool in_root_;
  bool done_ = false;
};

/// Writer emitting full-history documents in the same layout.
class HistoryWriter {
 public:
  HistoryWriter();

  void Add(const Element& element);
  std::string Finish();

 private:
  std::string buffer_;
  XmlWriter writer_;
  bool finished_ = false;
};

}  // namespace rased

#endif  // RASED_OSM_HISTORY_H_
