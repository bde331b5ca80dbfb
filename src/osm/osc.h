#ifndef RASED_OSM_OSC_H_
#define RASED_OSM_OSC_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "osm/element.h"
#include "util/result.h"
#include "xml/xml_reader.h"
#include "xml/xml_writer.h"

namespace rased {

/// The three change blocks of an osmChange (.osc) diff file.
enum class ChangeAction : uint8_t { kCreate = 0, kModify = 1, kDelete = 2 };

std::string_view ChangeActionName(ChangeAction action);

/// One entry of a diff file: an action applied to an element after-image
/// (diff files store only the after-image; Section II-B).
struct OsmChange {
  ChangeAction action;
  Element element;
};

/// Parser for OSM osmChange diff files, the format of the minutely/hourly/
/// daily replication diffs RASED's daily crawler consumes.
///
/// An instance pulls one change at a time into a caller-owned record:
/// Next() fills either the owned Element or the crawler's ElementVersion,
/// through the same parse. The static helpers stream owned changes.
class OscReader {
 public:
  using Callback = std::function<Status(const OsmChange&)>;

  /// Borrows `xml`, which must outlive the reader. A fragment (see
  /// XmlFragment) cut at block starts reads its blocks' changes.
  explicit OscReader(std::string_view xml, XmlFragment where = {})
      : reader_(xml, where, "osmChange"),
        state_(where.first ? State::kRoot : State::kBlocks) {}

  /// Reads the next change in file order. Returns false at the end of the
  /// document, an error status at the first malformed input.
  Result<bool> Next(ChangeAction* action, Element* element);
  Result<bool> Next(ChangeAction* action, ElementVersion* version);

  /// Streams every change to `cb` in file order. Parsing stops at the
  /// first error or non-OK callback status.
  static Status Parse(std::string_view xml, const Callback& cb);

  /// Convenience: collects all changes into a vector.
  static Result<std::vector<OsmChange>> ParseAll(std::string_view xml);

 private:
  template <typename Out>
  Result<bool> NextChange(ChangeAction* action, Out* out);

  XmlReader reader_;
  enum class State { kRoot, kBlocks, kInBlock, kDone };
  State state_;
  ChangeAction block_action_ = ChangeAction::kCreate;
};

/// Incremental writer producing an osmChange document. Changes may be
/// appended in any order; consecutive changes with the same action share
/// one <create>/<modify>/<delete> block like real planet diffs.
class OscWriter {
 public:
  OscWriter();

  void Add(ChangeAction action, const Element& element);

  /// Closes any open block and returns the finished document. The writer
  /// must not be reused afterwards.
  std::string Finish();

 private:
  void EnsureBlock(ChangeAction action);

  std::string buffer_;
  XmlWriter writer_;
  bool block_open_ = false;
  ChangeAction block_action_ = ChangeAction::kCreate;
  bool finished_ = false;
};

}  // namespace rased

#endif  // RASED_OSM_OSC_H_
