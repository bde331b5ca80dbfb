#ifndef RASED_OSM_CHANGESET_H_
#define RASED_OSM_CHANGESET_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "osm/element.h"
#include "util/result.h"
#include "xml/xml_reader.h"
#include "xml/xml_writer.h"

namespace rased {

/// Metadata describing one OSM changeset (Section II-B): all updates
/// submitted by one user in one session, with a bounding box covering the
/// edits. RASED's daily crawler joins diff entries against this table to
/// locate way/relation updates geographically.
struct Changeset {
  uint64_t id = 0;
  OsmTimestamp created_at;
  OsmTimestamp closed_at;
  bool open = false;
  uint64_t uid = 0;
  std::string user;
  uint32_t num_changes = 0;

  /// Bounding box of the session's edits. Empty changesets (e.g. tag-only
  /// uploads) have no box.
  bool has_bbox = false;
  double min_lat = 0.0;
  double min_lon = 0.0;
  double max_lat = 0.0;
  double max_lon = 0.0;

  std::vector<Tag> tags;

  /// Centre point of the bounding box (the paper assigns each way/relation
  /// update the centre of its changeset's box). Requires has_bbox.
  double center_lat() const { return (min_lat + max_lat) / 2.0; }
  double center_lon() const { return (min_lon + max_lon) / 2.0; }
};

/// The part of a changeset the crawlers use: its id and the centre of its
/// bounding box.
struct ChangesetCentre {
  uint64_t id = 0;
  bool has_bbox = false;
  double lat = 0.0;  // Changeset::center_lat(), valid when has_bbox
  double lon = 0.0;  // Changeset::center_lon()

  static ChangesetCentre Of(const Changeset& changeset);
};

/// Reader for changeset metadata files (<osm><changeset .../>...</osm>).
///
/// An instance pulls one changeset at a time into a caller-owned record,
/// either the full Changeset or the crawler's ChangesetCentre, through the
/// same parse. The static helpers stream full changesets.
class ChangesetReader {
 public:
  using Callback = std::function<Status(const Changeset&)>;

  /// Borrows `xml`, which must outlive the reader. A fragment (see
  /// XmlFragment) cut at changeset starts reads its changesets.
  explicit ChangesetReader(std::string_view xml, XmlFragment where = {})
      : reader_(xml, where, "osm"), in_root_(!where.first) {}

  /// Reads the next changeset in file order. Returns false at the end of
  /// the document, an error status at the first malformed input.
  Result<bool> Next(Changeset* changeset);
  Result<bool> Next(ChangesetCentre* centre);

  static Status Parse(std::string_view xml, const Callback& cb);
  static Result<std::vector<Changeset>> ParseAll(std::string_view xml);

 private:
  template <typename Out>
  Result<bool> NextChangeset(Out* out);

  XmlReader reader_;
  bool in_root_;
  bool done_ = false;
};

/// Writer emitting the same format.
class ChangesetWriter {
 public:
  ChangesetWriter();

  void Add(const Changeset& changeset);
  std::string Finish();

 private:
  std::string buffer_;
  XmlWriter writer_;
  bool finished_ = false;
};

}  // namespace rased

#endif  // RASED_OSM_CHANGESET_H_
