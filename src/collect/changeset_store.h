#ifndef RASED_COLLECT_CHANGESET_STORE_H_
#define RASED_COLLECT_CHANGESET_STORE_H_

#include <string_view>
#include <vector>

#include "collect/chunked_crawl.h"
#include "osm/changeset.h"
#include "util/result.h"

namespace rased {

/// In-memory lookup table from changeset id to the centre of the
/// changeset's bounding box, populated from one or more changeset XML
/// files. The crawlers use it to locate way and relation updates, which
/// carry no coordinates of their own (Section V). Entries live in one
/// vector sorted by id, so filling the store costs a few allocations, not
/// one per changeset.
class ChangesetStore {
 public:
  ChangesetStore() = default;

  /// Parses a changeset XML document and adds every changeset. A changeset
  /// id seen again replaces the previous entry (re-crawl of an updated
  /// file).
  Status AddFromXml(std::string_view xml);

  /// The same, with the document cut at changeset starts
  /// (SplitChangesets) and the fragments read at once on `pool`; their
  /// entries are added in file order. If a fragment fails, nothing of the
  /// chunked read is added and the serial read runs, so the store and the
  /// error end as AddFromXml(xml) leaves them.
  Status AddFromXml(std::string_view xml, CrawlPool* pool);

  void Add(const Changeset& changeset) { Put(ChangesetCentre::Of(changeset)); }

  /// nullptr when unknown. Valid until the store next changes.
  const ChangesetCentre* Find(uint64_t id) const;

  size_t size() const { return by_id_.size(); }
  void Clear() { by_id_.clear(); }

 private:
  void Put(const ChangesetCentre& centre);

  std::vector<ChangesetCentre> by_id_;  // ascending id
};

}  // namespace rased

#endif  // RASED_COLLECT_CHANGESET_STORE_H_
