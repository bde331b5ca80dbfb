#include "collect/changeset_store.h"

#include <algorithm>

namespace rased {

namespace {

bool IdLess(const ChangesetCentre& c, uint64_t id) { return c.id < id; }

}  // namespace

Status ChangesetStore::AddFromXml(std::string_view xml) {
  ChangesetReader reader(xml);
  ChangesetCentre centre;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&centre));
    if (!more) return Status::OK();
    Put(centre);
  }
}

void ChangesetStore::Put(const ChangesetCentre& centre) {
  // Files list changesets in ascending id order, so this is an append.
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(), centre.id, IdLess);
  if (it != by_id_.end() && it->id == centre.id) {
    *it = centre;
  } else {
    by_id_.insert(it, centre);
  }
}

const ChangesetCentre* ChangesetStore::Find(uint64_t id) const {
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(), id, IdLess);
  return it != by_id_.end() && it->id == id ? &*it : nullptr;
}

}  // namespace rased
