#include "collect/changeset_store.h"

#include <algorithm>

namespace rased {

namespace {

bool IdLess(const ChangesetCentre& c, uint64_t id) { return c.id < id; }

Status ReadCentres(std::string_view xml, XmlFragment where,
                   std::vector<ChangesetCentre>* out) {
  ChangesetReader reader(xml, where);
  ChangesetCentre centre;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&centre));
    if (!more) return Status::OK();
    out->push_back(centre);
  }
}

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

Status ChangesetStore::AddFromXml(std::string_view xml, CrawlPool* pool) {
  const std::vector<std::string_view> fragments =
      SplitChangesets(xml, pool->parts());
  const size_t n = fragments.size();
  if (n == 1) return AddFromXml(xml);
  std::vector<std::vector<ChangesetCentre>> parts(n);
  Status s = pool->Run(n, [&](size_t i) {
    return ReadCentres(fragments[i], XmlFragment::Of(i, n), &parts[i]);
  });
  if (!s.ok()) return AddFromXml(xml);
  size_t total = by_id_.size();
  for (const std::vector<ChangesetCentre>& part : parts) total += part.size();
  by_id_.reserve(total);
  for (const std::vector<ChangesetCentre>& part : parts) {
    for (const ChangesetCentre& centre : part) Put(centre);
  }
  return Status::OK();
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
