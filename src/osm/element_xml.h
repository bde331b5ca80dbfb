#ifndef RASED_OSM_ELEMENT_XML_H_
#define RASED_OSM_ELEMENT_XML_H_

#include "osm/element.h"
#include "xml/xml_reader.h"
#include "xml/xml_writer.h"

namespace rased {
namespace internal_osm {

/// Parses one <node>/<way>/<relation> element. The reader must be
/// positioned just after the element's kStartElement event was returned;
/// on success the matching kEndElement has been consumed. Both forms run
/// the same parse and make the same checks; the ElementVersion form keeps
/// only the crawled fields and reuses the record's buffers.
Status ParseElement(XmlReader& reader, Element* out);
Status ParseElement(XmlReader& reader, ElementVersion* out);

/// Emits one element in OSM XML form, including tags/nds/members.
void WriteElement(XmlWriter& writer, const Element& element);

/// Writes/parses a list of <tag k="" v=""/> children (shared with
/// changesets).
void WriteTags(XmlWriter& writer, const std::vector<Tag>& tags);

}  // namespace internal_osm
}  // namespace rased

#endif  // RASED_OSM_ELEMENT_XML_H_
