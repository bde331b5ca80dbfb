#include "osm/history.h"

#include "osm/element_xml.h"

namespace rased {

template <typename Out>
Result<bool> HistoryReader::NextVersion(Out* out) {
  while (!done_ && !in_root_) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
    if (ev == XmlEvent::kEof) {
      done_ = true;
    } else if (ev == XmlEvent::kStartElement) {
      if (reader_.name() != "osm") {
        return Status::Corruption("expected <osm> root, got <" +
                                  std::string(reader_.name()) + ">");
      }
      in_root_ = true;
    }
  }
  while (!done_) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
    if (ev == XmlEvent::kEndElement || ev == XmlEvent::kEof) {
      done_ = true;
      break;
    }
    if (ev != XmlEvent::kStartElement) continue;
    std::string_view name = reader_.name();
    if (name != "node" && name != "way" && name != "relation") {
      RASED_RETURN_IF_ERROR(reader_.SkipElement());
      continue;
    }
    RASED_RETURN_IF_ERROR(internal_osm::ParseElement(reader_, out));
    return true;
  }
  return false;
}

Result<bool> HistoryReader::Next(Element* element) {
  return NextVersion(element);
}

Result<bool> HistoryReader::Next(ElementVersion* version) {
  return NextVersion(version);
}

Status HistoryReader::Parse(std::string_view xml, const Callback& cb) {
  HistoryReader reader(xml);
  Element element;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&element));
    if (!more) return Status::OK();
    RASED_RETURN_IF_ERROR(cb(element));
  }
}

Result<std::vector<Element>> HistoryReader::ParseAll(std::string_view xml) {
  std::vector<Element> out;
  Status s = Parse(xml, [&out](const Element& e) {
    out.push_back(e);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return out;
}

HistoryWriter::HistoryWriter() : writer_(&buffer_) {
  writer_.WriteDeclaration();
  writer_.StartElement("osm");
  writer_.Attribute("version", "0.6");
  writer_.Attribute("generator", "rased-synth");
}

void HistoryWriter::Add(const Element& element) {
  internal_osm::WriteElement(writer_, element);
}

std::string HistoryWriter::Finish() {
  if (!finished_) {
    writer_.EndElement();  // osm
    finished_ = true;
  }
  return std::move(buffer_);
}

}  // namespace rased
