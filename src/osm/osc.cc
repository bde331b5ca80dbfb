#include "osm/osc.h"

#include "osm/element_xml.h"
#include "util/str_util.h"

namespace rased {

std::string_view ChangeActionName(ChangeAction action) {
  switch (action) {
    case ChangeAction::kCreate:
      return "create";
    case ChangeAction::kModify:
      return "modify";
    case ChangeAction::kDelete:
      return "delete";
  }
  return "?";
}

namespace {

Result<ChangeAction> ParseChangeAction(std::string_view name) {
  if (name == "create") return ChangeAction::kCreate;
  if (name == "modify") return ChangeAction::kModify;
  if (name == "delete") return ChangeAction::kDelete;
  return Status::Corruption("unknown osmChange block <" + std::string(name) +
                            ">");
}

}  // namespace

template <typename Out>
Result<bool> OscReader::NextChange(ChangeAction* action, Out* out) {
  for (;;) {
    switch (state_) {
      case State::kRoot: {
        // Expect the <osmChange> root; an empty document has no changes.
        RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
        if (ev == XmlEvent::kEof) {
          state_ = State::kDone;
        } else if (ev == XmlEvent::kStartElement) {
          if (reader_.name() != "osmChange") {
            return Status::Corruption("expected <osmChange> root, got <" +
                                      std::string(reader_.name()) + ">");
          }
          state_ = State::kBlocks;
        }
        break;
      }
      case State::kBlocks: {
        // Walk <create>/<modify>/<delete> blocks.
        RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
        if (ev == XmlEvent::kEndElement || ev == XmlEvent::kEof) {
          state_ = State::kDone;
        } else if (ev == XmlEvent::kStartElement) {
          RASED_ASSIGN_OR_RETURN(block_action_,
                                 ParseChangeAction(reader_.name()));
          state_ = State::kInBlock;
        }
        break;
      }
      case State::kInBlock: {
        // Elements inside the block.
        RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
        if (ev == XmlEvent::kEndElement) {
          state_ = State::kBlocks;
        } else if (ev == XmlEvent::kEof) {
          return Status::Corruption("EOF inside osmChange block");
        } else if (ev == XmlEvent::kStartElement) {
          *action = block_action_;
          RASED_RETURN_IF_ERROR(internal_osm::ParseElement(reader_, out));
          return true;
        }
        break;
      }
      case State::kDone:
        return false;
    }
  }
}

Result<bool> OscReader::Next(ChangeAction* action, Element* element) {
  return NextChange(action, element);
}

Result<bool> OscReader::Next(ChangeAction* action, ElementVersion* version) {
  return NextChange(action, version);
}

Status OscReader::Parse(std::string_view xml, const Callback& cb) {
  OscReader reader(xml);
  OsmChange change;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more,
                           reader.Next(&change.action, &change.element));
    if (!more) return Status::OK();
    RASED_RETURN_IF_ERROR(cb(change));
  }
}

Result<std::vector<OsmChange>> OscReader::ParseAll(std::string_view xml) {
  std::vector<OsmChange> out;
  Status s = Parse(xml, [&out](const OsmChange& change) {
    out.push_back(change);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return out;
}

OscWriter::OscWriter() : writer_(&buffer_) {
  writer_.WriteDeclaration();
  writer_.StartElement("osmChange");
  writer_.Attribute("version", "0.6");
  writer_.Attribute("generator", "rased-synth");
}

void OscWriter::EnsureBlock(ChangeAction action) {
  if (block_open_ && block_action_ == action) return;
  if (block_open_) writer_.EndElement();
  writer_.StartElement(ChangeActionName(action));
  block_open_ = true;
  block_action_ = action;
}

void OscWriter::Add(ChangeAction action, const Element& element) {
  EnsureBlock(action);
  internal_osm::WriteElement(writer_, element);
}

std::string OscWriter::Finish() {
  if (!finished_) {
    if (block_open_) writer_.EndElement();
    writer_.EndElement();  // osmChange
    finished_ = true;
  }
  return std::move(buffer_);
}

}  // namespace rased
