#include "click/element.h"

#include <stdexcept>

#include "obs/obs.h"

namespace vini::click {

void Element::connectOutput(int port, Element& target, int target_port) {
  if (port < 0) throw std::invalid_argument("negative port");
  if (outputs_.size() <= static_cast<std::size_t>(port)) {
    outputs_.resize(static_cast<std::size_t>(port) + 1);
  }
  outputs_[static_cast<std::size_t>(port)] = PortRef{&target, target_port};
}

void Element::output(int port, packet::Packet&& p) {
  if (port < 0 || static_cast<std::size_t>(port) >= outputs_.size() ||
      outputs_[static_cast<std::size_t>(port)].element == nullptr) {
    ++unconnected_drops_;
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "unconnected_port");
    return;
  }
  auto& ref = outputs_[static_cast<std::size_t>(port)];
  ref.element->push(ref.port, std::move(p));
}

ElementRegistry& ElementRegistry::instance() {
  static ElementRegistry registry;
  return registry;
}

void ElementRegistry::registerClass(const std::string& class_name, Factory factory) {
  factories_[class_name] = std::move(factory);
}

std::unique_ptr<Element> ElementRegistry::create(
    const std::string& class_name, const std::vector<std::string>& args,
    ClickContext& context) const {
  auto it = factories_.find(class_name);
  if (it == factories_.end()) {
    throw std::invalid_argument("unknown element class: " + class_name);
  }
  return it->second(args, context);
}

bool ElementRegistry::hasClass(const std::string& class_name) const {
  return factories_.count(class_name) != 0;
}

}  // namespace vini::click
