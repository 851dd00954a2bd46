#include "core/window.hpp"

#include <sstream>
#include <vector>

namespace ppc::core {

void WindowSpec::validate() const {
  if (length == 0) {
    throw std::invalid_argument("WindowSpec: length must be positive");
  }
  if (subwindows == 0) {
    throw std::invalid_argument("WindowSpec: subwindows must be >= 1");
  }
  if (kind != WindowKind::kJumping && subwindows != 1) {
    throw std::invalid_argument(
        "WindowSpec: only jumping windows have subwindows");
  }
  if (basis == WindowBasis::kTime) {
    if (time_unit_us == 0) {
      throw std::invalid_argument("WindowSpec: time_unit_us must be positive");
    }
    if (length % time_unit_us != 0) {
      throw std::invalid_argument(
          "WindowSpec: time window length must be a multiple of time_unit_us");
    }
  }
  if (kind == WindowKind::kJumping && basis == WindowBasis::kCount &&
      length < subwindows) {
    throw std::invalid_argument("WindowSpec: fewer elements than subwindows");
  }
}

std::string WindowSpec::describe() const {
  std::ostringstream os;
  switch (kind) {
    case WindowKind::kLandmark: os << "landmark"; break;
    case WindowKind::kJumping: os << "jumping"; break;
    case WindowKind::kSliding: os << "sliding"; break;
  }
  if (basis == WindowBasis::kCount) {
    os << "(N=" << length;
  } else {
    os << "(T=" << length << "us, unit=" << time_unit_us << "us";
  }
  if (kind == WindowKind::kJumping) os << ", Q=" << subwindows;
  os << ")";
  return os.str();
}

WindowSpec parse_window_spec(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  auto num = [&](std::size_t i) { return std::stoull(parts.at(i)); };
  if (parts[0] == "sliding" && parts.size() == 2) {
    return WindowSpec::sliding_count(num(1));
  }
  if (parts[0] == "jumping" && parts.size() == 3) {
    return WindowSpec::jumping_count(num(1),
                                     static_cast<std::uint32_t>(num(2)));
  }
  if (parts[0] == "landmark" && parts.size() == 2) {
    return WindowSpec::landmark_count(num(1));
  }
  if (parts[0] == "sliding-time" && parts.size() == 3) {
    return WindowSpec::sliding_time(num(1), num(2));
  }
  if (parts[0] == "jumping-time" && parts.size() == 4) {
    return WindowSpec::jumping_time(num(1),
                                    static_cast<std::uint32_t>(num(2)),
                                    num(3));
  }
  throw std::invalid_argument("unrecognized window spec: " + text);
}

}  // namespace ppc::core
