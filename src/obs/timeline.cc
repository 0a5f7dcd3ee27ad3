#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace rubberband {

void Timeline::Append(const Timeline& other, int pid) {
  spans_.reserve(spans_.size() + other.spans_.size());
  for (TimelineSpan span : other.spans_) {
    span.pid = pid;
    spans_.push_back(std::move(span));
  }
}

std::vector<TimelineSpan> Timeline::OfName(std::string_view name) const {
  std::vector<TimelineSpan> matching;
  for (const TimelineSpan& span : spans_) {
    if (span.name == name) {
      matching.push_back(span);
    }
  }
  return matching;
}

std::string TopPhasesSummary(const Timeline& timeline, size_t top_n) {
  struct PhaseTotal {
    Seconds seconds = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, PhaseTotal> totals;  // sorted: deterministic ties
  for (const TimelineSpan& span : timeline.spans()) {
    std::string key;
    key.reserve(span.category.size() + 1 + span.name.size());
    key.append(span.category).append("/").append(span.name);
    PhaseTotal& total = totals[key];
    total.seconds += span.duration();
    ++total.count;
  }
  std::vector<std::pair<std::string, PhaseTotal>> ranked(totals.begin(), totals.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.second.seconds > b.second.seconds; });
  if (ranked.size() > top_n) {
    ranked.resize(top_n);
  }

  std::ostringstream os;
  os << "top phases (by total span time):\n";
  char line[160];
  for (const auto& [name, total] : ranked) {
    std::snprintf(line, sizeof(line), "  %-28s %10.1fs  x%lld\n", name.c_str(), total.seconds,
                  static_cast<long long>(total.count));
    os << line;
  }
  if (ranked.empty()) {
    os << "  (no spans recorded)\n";
  }
  return os.str();
}

}  // namespace rubberband
