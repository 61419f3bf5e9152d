#include "trace.h"

#include <cstdio>
#include <map>

#include "common.h"

namespace layerbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Begin(const char* name) {
  const int64_t parent =
      open_.empty() ? int64_t{-1} : static_cast<int64_t>(open_.back());
  spans_.push_back({name, NowNs(), 0, parent});
  const auto index = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(uint32_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu}",
                 i == 0 ? "" : ",", i, static_cast<long long>(s.parent),
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string Tracer::Summary() const {
  struct Row {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    std::string parent;
  };
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[s.name];
    const uint64_t total = s.end_ns - s.start_ns;
    ++row.count;
    row.total_ns += total;
    row.self_ns += total > child_ns[i] ? total - child_ns[i] : 0;
    if (s.parent >= 0) row.parent = spans_[s.parent].name;
  }
  std::string out;
  char line[256];
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line),
                  "span %-44s n=%-6llu total=%.6fs self=%.6fs parent=%s\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ns * 1e-9, row.self_ns * 1e-9,
                  row.parent.empty() ? "-" : row.parent.c_str());
    out += line;
  }
  return out;
}

}  // namespace layerbench
