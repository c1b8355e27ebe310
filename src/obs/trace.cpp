#include "obs/trace.h"

#include <algorithm>

namespace gplus::obs {

TraceLog& TraceLog::global() {
  static TraceLog log;
  return log;
}

void TraceLog::clear() {
  now_ = 0;
  spans_.clear();
  open_stack_.clear();
}

std::size_t TraceLog::begin_span(std::string_view name) {
  if (!enabled_) return kNoSpan;
  Span span;
  span.name = std::string(name);
  span.depth = static_cast<std::uint32_t>(open_stack_.size());
  span.start = now_;
  span.end = now_;
  spans_.push_back(std::move(span));
  open_stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void TraceLog::attr(std::size_t span, std::string_view key,
                    std::uint64_t value) {
  if (span == kNoSpan || span >= spans_.size()) return;
  spans_[span].attrs.emplace_back(std::string(key), value);
}

void TraceLog::end_span(std::size_t span) {
  if (span == kNoSpan || span >= spans_.size()) return;
  spans_[span].end = now_;
  spans_[span].open = false;
  const auto it = std::find(open_stack_.rbegin(), open_stack_.rend(), span);
  if (it != open_stack_.rend()) {
    open_stack_.erase(std::next(it).base());
  }
}

std::string TraceLog::to_text() const {
  std::string out;
  for (const Span& span : spans_) {
    out += "span ";
    out += span.name;
    out += " depth=" + std::to_string(span.depth);
    out += " start=" + std::to_string(span.start);
    out += " end=" + std::to_string(span.end);
    for (const auto& [key, value] : span.attrs) {
      out += " " + key + "=" + std::to_string(value);
    }
    out += "\n";
  }
  return out;
}

}  // namespace gplus::obs
