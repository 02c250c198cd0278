#include "obs/metrics.h"

#include <charconv>

namespace bullet::obs {

namespace {

void append_sample(std::string* out, std::string_view name,
                   std::string_view labels, std::uint64_t v) {
  out->append(name);
  out->append(labels);
  out->push_back(' ');
  out->append(std::to_string(v));
  out->push_back('\n');
}

}  // namespace

void MetricEmitter::value(std::string_view name, std::uint64_t v) {
  append_sample(&out_, name, {}, v);
}

void MetricEmitter::histogram(std::string_view name,
                              const HistogramSnapshot& snap) {
  append_sample(&out_, name, "{quantile=\"0.5\"}", snap.quantile(0.50));
  append_sample(&out_, name, "{quantile=\"0.9\"}", snap.quantile(0.90));
  append_sample(&out_, name, "{quantile=\"0.99\"}", snap.quantile(0.99));
  std::string suffixed(name);
  const std::size_t base = suffixed.size();
  suffixed += "_count";
  append_sample(&out_, suffixed, {}, snap.count());
  suffixed.replace(base, std::string::npos, "_sum");
  append_sample(&out_, suffixed, {}, snap.sum());
  suffixed.replace(base, std::string::npos, "_max");
  append_sample(&out_, suffixed, {}, snap.max());
}

void MetricsRegistry::register_group(Group group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.push_back(std::move(group));
}

std::string MetricsRegistry::render() const {
  std::vector<Group> groups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    groups = groups_;
  }
  MetricEmitter emitter;
  for (const auto& group : groups) group(emitter);
  return std::move(emitter.out_);
}

std::optional<std::uint64_t> metric_value(std::string_view text,
                                          std::string_view name) {
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    if (!line.starts_with(name) || line.size() <= name.size() ||
        line[name.size()] != ' ') {
      continue;
    }
    const char* const first = line.data() + name.size() + 1;
    const char* const last = line.data() + line.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || end != last) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

}  // namespace bullet::obs
