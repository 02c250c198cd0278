// Named-metrics registry and text exposition (the BS_STATS2 backend).
//
// Subsystems register *groups* — callbacks that emit their current values
// through a MetricEmitter — rather than registering individual counters.
// That keeps the hot path untouched (subsystems keep their existing relaxed
// atomics; the group callback reads them only when someone asks) and makes
// one render() call produce a complete, consistent-enough snapshot of the
// whole server.
//
// Exposition format is Prometheus text style, one sample per line:
//
//   bullet_reads_total 12345
//   bullet_read_latency_ns{quantile="0.99"} 18943
//   bullet_read_latency_ns_count 512
//
// No type/help comments: every consumer in-tree (bullet_tool, the obs CI
// check) wants the samples, and the format stays trivially parseable
// (name or name{...}, space, unsigned integer). metric_value() below is
// the one reader of that format.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace bullet::obs {

// Passed to group callbacks; collects samples into the exposition text.
class MetricEmitter {
 public:
  // A monotonic counter or point-in-time gauge: `name value`.
  void value(std::string_view name, std::uint64_t v);

  // A latency distribution: quantile samples plus _count/_sum/_max.
  void histogram(std::string_view name, const HistogramSnapshot& snap);

 private:
  friend class MetricsRegistry;
  std::string out_;
};

// The process-wide registry. Groups are registered at subsystem start-up
// and rendered on demand; both sides are mutex-protected so an admin op
// can render while another thread registers (server boot vs. early stats
// probe).
class MetricsRegistry {
 public:
  using Group = std::function<void(MetricEmitter&)>;

  void register_group(Group group);

  // Runs every group callback in registration order and returns the
  // concatenated exposition text.
  std::string render() const;

 private:
  mutable std::mutex mu_;
  std::vector<Group> groups_;
};

// The value of the sample named `name` in an exposition text: the line
// whose text before its space is exactly `name` (labels included, e.g.
// `bullet_read_latency_ns{quantile="0.5"}`). Empty when no line carries
// that name or its value is not an unsigned decimal integer.
std::optional<std::uint64_t> metric_value(std::string_view text,
                                          std::string_view name);

}  // namespace bullet::obs
