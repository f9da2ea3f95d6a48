#include "scenario/crowd_cli.hpp"

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace d2dhb::scenario {

CliFlags::CliFlags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  used_.assign(args_.size(), false);
}

bool CliFlags::has(const std::string& name) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] == name) {
      used_[i] = true;
      return true;
    }
  }
  return false;
}

std::optional<std::string> CliFlags::value(const std::string& name) {
  for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
    if (args_[i] == name) {
      used_[i] = used_[i + 1] = true;
      return args_[i + 1];
    }
  }
  return std::nullopt;
}

namespace {

/// Parses all of `token` as a T. from_chars takes no leading blanks,
/// and into an unsigned T no sign or exponent; values out of T's range
/// fail, and so does trailing junk.
template <typename T>
std::optional<T> parse_whole(const std::string& token) {
  T parsed{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, parsed);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return parsed;
}

}  // namespace

double CliFlags::number(const std::string& name, double fallback) {
  const auto v = value(name);
  if (!v) return fallback;
  if (const auto x = parse_whole<double>(*v); x && std::isfinite(*x)) {
    return *x;
  }
  if (error_.empty()) error_ = name + ": expected a number, got '" + *v + "'";
  return fallback;
}

std::uint64_t CliFlags::count(const std::string& name,
                              std::uint64_t fallback) {
  const auto v = value(name);
  if (!v) return fallback;
  if (const auto x = parse_whole<std::uint64_t>(*v)) return *x;
  if (error_.empty()) {
    error_ = name + ": expected a non-negative integer, got '" + *v + "'";
  }
  return fallback;
}

std::vector<std::string> CliFlags::leftover() const {
  std::vector<std::string> left;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (!used_[i] && args_[i].rfind("--", 0) == 0) left.push_back(args_[i]);
  }
  return left;
}

std::string apply_crowd_flags(CliFlags& flags, CrowdConfig& config) {
  config.phones = flags.count("--phones", config.phones);
  config.relay_fraction =
      flags.number("--relay-fraction", config.relay_fraction);
  config.area_m = flags.number("--area", config.area_m);
  config.duration_s = flags.number("--duration", config.duration_s);
  if (flags.has("--mobile")) config.mobile = true;
  config.cell_grid = flags.count("--cell-grid", config.cell_grid);
  config.reassess_interval_s =
      flags.number("--reassess", config.reassess_interval_s);
  config.seed = flags.count("--seed", config.seed);
  config.threads = flags.count("--threads", config.threads);
  if (!flags.error().empty()) return flags.error();
  if (config.threads < 1) {
    return "--threads must be at least 1";
  }
  if (flags.has("--heap-agents")) config.heap_agents = true;
  if (const auto policy = flags.value("--policy")) {
    if (*policy == "greedy") {
      config.operator_policy = core::SelectionPolicy::coverage_greedy;
    } else if (*policy == "random") {
      config.operator_policy = core::SelectionPolicy::random;
    } else if (*policy == "density") {
      config.operator_policy = core::SelectionPolicy::density;
    } else if (*policy == "first-n") {
      config.operator_policy.reset();
    } else {
      return "unknown --policy: " + *policy;
    }
  }
  return {};
}

const char* crowd_flags_help() {
  return
      "    --phones N --relay-fraction F --area M --duration S\n"
      "    --mobile --policy greedy|random|density|first-n --seed S\n"
      "    --cell-grid N (n-cell grid over the area; 1 = single BS)\n"
      "    --reassess S (connected UEs re-scan every S seconds and\n"
      "    switch to a markedly closer relay; 0 = off)\n"
      "    --threads N (worker threads driving the kernels; 1 = serial.\n"
      "    Seeded results are byte-identical for any N)\n"
      "    --heap-agents (one heap allocation per agent instead of the\n"
      "    pooled per-strip arenas; the ablation arm of the arena-vs-\n"
      "    heap gate — seeded results are byte-identical)\n";
}

}  // namespace d2dhb::scenario
