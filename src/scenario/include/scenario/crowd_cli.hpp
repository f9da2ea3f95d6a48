// Shared command-line parsing for crowd experiments.
//
// Every driver that runs a crowd — the d2dhb_sim CLI and the scaling /
// storm benches — exposes the same CrowdConfig knobs through one flag
// table that maps names onto CrowdConfig fields; drivers layer their
// own flags (--smoke, --metrics-out, --seeds, --profile) on top.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/crowd.hpp"

namespace d2dhb::scenario {

/// Thin argv wrapper: lookups mark their flag (and value) as consumed,
/// so a driver can list leftover `--flags` after parsing everything it
/// knows — the "unknown flag" usage error.
class CliFlags {
 public:
  /// Wraps argv[first..argc). The program name and any mode word
  /// (e.g. "crowd") stay outside.
  CliFlags(int argc, char** argv, int first = 1);

  /// True when bare flag `name` is present (marks it consumed).
  bool has(const std::string& name);
  /// Value following `--name` (marks both consumed); nullopt if absent.
  std::optional<std::string> value(const std::string& name);
  /// Value of `--name` parsed (whole token) as a finite double, or as
  /// a non-negative integer; `fallback` when absent or malformed.
  double number(const std::string& name, double fallback);
  std::uint64_t count(const std::string& name, std::uint64_t fallback);
  /// The first malformed value number()/count() saw, as a message
  /// ("--phones: expected a non-negative integer, got 'abc'"), or "".
  const std::string& error() const { return error_; }

  /// Every argument starting with "--" that no lookup consumed.
  std::vector<std::string> leftover() const;

 private:
  std::vector<std::string> args_;
  std::vector<bool> used_;
  std::string error_;
};

/// Applies every recognized crowd knob onto `config`:
///   --phones N --relay-fraction F --area M --duration S --mobile
///   --policy greedy|random|density|first-n --cell-grid N
///   --reassess S --threads N --heap-agents --seed S
/// Returns an error message ("unknown --policy: x", "--threads must be
/// at least 1", "--phones: expected a non-negative integer, got '-3'")
/// or the empty string on success. Flags not present leave their field
/// untouched, so drivers can pre-load defaults.
std::string apply_crowd_flags(CliFlags& flags, CrowdConfig& config);

/// One usage line per crowd knob, for drivers' --help text.
const char* crowd_flags_help();

}  // namespace d2dhb::scenario
