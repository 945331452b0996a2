// Tiny command-line option parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` forms plus
// automatic `--help` text. Unknown options are an error so typos in sweep
// scripts fail loudly instead of silently running defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fbc {

/// Declarative CLI parser.
///
/// Usage:
///   CliParser cli("bench_fig8", "Reproduces Fig. 8 (cache-size sweep)");
///   cli.add_option("jobs", "number of jobs per run", "10000");
///   cli.add_flag("csv", "emit CSV instead of an aligned table");
///   cli.parse(argc, argv);                 // exits(0) on --help
///   auto jobs = cli.get_u64("jobs");
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers a value option with a default.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Registers a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. On `--help` prints usage and calls std::exit(0).
  /// Throws std::invalid_argument for unknown or malformed options.
  void parse(int argc, const char* const* argv);

  /// Parses a pre-split token list (used by tests).
  void parse(const std::vector<std::string>& args);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  /// Plain decimal digits only: a sign, a fraction, an exponent or any
  /// trailing character throws std::invalid_argument naming the option.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const;
  /// get_u64, and also throws when the value exceeds UINT32_MAX.
  [[nodiscard]] std::uint32_t get_u32(const std::string& name) const;
  [[nodiscard]] std::int64_t get_i64(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// True when the user supplied the option explicitly (vs. default).
  [[nodiscard]] bool was_set(const std::string& name) const;

  /// Renders the --help text.
  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool set_by_user = false;
  };

  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace fbc
