#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace fbc {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  options_[name] = Option{help, default_value, /*is_flag=*/false,
                          /*set_by_user=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{help, "false", /*is_flag=*/true,
                          /*set_by_user=*/false};
}

void CliParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void CliParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected positional argument: " + arg);

    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end())
      throw std::invalid_argument("unknown option: --" + name);
    Option& opt = it->second;

    if (opt.is_flag) {
      if (value && *value != "true" && *value != "false")
        throw std::invalid_argument("flag --" + name +
                                    " takes no value or true/false");
      opt.value = value.value_or("true");
    } else {
      if (!value) {
        if (i + 1 >= args.size())
          throw std::invalid_argument("option --" + name + " needs a value");
        value = args[++i];
      }
      opt.value = *value;
    }
    opt.set_by_user = true;
  }
}

const CliParser::Option& CliParser::find(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("option not registered: --" + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name).value;
}

std::uint64_t CliParser::get_u64(const std::string& name) const {
  const std::string& v = find(name).value;
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size())
    throw std::invalid_argument("option --" + name +
                                " is not an unsigned integer: " + v);
  return out;
}

std::uint32_t CliParser::get_u32(const std::string& name) const {
  const std::uint64_t v = get_u64(name);
  if (v > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("option --" + name +
                                " exceeds the 32-bit range: " +
                                find(name).value);
  return static_cast<std::uint32_t>(v);
}

std::int64_t CliParser::get_i64(const std::string& name) const {
  const std::string& v = find(name).value;
  try {
    return std::stoll(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name + " is not an integer: " + v);
  }
}

double CliParser::get_double(const std::string& name) const {
  const std::string& v = find(name).value;
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name + " is not a number: " + v);
  }
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name).value == "true";
}

bool CliParser::was_set(const std::string& name) const {
  return find(name).set_by_user;
}

std::string CliParser::usage() const {
  std::ostringstream oss;
  oss << program_ << " - " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    oss << "  --" << name;
    if (!opt.is_flag) oss << "=<value>";
    oss << "\n      " << opt.help;
    if (!opt.is_flag) oss << " (default: " << opt.value << ")";
    oss << "\n";
  }
  oss << "  --help\n      show this message\n";
  return oss.str();
}

}  // namespace fbc
