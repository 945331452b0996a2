// Command-line flags from the config field lists of
// util/config_fields.hpp: FBC_ADD_FIELD registers a row's flag, with the
// struct's initial value as its --help default, and FBC_READ_FIELD parses
// it into the struct. Expanded by tools/serving_common.hpp for the serving
// configs and by fbcsim for PolicyContext.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>

#include "cluster/config.hpp"
#include "core/incremental_select.hpp"
#include "service/server.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/config_fields.hpp"

namespace fbc::tools {

/// Registers the flag of one field-list row; the --help default is the
/// struct's own initial value.
template <class Kind>
void add_field(CliParser& cli, const char* flag, const char* help,
               const config_field_t<Kind>& initial) {
  using T = config_field_t<Kind>;
  if constexpr (std::is_same_v<T, bool>) {
    cli.add_flag(flag, help);
  } else if constexpr (std::is_same_v<Kind, ByteSize>) {
    cli.add_option(flag, help, format_bytes(initial));
  } else if constexpr (std::is_enum_v<T>) {
    cli.add_option(flag, help, to_string(initial));
  } else {
    std::ostringstream shown;
    shown << initial;
    cli.add_option(flag, help, shown.str());
  }
}

/// Parses one field-list row. A flag the command line did not set leaves
/// the struct's initial value in place; a bool flag sets its field.
template <class Kind>
void read_field(const CliParser& cli, const char* flag,
                config_field_t<Kind>& field) {
  using T = config_field_t<Kind>;
  if (!cli.was_set(flag)) return;
  if constexpr (std::is_same_v<T, bool>) {
    field = cli.get_flag(flag);
  } else if constexpr (std::is_same_v<Kind, ByteSize>) {
    field = parse_bytes(cli.get_string(flag));
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    field = cli.get_u32(flag);
  } else if constexpr (std::is_integral_v<T>) {
    field = cli.get_u64(flag);
  } else if constexpr (std::is_same_v<T, double>) {
    field = cli.get_double(flag);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = cli.get_string(flag);
  } else if constexpr (std::is_same_v<T, service::AdmitOrder>) {
    field = service::parse_admit_order(cli.get_string(flag));
  } else if constexpr (std::is_same_v<T, SelectEngine>) {
    field = parse_select_engine(cli.get_string(flag));
  } else {
    static_assert(std::is_same_v<T, cluster::PlacementMode>);
    field = cluster::parse_placement(cli.get_string(flag));
  }
}

#define FBC_ADD_FIELD(kind, member, initial, flag, help) \
  add_field<kind>(cli, flag, help, defaults.member);
#define FBC_READ_FIELD(kind, member, initial, flag, help) \
  read_field<kind>(cli, flag, config.member);

}  // namespace fbc::tools
