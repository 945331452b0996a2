// Row vocabulary of the config field lists.
//
// A config struct declares each command-line field once, as one row
// X(kind, member, initial, "flag", "help") of an X-macro list next to the
// struct (FBC_SERVICE_CONFIG_FIELDS in service/server.hpp,
// FBC_CLUSTER_CONFIG_FIELDS in cluster/config.hpp,
// FBC_POLICY_CONTEXT_FIELDS in core/registry.hpp). The struct expands its
// list through FBC_CONFIG_MEMBER, so a field cannot exist without its row;
// tools/config_cli.hpp expands the same list into flag registration and
// parsing, and tools/serving_common.hpp into fbcgrid's forwarding to its
// fbcd children.
//
// `kind` is the member's type, except ByteSize: a Bytes member whose flag
// takes a unit suffix ("512MiB"), which a plain count must not accept. A
// bool row starts false and is a bare flag that sets it (--shadow-diff).
#pragma once

#include <type_traits>

#include "util/bytes.hpp"

namespace fbc {

/// Row kind of a Bytes field written with a unit suffix.
struct ByteSize {};

/// The member type a row of kind `Kind` declares.
template <class Kind>
using config_field_t =
    std::conditional_t<std::is_same_v<Kind, ByteSize>, Bytes, Kind>;

}  // namespace fbc

/// Expands one field-list row into the struct member it declares.
#define FBC_CONFIG_MEMBER(kind, member, initial, flag, help) \
  ::fbc::config_field_t<kind> member = initial;
