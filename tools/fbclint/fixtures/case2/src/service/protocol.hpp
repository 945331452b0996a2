// Fixture protocol: three message types and the wire stats rows.
#pragma once

#include <cstdint>

namespace fx2 {

enum class MsgType : std::uint8_t {
  Ping = 1,
  Pong = 2,  // fbclint:expect(L008) no | 2 | Pong | row in the wire table
  Stats = 3,
};

/// Wire stats rows (L008): every row must be assigned by
/// BundleServer::stats() and counted by the StatsReply row of the docs
/// wire table -- which here still says 2.
// fbclint:expect(L008)
#define FBC_SERVICE_STATS_FIELDS(X) \
  X(Count, requests)                \
  X(Count, hits)                    \
  X(Count, evictions)
// fbclint:expect(L008) the evictions row above is never set by stats()

}  // namespace fx2
