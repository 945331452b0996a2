// Fixture serving stats and counters.
#include "server.hpp"

#include "service/protocol.hpp"

namespace fx2 {

void export_counter(const char* name, unsigned long long value);

// Fills the wire stats block -- but never assigns evictions, the seeded
// L008 staleness gap flagged at its row in protocol.hpp.
ServiceStats BundleServer::stats() const {
  ServiceStats out;
  out.requests = 1;
  out.hits = 2;
  return out;
}

// Exports the obs counters. svc.queue_us is documented in the fixture
// docs; svc.hold_us is the seeded undocumented-metric gap.
void BundleServer::counters() const {
  export_counter("svc.queue_us", 1);
  // fbclint:expect(L008) svc.hold_us is not documented
  export_counter("svc.hold_us", 2);
}

}  // namespace fx2
