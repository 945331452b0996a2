// Fixture serving layer: the L008 histogram rows and docs anchor.
#pragma once

namespace fx2 {

class Histogram;

/// Histogram rows: svc.wait_us is documented in the fixture docs, and
/// svc.drain_us is the seeded undocumented-metric gap.
#define FBC_SERVER_HISTOGRAMS(X) \
  X(wait_us_, "svc.wait_us")     \
  X(drain_us_, "svc.drain_us")
// fbclint:expect(L008) the svc.drain_us row above is not documented

class BundleServer {
 public:
  void metrics() const;
};

}  // namespace fx2
