// Fixture serving layer: the L004 export scan and the L008 docs anchor.
#pragma once

namespace fx2 {

class Histogram;
class CounterRegistry;

/// Serving layer whose observability members must all be exported by
/// metrics(); the hold-time histogram is a seeded L004 export gap.
class BundleServer {
 public:
  void metrics() const;

 private:
  Histogram* queue_us_;
  Histogram* hold_us_;  // fbclint:expect(L004) not exported by metrics()
  CounterRegistry* counters_;
};

}  // namespace fx2
