// Fixture registry: registers AlphaPolicy only.
#include "policies/alpha.hpp"
// NOTE: policies/beta.hpp is deliberately not included (seeded L003).

namespace fx {

AlphaPolicy make_alpha() { return AlphaPolicy{}; }

}  // namespace fx
