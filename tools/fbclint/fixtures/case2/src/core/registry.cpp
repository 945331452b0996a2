// Fixture registry: registers OmegaPolicy only.
#include "policies/omega.hpp"
// Seeded L003: policies/sigma.hpp exists but is not included here.

namespace fx2 {

OmegaPolicy make_omega() { return OmegaPolicy{}; }

}  // namespace fx2
