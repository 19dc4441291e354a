// One `nondeterminism` violation, silenced by this tree's allowlist.
// This file is lint fodder only — it is never compiled.
#include <random>

namespace fixture {

unsigned entropy_seed() {
  std::random_device rd;  // allowlisted
  return rd();
}

}  // namespace fixture
