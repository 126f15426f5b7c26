#include "check/invariant.hpp"

#include <cstdio>
#include <cstdlib>

namespace rbs::check {

void invariant_failed(const char* file, int line, const char* condition, const char* message) {
  std::fprintf(stderr, "RBS_INVARIANT failed at %s:%d: %s\n  %s\n", file, line, condition,
               message);
  std::abort();
}

}  // namespace rbs::check
