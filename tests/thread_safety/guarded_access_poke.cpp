// Negative thread-safety fixture: reads ONE guarded SweepClaims field
// without holding the mutex. scripts/check_thread_safety.py compiles this
// once per guarded field with -DRBS_TSA_FIELD=<field> and requires each
// compilation to FAIL under -Wthread-safety -Werror=thread-safety. If a
// compilation succeeds, the field's RBS_GUARDED_BY annotation in
// src/experiment/dispatch_protocol.hpp has been removed — which is the build
// failure this fixture exists to produce.
#include "experiment/dispatch_protocol.hpp"

#ifndef RBS_TSA_FIELD
#error "compile with -DRBS_TSA_FIELD=<guarded field name>"
#endif

bool unguarded_read(rbs::experiment::detail::SweepClaims& claims) {
  // No lock held: must be rejected by the thread-safety analysis.
  return static_cast<bool>(claims.RBS_TSA_FIELD);
}
