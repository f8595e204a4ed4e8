// Umbrella header for the "compiler" passes.
//
// Typical pipeline, mirroring the paper's compilation story:
//
//   csp::StmtPtr program = ...;                       // sequential source
//   program = transform::insert_forks(program).program;   // expand hints
//   program = transform::stream_calls(program).program;   // call streaming
//   program = transform::reclassify(program, {&ctx}).program;  // commute
//   runtime.add_process("X", program);
//
// Both passes are semantics-preserving under the optimistic protocol: the
// committed trace of the transformed program equals the sequential trace
// (Theorem 1), which tests/integration assert for every example.
#pragma once

#include "transform/fork_insertion.h"
#include "transform/reclassify.h"
#include "transform/streaming.h"
