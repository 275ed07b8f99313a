// callpath_wide: a seeded task tree whose task bodies run chains of
// instrumented user functions.
//
// No BOTS kernel enters user regions inside its tasks, yet the paper's
// profiles (Figs. 1-5) are built from exactly that: compiler-instrumented
// functions called from task bodies.  This generator stands in for them,
// so region enter/exit, child-index lookups, non-leaf instance-tree merges
// and a real-size aggregate profile all get measured.
//
// Shape: fan-out 4 down to depth 7.  Parents on the last internal level
// draw 3-5 children each, so the task count (about 21,844) depends on the
// seed but varies by well under 1 % between seeds.  Every task body enters
// a chain of 1-8 nested functions drawn from a pool of 256 with skewed
// popularity, spins a few microseconds of register-bound xorshift, creates
// its children inside the innermost function, waits for them and exits the
// chain.  Everything a task does is derived from the seed and the task's
// position in the tree, never from the schedule.
#pragma once

#include <cstdint>
#include <memory>

#include "bots/kernel.hpp"

namespace perfbench {

/// Tasks and result checksum of the callpath_wide tree for `seed`,
/// computed serially without a runtime (the self-check reference).
struct CallpathReference {
  std::uint64_t tasks = 0;
  std::uint64_t checksum = 0;
};
[[nodiscard]] CallpathReference callpath_reference(std::uint64_t seed);

/// The workload as a bots::Kernel: uses KernelConfig::threads and ::seed.
/// The self-check compares the run's checksum and executed-task count
/// against callpath_reference(seed), which the kernel caches per seed.
[[nodiscard]] std::unique_ptr<taskprof::bots::Kernel> make_callpath_kernel();

}  // namespace perfbench
