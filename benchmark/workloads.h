// The benchmark's named workloads and the runs that time and check them.
#ifndef GLD_BENCH_WORKLOADS_H_
#define GLD_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace gld {
namespace bench {

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every job's shot count (the self-test runs tiny). */
    double scale = 1.0;
    /** Scratch space for campaign result files (removed afterwards). */
    std::string work_dir = ".bench_build/work";
};

/** Workload names, in presentation order. */
const std::vector<std::string>& workload_names();

/**
 * Runs one workload for about opt.seconds: set-up repeated several
 * times, then timed passes over the whole workload, then the output
 * checks.  Untraced, the sheet gets the end-to-end metrics; traced, the
 * per-layer metrics.  Every checked job lands in `out`.  Returns false
 * when a tracing invariant failed (stage fractions not summing to 1, or
 * an observe count that is not exact).
 */
bool run_workload(const RunOptions& opt, const Reference& ref, Sheet* sheet,
                  Outcome* out);

/**
 * Runs every job of every workload at 4x its shots under a fixed seed
 * and writes the refereed rates to `path` — the reference the banded
 * output check tests against.
 */
void record_reference(const std::string& path);

}  // namespace bench
}  // namespace gld

#endif  // GLD_BENCH_WORKLOADS_H_
