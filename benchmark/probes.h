// Per-layer probes of the traced run: each drives one layer through its
// public API on the workload's own configurations, outside the timed
// phase, and reports its cost per unit of work.
#ifndef GLD_BENCH_PROBES_H_
#define GLD_BENCH_PROBES_H_

#include <string>
#include <vector>

#include "runtime/experiment.h"

namespace gld {
namespace bench {

/** One job of a workload: a registry code and policy, and its config. */
struct Job {
    std::string code;    ///< registry code spec
    std::string policy;  ///< registry policy name
    ExperimentConfig cfg;
};

/**
 * run() wall time at 1 thread over run() wall time at bench_threads(),
 * each the median of five, on the ler_sweep surface:7 / gladiator_m
 * configuration at `shots` shots.
 */
double thread_speedup(uint64_t seed, int shots);

struct DecodeProbe {
    double ns_per_decode = 0.0;
    double quiet_syndrome_frac = 0.0;   ///< all-zero syndromes / syndromes
    double defects_per_syndrome = 0.0;  ///< mean detector flips
};

/**
 * Captures `per_job` syndromes of every decoded job through the scalar
 * Simulator API, with the job's policy in the loop exactly as the
 * runner's scalar path drives it, then times UnionFindDecoder::decode
 * replaying them for about `seconds`.  All zeros when no job decodes.
 */
DecodeProbe decode_probe(const std::vector<Job>& jobs, int per_job,
                         uint64_t seed, double seconds);

/**
 * Standalone simulation cost, ns per shot-round, averaged over the
 * distinct (code, noise, rounds) points of `jobs`: `batch` drives
 * BatchSimulator::run_round_batch on full K=1 batches under the jobs'
 * noise-sampling mode, otherwise the scalar frame backend's run_round.
 * No LRCs are scheduled.  The points share about `seconds` of work.
 */
double sim_probe_ns(const std::vector<Job>& jobs, bool batch,
                    uint64_t seed, double seconds);

}  // namespace bench
}  // namespace gld

#endif  // GLD_BENCH_PROBES_H_
