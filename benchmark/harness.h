// Measurement plumbing shared by the benchmark's workloads: clocks and
// order statistics, the result sheet every run prints, the output
// referee (bit-identity plus the banded statistical check), the timing
// decorator around policy factories, and host/file helpers.
#ifndef GLD_BENCH_HARNESS_H_
#define GLD_BENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/json.h"
#include "runtime/experiment.h"
#include "runtime/metrics.h"
#include "stats/stats.h"

namespace gld {
namespace bench {

/** Seconds on the steady clock. */
double now_s();

/** Median of `v` (0 for an empty vector). */
double median(std::vector<double> v);

/** First and third quartile, as Python's statistics.quantiles(n=4). */
void quartiles(std::vector<double> v, double* q1, double* q3);

/** An independent 64-bit seed for item `i` of a run seeded `seed`. */
uint64_t derive_seed(uint64_t seed, uint64_t i);

/** Worker threads the benchmark loads the host with: min(4, nproc). */
int bench_threads();

/** Peak resident set of this process, MiB. */
double peak_rss_mib();

/**
 * The host and build the numbers were measured on: CPU model, the AVX2 /
 * AVX-512 flags, nproc, compiler, build type and the source revision
 * handed in by the launcher.  One JSON object.
 */
io::Json host_fingerprint(const std::string& source_rev);

/** Every output check of one run, counted per job. */
struct Outcome {
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;  ///< one line per failed job

    void pass() { ++attempted; }
    void fail(const std::string& why)
    {
        ++attempted;
        ++failed;
        failures.push_back(why);
    }
};

/** Named metrics with units, printed in insertion order. */
class Sheet {
  public:
    void add(const std::string& name, double value, const std::string& unit);
    /** Prints one human-readable line per metric to stdout. */
    void print_lines() const;
    /** False if any value is NaN or infinite (JSON cannot carry it). */
    bool all_finite() const;
    /** The contract's result object as one JSON line. */
    std::string result_line(const Outcome& out, bool correct) const;

  private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Reference rates for the banded output check, recorded by
 * `gld_bench --record-reference` at a fixed seed with more shots than a
 * run uses.  A job's key names its grid point, never its shot count or
 * seed, so any --seed and --scale finds its references.
 */
class Reference {
  public:
    /** Family-wise false-alarm rate of one run's banded checks. */
    static constexpr double kFamilyAlpha = 1e-6;

    static Reference load(const std::string& path);

    void put(const std::string& key, const std::string& metric,
             const stats::RateSample& s);
    /** nullptr when the reference has no such entry. */
    const stats::RateSample* find(const std::string& key,
                                  const std::string& metric) const;

    io::Json to_json() const;

  private:
    std::map<std::string, std::map<std::string, stats::RateSample>> rates_;
};

/**
 * The four refereed rates of a job (the metric names used in reference
 * files): "ler" (decoded runs only), "fp" and "dlp" per data-qubit
 * trajectory, "lrc" per qubit trajectory — all conservative under
 * round-to-round clustering (see Metrics::fp_sample).
 */
std::map<std::string, stats::RateSample> refereed_rates(
    const Metrics& m, const CssCode& code, bool decoded);

/**
 * Collects every job's rates and tests them against the reference with
 * pooled two-proportion z-tests at the Šidák per-test level of
 * Reference::kFamilyAlpha over all tests of the run.
 */
class BandCheck {
  public:
    explicit BandCheck(const Reference* ref) : ref_(ref) {}

    /** Queues job `key`'s rates; `label` names it in failure lines. */
    void add(const std::string& key, const std::string& label,
             const Metrics& m, const CssCode& code, bool decoded);

    /**
     * Runs the tests; returns one entry per job in the order the jobs
     * were added: empty when every rate sits inside its band, else the
     * reason.
     */
    std::vector<std::string> evaluate() const;

  private:
    struct Job {
        std::string key;
        std::string label;
        std::map<std::string, stats::RateSample> rates;
    };
    const Reference* ref_;
    std::vector<Job> jobs_;
};

/** Grid-point key of a job: code, policy and the result-bearing knobs. */
std::string job_key(const std::string& workload, const std::string& code,
                    const std::string& policy, const ExperimentConfig& cfg);

/**
 * Timing decorator around a PolicyFactory: every policy it builds
 * forwards to the wrapped one and times each observe() call.  Counts are
 * kept per policy and added to the shared totals when the policy is
 * destroyed (the runner drops its policies when run() returns).
 */
struct ObserveCounters {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
};
PolicyFactory timed_factory(PolicyFactory inner,
                            std::shared_ptr<ObserveCounters> counters);

/** rm -r (missing is fine). */
void remove_tree(const std::string& path);
/** Regular files and their total bytes below `path`. */
void count_files(const std::string& path, long* files, long* bytes);

/**
 * Sends this process's stdout to `path` while alive, so library calls
 * that print (campaign report and status tables) write a file instead of
 * the benchmark's own output.
 */
class StdoutToFile {
  public:
    explicit StdoutToFile(const std::string& path);
    ~StdoutToFile();
    StdoutToFile(const StdoutToFile&) = delete;
    StdoutToFile& operator=(const StdoutToFile&) = delete;

  private:
    int saved_ = -1;
};

}  // namespace bench
}  // namespace gld

#endif  // GLD_BENCH_HARNESS_H_
