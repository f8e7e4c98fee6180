#ifndef GLD_CAMPAIGN_CAMPAIGN_H_
#define GLD_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "io/json.h"
#include "noise/noise_model.h"
#include "runtime/experiment.h"
#include "runtime/metrics.h"
#include "sim/simulator.h"

namespace gld {
namespace campaign {

/**
 * One fully-resolved unit of work: a (code, policy, noise) grid point with
 * a runnable ExperimentConfig whose seed was derived deterministically
 * from the campaign seed and the job index.  Running a JobSpec through
 * ExperimentRunner::run() single-process is, by contract, bit-identical
 * to running its RNG-stream shards anywhere and merging in stream order.
 */
struct JobSpec {
    int index = 0;
    std::string code;    ///< registry code spec, e.g. "surface:7"
    std::string policy;  ///< registry policy name, e.g. "gladiator_m"
    ExperimentConfig cfg;
};

/**
 * A declarative sweep manifest — the paper's figure grids (code family x
 * distance x policy x noise) as one versioned, serializable document.
 * expand() flattens the grid into JobSpecs in a deterministic order
 * (codes outer, noise middle, policies inner), so job indices — and with
 * them the derived per-job seeds — are stable across processes, shards
 * and resumes.
 */
struct CampaignSpec {
    std::string name = "campaign";
    uint64_t seed = 0xCA4A16A5EEDull;
    int shots = 100;
    int rounds = 10;
    int rng_streams = 8;
    bool leakage_sampling = true;
    bool compute_ler = false;
    bool record_dlp_series = false;
    /**
     * Paired comparison (default): every policy at the same (code, noise)
     * grid point shares one derived seed, so policy columns are compared
     * on identical noise realizations — the variance-reduced design of
     * the paper's figure generators.  Set false for fully independent
     * per-job seeds (e.g. when jobs are later pooled as extra shots).
     */
    bool pair_policy_seeds = true;
    /**
     * Simulation backend every job runs on (config-hashed per job, so
     * switching backends never resumes the other backend's checkpoints).
     * Serialized by name; specs without the field load as "frame".
     */
    SimBackend backend = SimBackend::kFrame;
    /**
     * Batch width multiplier K every job runs with (see
     * ExperimentConfig::batch_words; result-affecting, so config-hashed
     * per job when != 1).  Serialized only when != 1 — existing specs
     * and hashes are untouched.
     */
    int batch_words = 1;
    /**
     * Noise sampling mode every job runs under (see
     * ExperimentConfig::noise_sampling; result-affecting on the batch
     * backends, so config-hashed per job when != lockstep).  Serialized
     * only when != lockstep — existing specs and hashes are untouched.
     */
    NoiseSampling noise_sampling = NoiseSampling::kLockstep;
    std::vector<std::string> codes;     ///< e.g. {"surface:3", "surface:5"}
    std::vector<std::string> policies;  ///< registry names
    std::vector<NoiseParams> noise;     ///< grid points

    /** Flattens the grid; throws if any dimension is empty. */
    std::vector<JobSpec> expand() const;

    /**
     * The seed job `index` runs under: derived from the campaign seed
     * and the job's seed group — the (code, noise) point when
     * pair_policy_seeds, the job index itself otherwise.
     */
    uint64_t job_seed(int index) const;

    io::Json to_json() const;
    static CampaignSpec from_json(const io::Json& j);

    /**
     * Builds every distinct code and policy once; throws on bad names,
     * and std::invalid_argument when rounds < 1.
     */
    void validate() const;
};

/**
 * Relative simulation cost of running `shots` shots of `job` on its code:
 * shots x rounds x backend_cost_factor(job.cfg.backend, n_qubits), so one
 * frame-backend round of one shot is the unit.  This is the campaign cost
 * model's first stage (ROADMAP "backend-aware campaign planning"): `plan`
 * weights per-shard shot loads with it so mixed-backend and mixed-code
 * sweeps print honest relative loads, not raw shot counts that hide a
 * tableau job costing ~n^2/64 x a frame job.  Throughput model only —
 * never result-affecting.
 *
 * @param n_qubits the job's code size (campaign::make_code(job.code)
 *        ->code.n_qubits(); a plan over many jobs should cache it per
 *        distinct code spec).
 */
double job_cost_units(const JobSpec& job, int n_qubits, long shots);

/** Throws std::runtime_error unless 0 <= shard < n_shards. */
void check_shard_geometry(int shard, int n_shards);

/**
 * Measured-throughput calibration for the campaign cost model (the
 * telemetry -> planner feedback loop): shots per WALL second per
 * (backend, batch width, code), keyed "backend/code" at the default
 * width 1 (e.g. "frame/surface:5") and "backend@w<K>/code" at K > 1
 * (e.g. "batch_frame@w4/surface:5") — the batch width changes a batch
 * backend's throughput substantially, so K-sweep measurements must not
 * overwrite each other.  Typically built from the per-job telemetry
 * exports of a completed run via from_telemetry() (`gld_campaign
 * calibrate`) and fed back into CampaignPlan::build, which then balances
 * shards on measured seconds instead of the analytic
 * backend_cost_factor.  Throughput model only — never result-affecting
 * (the stream->shard assignment changes, the merged Metrics cannot).
 */
struct Calibration {
    /** shots per wall second, keyed by key(backend, code, batch_words). */
    std::map<std::string, double> rates;

    static std::string key(const std::string& backend,
                           const std::string& code, int batch_words = 1)
    {
        // K == 1 keys stay exactly "backend/code", so calibration files
        // from before the batch-width knob keep working unchanged.
        if (batch_words > 1) {
            return backend + "@w" + std::to_string(batch_words) + "/" +
                   code;
        }
        return backend + "/" + code;
    }

    bool empty() const { return rates.empty(); }
    bool has(const std::string& backend, const std::string& code,
             int batch_words = 1) const
    {
        return rates.count(key(backend, code, batch_words)) != 0;
    }
    /** Throws std::runtime_error naming the missing key. */
    double rate(const std::string& backend, const std::string& code,
                int batch_words = 1) const;

    io::Json to_json() const;
    static Calibration from_json(const io::Json& j);

    /**
     * Aggregates the campaign's per-job telemetry exports into measured
     * rates: per (backend, code), total shots / total wall seconds over
     * every job x shard telemetry file present.  A file that does not
     * parse, or whose identity header names another job, is skipped.
     * Throws if no telemetry is found at all.
     */
    static Calibration from_telemetry(const CampaignSpec& spec, int n_shards,
                                      const std::string& out_dir);
};

/**
 * Cost-balanced campaign shard plan (ROADMAP "backend-aware campaign
 * planning", stage 2): every (job, RNG stream) work item is weighted by
 * its cost units — stream_shots x rounds x backend_cost_factor — and
 * assigned to a shard by greedy LPT (longest-processing-time: items in
 * descending cost, each to the currently lightest shard).  Deterministic
 * for a given (spec, n_shards): items sort with (cost desc, job asc,
 * stream asc) tie-breaks and ties between shards go to the lowest index,
 * so every process computes the identical plan — run_shard and the plan
 * command agree without communicating.
 *
 * The merge contract is unchanged: merge_campaign collects streams by id
 * from whatever shard file holds them, and each stream's Metrics partial
 * is independent of which shard ran it, so shard-then-merge stays
 * bit-identical to a single-process run under ANY assignment.
 */
struct CampaignPlan {
    /** streams[job][shard] = ascending stream ids owned by that shard. */
    std::vector<std::vector<std::vector<int>>> streams;
    /** Total assigned cost units per shard. */
    std::vector<double> shard_cost_units;
    /** Total assigned shots per shard. */
    std::vector<long> shard_shots;
    /** n_qubits per job (the cost-model input, cached per code spec). */
    std::vector<int> job_qubits;

    /** Ascending stream ids of job `job_index` owned by `shard`. */
    const std::vector<int>& streams_for(int job_index, int shard) const
    {
        return streams[static_cast<size_t>(job_index)]
                      [static_cast<size_t>(shard)];
    }

    /**
     * Builds the deterministic LPT plan; throws on invalid specs/shard
     * counts.  The cost model needs each distinct code's qubit count, so
     * each is constructed exactly once; pass `codes` to receive those
     * instances (keyed by spec string) instead of discarding them —
     * run_shard reuses them so an executed job never constructs its code
     * a second time.
     *
     * With a non-null, non-empty `calib`, stream costs are measured
     * seconds (stream shots / calibrated shots-per-second) instead of
     * analytic cost units; every (backend, code) of the spec must have a
     * calibration entry or build throws naming the missing key.
     */
    static CampaignPlan build(
        const CampaignSpec& spec, int n_shards,
        std::map<std::string, std::shared_ptr<const CodeInstance>>* codes =
            nullptr,
        const Calibration* calib = nullptr);
};

// Every per-job file (shard result, telemetry export, merged result,
// merged heatmap) opens with one identity header: gld_version, campaign,
// job, code, policy, config_hash, shard (shard-level files only) and
// n_shards.  Readers check all of it, n_shards only where the path names
// it: with paired seeds every policy at a grid point shares one config
// hash, so the hash alone does not name a job.
/** `<out_dir>/<name>.job####.shard<i>of<N>.json` */
std::string shard_result_path(const std::string& out_dir,
                              const CampaignSpec& spec, int job_index,
                              int shard, int n_shards);

/** `<out_dir>/<name>.job####.merged.json` */
std::string merged_result_path(const std::string& out_dir,
                               const CampaignSpec& spec, int job_index);

/** `<out_dir>/<name>.job####.shard<i>of<N>.telemetry.json` */
std::string telemetry_path(const std::string& out_dir,
                           const CampaignSpec& spec, int job_index,
                           int shard, int n_shards);

/** `<out_dir>/<name>.progress.shard<i>of<N>.jsonl` */
std::string progress_path(const std::string& out_dir,
                          const CampaignSpec& spec, int shard, int n_shards);

/** `<out_dir>/<name>.job####.heatmap.json` (cross-shard merge). */
std::string heatmap_path(const std::string& out_dir,
                         const CampaignSpec& spec, int job_index);

struct RunShardStats {
    int jobs_run = 0;      ///< jobs (re)computed by this call
    int jobs_resumed = 0;  ///< jobs skipped: valid result file present
};

/**
 * Observability knobs of run_shard — all pure side channels (Metrics and
 * result files are bit-identical for every combination; the telemetry
 * drift gate in tests/test_telemetry.cc pins the runner-level guarantee).
 */
struct RunShardOptions {
    int threads = 0;        ///< worker threads per job (0 = auto)
    bool verbose = false;   ///< per-job progress lines on stdout
    int jobs_parallel = 1;  ///< concurrent jobs (each `threads` wide)
    /**
     * Collect per-job telemetry (stage timers, leak histogram) and write
     * `telemetry_path` files plus the `progress_path` heartbeat JSONL
     * (the `gld_campaign status` feed).  Off = the exact pre-telemetry
     * run_shard behavior, no extra files.
     */
    bool telemetry = true;
    /** Also collect per-qubit x per-round leakage heatmaps. */
    bool heatmap = false;
    /** Measured-throughput cost model for the shard plan (optional). */
    const Calibration* calibration = nullptr;
};

/**
 * Runs shard `shard` of `n_shards` over every job of the campaign,
 * writing one result file per job into `out_dir` (created if needed).
 *
 * Checkpoint/resume: a job whose result file already exists with a
 * matching identity header and Metrics that fit the job is skipped; a
 * stale file (another job's header, contradicting Metrics, or
 * unparseable) is recomputed and overwritten.
 *
 * `threads` caps worker threads per job (0 = the full
 * BenchConfig::threads() budget).  Job workers AND every job's runner
 * loop execute on the one process-wide persistent pool
 * (util/thread_pool.h), so total OS-thread concurrency never exceeds
 * the budget however `jobs_parallel` and `threads` combine — idle pool
 * workers drift to whichever job's loop is live instead of being
 * statically divided.  `jobs_parallel` runs that many jobs concurrently:
 * jobs are independent — separate codes, runners and result files — so
 * a job-level pool layers cleanly on top of the per-job scheduler for
 * grids of many small jobs.  1 = the serial loop.
 *
 * With `opt.telemetry` (the default), each executed job also writes a
 * telemetry JSON beside its result file, and the shard appends heartbeat
 * lines to its progress JSONL while running — the liveness feed of
 * `gld_campaign status`.  Resumed jobs keep their existing telemetry
 * file and count their planned shots as done in the heartbeat.
 */
RunShardStats run_shard(const CampaignSpec& spec, int shard, int n_shards,
                        const std::string& out_dir,
                        const RunShardOptions& opt);

/**
 * Deletes every shard and merged result file of the campaign in
 * `out_dir`, plus all telemetry, progress and merged-heatmap files
 * (missing files are fine).  The config hash fingerprints the
 * CONFIGURATION, not the code: callers that must reflect the current
 * binary — CI crash gates, the demo self-check, any regenerated figure —
 * should start fresh instead of resuming a possibly stale-binary
 * checkpoint.  The ported generators honour GLD_CAMPAIGN_FRESH=1 to do
 * this (set by the CTest bench/smoke environments).
 */
void remove_results(const CampaignSpec& spec, int n_shards,
                    const std::string& out_dir);

/**
 * Merges the per-stream partials of all `n_shards` result files per job,
 * in ascending stream order, writes `<name>.job####.merged.json` files
 * and returns the merged Metrics in job order.  Throws, naming the file,
 * if any stream of any job is missing or duplicated, a file does not
 * parse or lacks a field, its identity header names another job, or its
 * per-stream Metrics are malformed or contradict the job (a negative
 * count included); then no merged file is written.
 */
std::vector<Metrics> merge_campaign(const CampaignSpec& spec, int n_shards,
                                    const std::string& out_dir);

/**
 * Loads the merged Metrics of every job (merge_campaign output files).
 * Throws, naming the file, when one is missing or does not parse, its
 * identity header names another job (e.g. the spec's policies were
 * reordered since the merge), or its Metrics are malformed or contradict
 * a job of spec.shots shots.
 */
std::vector<Metrics> load_merged(const CampaignSpec& spec,
                                 const std::string& out_dir);

/**
 * Prints the aggregated per-job table (FN/FP/LRC per shot, DLP, LER) from
 * the merged result files — the campaign-level replacement for the
 * monolithic bench generators' output.  With n_shards > 0 the table also
 * carries wall-time and shots/second columns aggregated from the per-job
 * telemetry exports ("-" for jobs without telemetry files); a telemetry
 * file that does not parse or names another job is skipped.
 */
void print_report(const CampaignSpec& spec, const std::string& out_dir,
                  int n_shards = 0);

/**
 * One shard's liveness snapshot: the last complete line of its progress
 * JSONL (`valid` false when the file is missing or holds no parseable
 * line yet — e.g. the shard has not started).
 */
struct ShardProgress {
    int shard = 0;
    bool valid = false;
    bool done = false;
    int64_t jobs_done = 0;
    int64_t jobs_resumed = 0;
    int64_t jobs_total = 0;
    int64_t shots_done = 0;
    int64_t shots_total = 0;
    uint64_t wall_ns = 0;
    double shots_per_second = 0.0;
    uint64_t stage_ns[4] = {0, 0, 0, 0};  ///< telemetry::kStageCount
};

/**
 * Reads every shard's latest heartbeat (missing files -> !valid).  A line
 * counts as torn, and the previous one is read instead, when it does not
 * parse, a count is negative or exceeds its total (resumed <= done <=
 * total jobs, done <= total shots), a total exceeds the plan
 * (spec.expand().size() jobs, spec.shots shots per job), or its rate is
 * non-finite or negative.
 */
std::vector<ShardProgress> read_progress(const CampaignSpec& spec,
                                         int n_shards,
                                         const std::string& out_dir);

/**
 * Prints the live fleet table (`gld_campaign status`): one row per shard
 * plus an aggregated "fleet:" summary line with total shots done /
 * planned, throughput and the stage-time split.
 */
void print_status(const CampaignSpec& spec, int n_shards,
                  const std::string& out_dir);

/**
 * Merges job `job_index`'s leakage heatmap across all shard telemetry
 * files, returning the cross-shard sum.  Throws, naming the file, when a
 * telemetry file does not parse or its identity header names another
 * job; throws if no shard telemetry carries a heatmap for the job — run
 * with --heatmap first.
 */
telemetry::Heatmap merge_job_heatmap(const CampaignSpec& spec, int n_shards,
                                     const std::string& out_dir,
                                     int job_index);

/**
 * Merges + writes `heatmap_path` files for every job with heatmap
 * telemetry, printing one summary line each; returns the number written.
 * A job without heatmap telemetry is skipped; a refused telemetry file
 * (see merge_job_heatmap) fails the whole call.  Throws if NO job has
 * heatmap telemetry (nothing was collected).
 */
int write_job_heatmaps(const CampaignSpec& spec, int n_shards,
                       const std::string& out_dir);

}  // namespace campaign
}  // namespace gld

#endif  // GLD_CAMPAIGN_CAMPAIGN_H_
