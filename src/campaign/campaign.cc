#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "campaign/registry.h"
#include "hw/timing_model.h"
#include "io/serialize.h"
#include "sim/op_profile.h"
#include "util/config.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace gld {
namespace campaign {

using io::Json;

// --- CampaignSpec. ---

uint64_t
CampaignSpec::job_seed(int index) const
{
    // One split stream per seed group off the campaign master: stable
    // under re-expansion and independent of the splits ExperimentRunner
    // later derives from the job seed itself (different master).  With
    // policy pairing, the group collapses the (innermost) policy
    // dimension so all policies at a grid point draw the same noise.
    const uint64_t group =
        pair_policy_seeds && !policies.empty()
            ? static_cast<uint64_t>(index) / policies.size()
            : static_cast<uint64_t>(index);
    return Rng(seed).split(group).next_u64();
}

std::vector<JobSpec>
CampaignSpec::expand() const
{
    if (codes.empty() || policies.empty() || noise.empty())
        throw std::runtime_error("campaign \"" + name + "\": codes, "
                                 "policies and noise must all be non-empty");
    std::vector<JobSpec> jobs;
    jobs.reserve(codes.size() * noise.size() * policies.size());
    int index = 0;
    for (const std::string& code : codes) {
        for (const NoiseParams& np : noise) {
            for (const std::string& policy : policies) {
                JobSpec job;
                job.index = index;
                job.code = code;
                job.policy = policy;
                job.cfg.np = np;
                job.cfg.rounds = rounds;
                job.cfg.shots = shots;
                job.cfg.seed = job_seed(index);
                job.cfg.leakage_sampling = leakage_sampling;
                job.cfg.compute_ler = compute_ler;
                job.cfg.record_dlp_series = record_dlp_series;
                job.cfg.rng_streams = rng_streams;
                job.cfg.backend = backend;
                job.cfg.batch_words = batch_words;
                job.cfg.noise_sampling = noise_sampling;
                jobs.push_back(std::move(job));
                ++index;
            }
        }
    }
    return jobs;
}

Json
CampaignSpec::to_json() const
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(io::kSerializeVersion));
    j.set("name", Json::str(name));
    j.set("seed", Json::str(io::u64_to_hex(seed)));
    j.set("shots", Json::integer(shots));
    j.set("rounds", Json::integer(rounds));
    j.set("rng_streams", Json::integer(rng_streams));
    j.set("leakage_sampling", Json::boolean(leakage_sampling));
    j.set("compute_ler", Json::boolean(compute_ler));
    j.set("record_dlp_series", Json::boolean(record_dlp_series));
    j.set("pair_policy_seeds", Json::boolean(pair_policy_seeds));
    j.set("backend", Json::str(backend_name(backend)));
    // Only serialized when != 1, like ExperimentConfig: absence == 1, so
    // existing spec files and their job config hashes are untouched.
    if (batch_words != 1)
        j.set("batch_words", Json::integer(batch_words));
    if (noise_sampling != NoiseSampling::kLockstep)
        j.set("noise_sampling",
              Json::str(noise_sampling_name(noise_sampling)));
    Json jc = Json::array();
    for (const std::string& c : codes)
        jc.push(Json::str(c));
    j.set("codes", std::move(jc));
    Json jp = Json::array();
    for (const std::string& p : policies)
        jp.push(Json::str(p));
    j.set("policies", std::move(jp));
    Json jn = Json::array();
    for (const NoiseParams& np : noise)
        jn.push(io::noise_to_json(np));
    j.set("noise", std::move(jn));
    return j;
}

CampaignSpec
CampaignSpec::from_json(const Json& j)
{
    io::check_version(j, "CampaignSpec");
    CampaignSpec spec;
    spec.name = j["name"].as_str();
    spec.seed = io::u64_from_hex(j["seed"].as_str());
    spec.shots = io::int_field(j, "shots");
    spec.rounds = io::int_field(j, "rounds");
    spec.rng_streams = io::int_field(j, "rng_streams");
    spec.leakage_sampling = j["leakage_sampling"].as_bool();
    spec.compute_ler = j["compute_ler"].as_bool();
    spec.record_dlp_series = j["record_dlp_series"].as_bool();
    spec.pair_policy_seeds = j["pair_policy_seeds"].as_bool();
    spec.backend = j.has("backend")
                       ? backend_from_name(j["backend"].as_str())
                       : SimBackend::kFrame;  // version-1 specs
    spec.batch_words =
        j.has("batch_words") ? io::int_field(j, "batch_words") : 1;
    spec.noise_sampling =
        j.has("noise_sampling")
            ? noise_sampling_from_name(j["noise_sampling"].as_str())
            : NoiseSampling::kLockstep;
    spec.codes.clear();
    const Json& jc = j["codes"];
    for (size_t i = 0; i < jc.size(); ++i)
        spec.codes.push_back(jc.at(i).as_str());
    const Json& jp = j["policies"];
    for (size_t i = 0; i < jp.size(); ++i)
        spec.policies.push_back(jp.at(i).as_str());
    const Json& jn = j["noise"];
    for (size_t i = 0; i < jn.size(); ++i)
        spec.noise.push_back(io::noise_from_json(jn.at(i)));
    return spec;
}

void
CampaignSpec::validate() const
{
    const std::vector<JobSpec> jobs = expand();  // checks non-empty dims
    if (rounds < 1)
        throw std::invalid_argument("campaign: rounds " +
                                    std::to_string(rounds) +
                                    " must be at least 1");
    for (const NoiseParams& np : noise)
        np.validate();
    for (const std::string& code : codes)
        make_code(code);  // throws on bad family/distance
    for (const std::string& policy : policies)
        make_policy(policy, noise.front());  // throws on bad name
    (void)jobs;
}

// --- Cost model. ---

double
job_cost_units(const JobSpec& job, int n_qubits, long shots)
{
    return static_cast<double>(shots) *
           static_cast<double>(job.cfg.rounds) *
           backend_cost_factor(job.cfg.backend, n_qubits);
}

// --- Per-job file identity. ---

void
check_shard_geometry(int shard, int n_shards)
{
    if (n_shards < 1)
        throw std::runtime_error("shard plan: n_shards must be >= 1");
    if (shard < 0 || shard >= n_shards)
        throw std::runtime_error("shard plan: shard index " +
                                 std::to_string(shard) + " outside [0, " +
                                 std::to_string(n_shards) + ")");
}

namespace {

/**
 * The identity header every per-job file opens with (see campaign.h);
 * `shard` < 0 marks a job-level file, which carries no shard field.
 */
Json
job_file_header(const CampaignSpec& spec, const JobSpec& job, int n_shards,
                int shard = -1)
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(io::kSerializeVersion));
    j.set("campaign", Json::str(spec.name));
    j.set("job", Json::integer(job.index));
    j.set("code", Json::str(job.code));
    j.set("policy", Json::str(job.policy));
    j.set("config_hash",
          Json::str(io::u64_to_hex(io::config_hash(job.cfg))));
    if (shard >= 0)
        j.set("shard", Json::integer(shard));
    j.set("n_shards", Json::integer(n_shards));
    return j;
}

/**
 * The first field of file header `j` that differs from the header
 * job_file_header writes for `job` — "field = got, want W" — or "" when
 * none does.  A job-level file (`shard` < 0) records the geometry it was
 * merged from, which the reader does not know, so its n_shards is not
 * checked.  A missing field throws.
 */
std::string
job_file_mismatch(const Json& j, const CampaignSpec& spec, const JobSpec& job,
                  int n_shards, int shard = -1)
{
    const Json header = job_file_header(spec, job, n_shards, shard);
    for (const auto& [key, want] : header.items()) {
        if (shard < 0 && key == "n_shards")
            continue;
        const std::string got = j[key].dump();
        if (got != want.dump())
            return key + " = " + got + ", want " + want.dump();
    }
    return "";
}

/**
 * Parses the per-job file `path` and calls `use` on it.  Any error on
 * the way — a file that does not parse, a missing key, a bad field or a
 * refusal `use` throws — is rethrown as "<cmd>: <path>: <error>;
 * <advice>", so a campaign's user learns which of its files is broken.
 */
void
read_job_file(const std::string& cmd, const std::string& path,
              const std::string& advice,
              const std::function<void(const Json&)>& use)
{
    try {
        use(Json::parse(io::read_file(path)));
    } catch (const std::exception& e) {
        throw std::runtime_error(cmd + ": " + path + ": " + e.what() + "; " +
                                 advice);
    }
}

/**
 * Calls `use` on every shard telemetry file of `job` in `out_dir` whose
 * header names the job.  A file that does not parse, names another job
 * or makes `use` throw is skipped — or, with `strict`, refused naming the
 * file.
 */
void
read_job_telemetry(const CampaignSpec& spec, const JobSpec& job, int n_shards,
                   const std::string& out_dir, bool strict,
                   const std::function<void(const Json&)>& use)
{
    check_shard_geometry(0, n_shards);
    for (int shard = 0; shard < n_shards; ++shard) {
        const std::string path =
            telemetry_path(out_dir, spec, job.index, shard, n_shards);
        if (!io::file_exists(path))
            continue;
        try {
            read_job_file("telemetry", path, "re-run that shard",
                          [&](const Json& j) {
                              const std::string why = job_file_mismatch(
                                  j, spec, job, n_shards, shard);
                              if (!why.empty())
                                  throw std::runtime_error(
                                      "belongs to a different job (" + why +
                                      ")");
                              use(j);
                          });
        } catch (const std::exception&) {
            if (strict)
                throw;
        }
    }
}

}  // namespace

// --- Calibration. ---

double
Calibration::rate(const std::string& backend, const std::string& code,
                  int batch_words) const
{
    const auto it = rates.find(key(backend, code, batch_words));
    if (it == rates.end())
        throw std::runtime_error(
            "calibration: no measured rate for \"" +
            key(backend, code, batch_words) +
            "\" (run the campaign with telemetry, then "
            "`gld_campaign calibrate`)");
    return it->second;
}

Json
Calibration::to_json() const
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(io::kSerializeVersion));
    Json jr = Json::object();
    for (const auto& kv : rates)
        jr.set(kv.first, Json::number(kv.second));
    j.set("shots_per_second", std::move(jr));
    return j;
}

Calibration
Calibration::from_json(const Json& j)
{
    io::check_version(j, "Calibration");
    Calibration cal;
    for (const auto& kv : j["shots_per_second"].items()) {
        const double rate = kv.second.as_double();
        if (!(rate > 0.0))
            throw std::runtime_error("Calibration: rate for \"" + kv.first +
                                     "\" must be positive");
        cal.rates[kv.first] = rate;
    }
    return cal;
}

Calibration
Calibration::from_telemetry(const CampaignSpec& spec, int n_shards,
                            const std::string& out_dir)
{
    struct Sum {
        double shots = 0.0;
        double seconds = 0.0;
    };
    std::map<std::string, Sum> sums;
    for (const JobSpec& job : spec.expand()) {
        // A garbled or foreign file is skipped, like resume does: never
        // calibrate on it.
        read_job_telemetry(
            spec, job, n_shards, out_dir, /*strict=*/false,
            [&](const Json& j) {
                const int64_t shots = io::count_value(j["shots"], "shots");
                const int64_t wall_ns =
                    io::count_value(j["wall_ns"], "wall_ns");
                Sum& s = sums[key(backend_name(job.cfg.backend), job.code,
                                  job.cfg.batch_words)];
                s.shots += static_cast<double>(shots);
                s.seconds += static_cast<double>(wall_ns) * 1e-9;
            });
    }
    Calibration cal;
    for (const auto& kv : sums) {
        if (kv.second.shots > 0.0 && kv.second.seconds > 0.0)
            cal.rates[kv.first] = kv.second.shots / kv.second.seconds;
    }
    if (cal.rates.empty())
        throw std::runtime_error(
            "calibrate: no telemetry found for campaign \"" + spec.name +
            "\" in " + out_dir + " (run with telemetry enabled first)");
    return cal;
}

// --- CampaignPlan (greedy LPT over per-stream cost units). ---

CampaignPlan
CampaignPlan::build(
    const CampaignSpec& spec, int n_shards,
    std::map<std::string, std::shared_ptr<const CodeInstance>>* codes,
    const Calibration* calib)
{
    if (calib != nullptr && calib->empty())
        calib = nullptr;
    check_shard_geometry(0, n_shards);
    const std::vector<JobSpec> jobs = spec.expand();

    CampaignPlan plan;
    plan.streams.assign(jobs.size(),
                        std::vector<std::vector<int>>(
                            static_cast<size_t>(n_shards)));
    plan.shard_cost_units.assign(static_cast<size_t>(n_shards), 0.0);
    plan.shard_shots.assign(static_cast<size_t>(n_shards), 0);
    plan.job_qubits.assign(jobs.size(), 0);

    // One code build per distinct spec string for the qubit counts; the
    // instances are handed to the caller (when asked) rather than
    // discarded, so run_shard's executed jobs reuse them.
    std::map<std::string, std::shared_ptr<const CodeInstance>> built;
    for (size_t j = 0; j < jobs.size(); ++j) {
        auto it = built.find(jobs[j].code);
        if (it == built.end()) {
            it = built
                     .emplace(jobs[j].code,
                              std::shared_ptr<const CodeInstance>(
                                  make_code(jobs[j].code)))
                     .first;
        }
        plan.job_qubits[j] = it->second->code.n_qubits();
    }
    if (codes != nullptr)
        *codes = std::move(built);

    // Work items: one per (job, stream), weighted by that stream's cost.
    struct Item {
        double cost;
        long shots;
        int job;
        int stream;
    };
    std::vector<Item> items;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const ExperimentConfig& cfg = jobs[j].cfg;
        // Cost per shot: analytic rounds x backend factor by default;
        // with a calibration, measured wall seconds (1 / shots-per-
        // second) — same LPT, honest units.  rate() throws on a missing
        // (backend, batch width, code) key, so a partial calibration
        // never silently half-applies.
        const double per_shot =
            calib != nullptr
                ? 1.0 / calib->rate(backend_name(cfg.backend), jobs[j].code,
                                    cfg.batch_words)
                : static_cast<double>(cfg.rounds) *
                      backend_cost_factor(cfg.backend, plan.job_qubits[j]);
        const int total = ExperimentRunner::n_streams(cfg);
        for (int s = 0; s < total; ++s) {
            const long shots = ExperimentRunner::stream_shots(cfg, s);
            items.push_back({static_cast<double>(shots) * per_shot, shots,
                             static_cast<int>(j), s});
        }
    }

    // LPT: descending cost; (job, stream) ascending breaks cost ties so
    // the order — and with it the whole plan — is a pure function of the
    // spec.  Greedy target: the lightest shard, lowest index on ties.
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                         if (a.cost != b.cost)
                             return a.cost > b.cost;
                         if (a.job != b.job)
                             return a.job < b.job;
                         return a.stream < b.stream;
                     });
    for (const Item& item : items) {
        int best = 0;
        for (int sh = 1; sh < n_shards; ++sh) {
            if (plan.shard_cost_units[static_cast<size_t>(sh)] <
                plan.shard_cost_units[static_cast<size_t>(best)])
                best = sh;
        }
        plan.streams[static_cast<size_t>(item.job)]
                    [static_cast<size_t>(best)]
                        .push_back(item.stream);
        plan.shard_cost_units[static_cast<size_t>(best)] += item.cost;
        plan.shard_shots[static_cast<size_t>(best)] += item.shots;
    }
    // Ascending stream ids per (job, shard): run_partials computes them
    // in request order, and sorted requests keep result files tidy.
    for (auto& per_job : plan.streams) {
        for (auto& ss : per_job)
            std::sort(ss.begin(), ss.end());
    }
    return plan;
}

// --- Result files. ---

namespace {

std::string
job_tag(const CampaignSpec& spec, int job_index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".job%04d", job_index);
    return spec.name + buf;
}

}  // namespace

std::string
shard_result_path(const std::string& out_dir, const CampaignSpec& spec,
                  int job_index, int shard, int n_shards)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), ".shard%dof%d.json", shard, n_shards);
    return out_dir + "/" + job_tag(spec, job_index) + buf;
}

std::string
merged_result_path(const std::string& out_dir, const CampaignSpec& spec,
                   int job_index)
{
    return out_dir + "/" + job_tag(spec, job_index) + ".merged.json";
}

std::string
telemetry_path(const std::string& out_dir, const CampaignSpec& spec,
               int job_index, int shard, int n_shards)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".shard%dof%d.telemetry.json", shard,
                  n_shards);
    return out_dir + "/" + job_tag(spec, job_index) + buf;
}

std::string
progress_path(const std::string& out_dir, const CampaignSpec& spec,
              int shard, int n_shards)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".progress.shard%dof%d.jsonl", shard,
                  n_shards);
    return out_dir + "/" + spec.name + buf;
}

std::string
heatmap_path(const std::string& out_dir, const CampaignSpec& spec,
             int job_index)
{
    return out_dir + "/" + job_tag(spec, job_index) + ".heatmap.json";
}

// --- run_shard. ---

namespace {

/**
 * Why Metrics `m` cannot be `shots` shots of a run of `cfg` — one
 * stream's share, or the whole job's — giving the first contradicting
 * field, or "" when nothing does: each shot runs cfg.rounds rounds,
 * decoded iff compute_ler, with one DLP entry per round iff recorded
 * and any shot ran, and every total counts events.
 */
std::string
metrics_mismatch(const Metrics& m, const ExperimentConfig& cfg, long shots)
{
    const long rounds = cfg.rounds;
    const struct {
        const char* field;
        long got, want;
    } counts[] = {
        {"shots", m.shots, shots},
        {"rounds_per_shot", m.rounds_per_shot, rounds},
        {"decoded_shots", m.decoded_shots, cfg.compute_ler ? shots : 0},
        {"dlp_series length", static_cast<long>(m.dlp_series.size()),
         cfg.record_dlp_series && shots > 0 ? rounds : 0},
    };
    for (const auto& c : counts) {
        if (c.got != c.want)
            return std::string(c.field) + " = " + std::to_string(c.got) +
                   ", want " + std::to_string(c.want);
    }
    if (m.logical_errors > m.decoded_shots)
        return "logical_errors = " + std::to_string(m.logical_errors) +
               ", more than decoded_shots";
    const auto bad = [](double v) { return !std::isfinite(v) || v < 0; };
    const auto refuse = [](const std::string& field, double v) {
        return field + " = " + std::to_string(v) + ", not a finite count";
    };
    const std::pair<const char*, double> totals[] = {
        {"fn_total", m.fn_total},
        {"fp_total", m.fp_total},
        {"tp_total", m.tp_total},
        {"lrc_data_total", m.lrc_data_total},
        {"lrc_check_total", m.lrc_check_total},
        {"dlp_total", m.dlp_total},
        {"check_leak_total", m.check_leak_total},
    };
    for (const auto& [field, v] : totals) {
        if (bad(v))
            return refuse(field, v);
    }
    for (size_t r = 0; r < m.dlp_series.size(); ++r) {
        if (bad(m.dlp_series[r]))
            return refuse("dlp_series[" + std::to_string(r) + "]",
                          m.dlp_series[r]);
    }
    return "";
}

/** True if `path` holds a completed, up-to-date shard result. */
bool
shard_result_valid(const std::string& path, const CampaignSpec& spec,
                   const JobSpec& job, int shard, int n_shards,
                   const std::vector<int>& want_streams)
{
    if (!io::file_exists(path))
        return false;
    try {
        const Json j = Json::parse(io::read_file(path));
        // The whole header, not just the config hash: with paired seeds
        // an edited spec would otherwise resume mislabeled results.
        if (!job_file_mismatch(j, spec, job, n_shards, shard).empty())
            return false;
        // The expected stream set comes from the (deterministic) campaign
        // plan: a file produced under a different plan — e.g. the old
        // round-robin partition or a changed cost model — lists different
        // stream ids and is recomputed.
        const Json& jstreams = j["streams"];
        if (jstreams.size() != want_streams.size())
            return false;
        for (size_t i = 0; i < jstreams.size(); ++i) {
            const Json& entry = jstreams.at(i);
            if (entry["stream"].as_int() != want_streams[i])
                return false;
            // A file whose Metrics contradict the job is stale, however
            // it got that way: recompute it.
            if (!metrics_mismatch(io::metrics_from_json(entry["metrics"]),
                                  job.cfg,
                                  ExperimentRunner::stream_shots(
                                      job.cfg, want_streams[i]))
                     .empty())
                return false;
        }
        return true;
    } catch (const std::exception&) {
        return false;  // unreadable/garbled: recompute
    }
}

/** Wall clock for heartbeats/throughput (never result-affecting). */
uint64_t
wall_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Shard-level liveness aggregator: job workers report cumulative shot
 * counts (from their collectors' on_block hooks) and completed jobs'
 * stage times; the tracker appends throttled heartbeat lines to the
 * shard's progress JSONL — the `gld_campaign status` feed.  One writer
 * per (shard, run): the file is truncated at construction, and every
 * line is a complete JSON object.
 */
class ProgressTracker {
  public:
    ProgressTracker(std::string path, int shard, int n_shards,
                    int64_t jobs_total, int64_t shots_total)
        : path_(std::move(path)), shard_(shard), n_shards_(n_shards),
          jobs_total_(jobs_total), shots_total_(shots_total),
          start_ns_(wall_now_ns())
    {
        io::write_file_atomic(path_, "");  // fresh stream per run
        std::lock_guard<std::mutex> lk(mu_);
        emit(true);
    }

    /** A job's collector reported `cumulative` shots recorded so far. */
    void report_job_shots(int job_index, uint64_t cumulative)
    {
        std::lock_guard<std::mutex> lk(mu_);
        uint64_t& cur = job_shots_[job_index];
        if (cumulative > cur) {
            shots_done_ += cumulative - cur;
            shots_executed_ += cumulative - cur;
            cur = cumulative;
        }
        emit(false);
    }

    /**
     * A job finished.  Resumed jobs never report shots (nothing ran), so
     * their planned shard shots count as done here — for progress only,
     * never for throughput; `rec` carries an executed job's stage times
     * (null for resumed jobs).
     */
    void job_finished(int job_index, bool resumed, uint64_t planned_shots,
                      const telemetry::Record* rec)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (resumed) {
            ++jobs_resumed_;
            shots_done_ += planned_shots;
        } else {
            // Belt and braces: make sure the full job is accounted even
            // if an on_block delivery raced the final merge.
            uint64_t& cur = job_shots_[job_index];
            if (planned_shots > cur) {
                shots_done_ += planned_shots - cur;
                shots_executed_ += planned_shots - cur;
                cur = planned_shots;
            }
        }
        if (rec != nullptr) {
            for (int s = 0; s < telemetry::kStageCount; ++s)
                stage_ns_[s] += rec->stage_ns[s];
        }
        ++jobs_done_;
        emit(true);
    }

    /** Final heartbeat with done=true. */
    void finish()
    {
        std::lock_guard<std::mutex> lk(mu_);
        done_ = true;
        emit(true);
    }

  private:
    /** Emits a heartbeat line (call with mu_ held); throttled to one
     *  line per ~0.5 s unless forced (job boundaries, start, finish). */
    void emit(bool forced)
    {
        const uint64_t now = wall_now_ns();
        if (!forced && now - last_emit_ns_ < 500'000'000ull)
            return;
        last_emit_ns_ = now;
        const uint64_t wall = now - start_ns_;
        Json j = Json::object();
        j.set("shard", Json::integer(shard_));
        j.set("n_shards", Json::integer(n_shards_));
        j.set("jobs_done", Json::integer(jobs_done_));
        j.set("jobs_resumed", Json::integer(jobs_resumed_));
        j.set("jobs_total", Json::integer(jobs_total_));
        j.set("shots_done", Json::integer(static_cast<int64_t>(shots_done_)));
        j.set("shots_total", Json::integer(shots_total_));
        j.set("wall_ns", Json::integer(static_cast<int64_t>(wall)));
        // Throughput of this pass: shots it executed, not the resumed
        // jobs' planned shots (those ran in an earlier pass).
        j.set("shots_per_second",
              Json::number(wall > 0 ? static_cast<double>(shots_executed_) /
                                          (static_cast<double>(wall) * 1e-9)
                                    : 0.0));
        Json js = Json::object();
        for (int s = 0; s < telemetry::kStageCount; ++s)
            js.set(telemetry::stage_name(s),
                   Json::integer(static_cast<int64_t>(stage_ns_[s])));
        j.set("stage_ns", std::move(js));
        j.set("done", Json::boolean(done_));
        io::append_line(path_, j.dump());
    }

    const std::string path_;
    const int shard_;
    const int n_shards_;
    const int64_t jobs_total_;
    const int64_t shots_total_;
    const uint64_t start_ns_;

    std::mutex mu_;
    std::map<int, uint64_t> job_shots_;  ///< cumulative per job
    uint64_t shots_done_ = 0;      ///< executed + resumed (progress)
    uint64_t shots_executed_ = 0;  ///< executed this pass (throughput)
    int64_t jobs_done_ = 0;
    int64_t jobs_resumed_ = 0;
    uint64_t stage_ns_[telemetry::kStageCount] = {0, 0, 0, 0};
    uint64_t last_emit_ns_ = 0;
    bool done_ = false;
};

}  // namespace

RunShardStats
run_shard(const CampaignSpec& spec, int shard, int n_shards,
          const std::string& out_dir, const RunShardOptions& opt)
{
    check_shard_geometry(shard, n_shards);
    io::make_dirs(out_dir);
    const std::vector<JobSpec> jobs = spec.expand();
    // Cost-balanced stream->shard assignment, identical in every process
    // that runs this (spec, n_shards) — see CampaignPlan.  The codes the
    // plan built for its cost model are kept and shared below (they are
    // immutable once built; concurrent jobs only read them).
    std::map<std::string, std::shared_ptr<const CodeInstance>> codes;
    const CampaignPlan plan =
        CampaignPlan::build(spec, n_shards, &codes, opt.calibration);
    std::atomic<int> jobs_run{0};
    std::atomic<int> jobs_resumed{0};

    // Telemetry is a pure side channel end to end: with it off this
    // function produces byte-identical result files along the exact
    // pre-telemetry code path.
    const bool use_telemetry = opt.telemetry;
    std::unique_ptr<ProgressTracker> tracker;
    if (use_telemetry)
        tracker = std::make_unique<ProgressTracker>(
            progress_path(out_dir, spec, shard, n_shards), shard, n_shards,
            static_cast<int64_t>(jobs.size()),
            plan.shard_shots[static_cast<size_t>(shard)]);

    // Job workers and each job's runner loop all execute on the ONE
    // process-wide persistent pool (util/thread_pool.h), whose size is
    // the BenchConfig::threads() budget — so -j N with --threads unset
    // cannot oversubscribe no matter how the loops nest, and each job
    // may claim the FULL budget (idle pool workers help whichever job's
    // loop is live, instead of being statically fenced off by the old
    // budget division, which still oversubscribed via nested spawns).
    const int pool_size = std::max(
        1, std::min<int>(std::max(1, opt.jobs_parallel),
                         static_cast<int>(jobs.size())));
    const int job_threads =
        opt.threads > 0 ? opt.threads : BenchConfig::threads();

    const auto run_one_job = [&](const JobSpec& job) {
        const std::vector<int>& streams =
            plan.streams_for(job.index, shard);
        const std::string path =
            shard_result_path(out_dir, spec, job.index, shard, n_shards);
        uint64_t planned_shots = 0;
        for (int s : streams)
            planned_shots += static_cast<uint64_t>(
                ExperimentRunner::stream_shots(job.cfg, s));
        if (shard_result_valid(path, spec, job, shard, n_shards, streams)) {
            jobs_resumed.fetch_add(1);
            if (tracker != nullptr)
                tracker->job_finished(job.index, /*resumed=*/true,
                                      planned_shots, nullptr);
            if (opt.verbose)
                std::printf("  job %04d [%s / %s]: resume — result "
                            "up-to-date\n",
                            job.index, job.code.c_str(), job.policy.c_str());
            return;
        }

        std::vector<Metrics> parts;
        telemetry::Record rec;
        uint64_t job_wall_ns = 0;
        if (!streams.empty()) {
            // Shards the plan assigned no streams of this job: still
            // write the (empty) result file merge expects, but skip the
            // graph construction.  The code instance is the plan's own
            // build — never constructed twice per shard process.
            const std::shared_ptr<const CodeInstance> code =
                codes.at(job.code);
            ExperimentConfig cfg = job.cfg;
            cfg.threads = job_threads;
            ExperimentRunner runner(code->ctx, cfg);
            std::unique_ptr<telemetry::Collector> col;
            if (use_telemetry) {
                telemetry::Collector::Options copt;
                copt.heatmap = opt.heatmap;
                if (tracker != nullptr) {
                    ProgressTracker* t = tracker.get();
                    const int job_index = job.index;
                    copt.on_block = [t, job_index](uint64_t done) {
                        t->report_job_shots(job_index, done);
                    };
                }
                col = std::make_unique<telemetry::Collector>(std::move(copt));
                runner.set_telemetry(col.get());
            }
            const uint64_t t0 = wall_now_ns();
            parts = runner.run_partials(make_policy(job.policy, job.cfg.np),
                                        streams);
            job_wall_ns = wall_now_ns() - t0;
            if (col != nullptr)
                rec = col->merged();
        }

        Json j = job_file_header(spec, job, n_shards, shard);
        Json jstreams = Json::array();
        for (size_t i = 0; i < streams.size(); ++i) {
            Json entry = Json::object();
            entry.set("stream", Json::integer(streams[i]));
            entry.set("metrics", io::metrics_to_json(parts[i]));
            jstreams.push(std::move(entry));
        }
        j.set("streams", std::move(jstreams));
        io::write_file_atomic(path, j.dump(2) + "\n");

        if (use_telemetry) {
            // The job's telemetry export, beside its result file: run
            // identity + the merged record + a measured-vs-modeled round
            // time (the hw/ timing model priced against the sim stage).
            Json t = job_file_header(spec, job, n_shards, shard);
            t.set("backend", Json::str(backend_name(job.cfg.backend)));
            const Json ex =
                telemetry::export_to_json(rec, job_wall_ns, job_threads);
            for (const auto& kv : ex.items())
                t.set(kv.first, kv.second);
            if (rec.rounds > 0) {
                const std::shared_ptr<const CodeInstance> code =
                    codes.at(job.code);
                const double measured_round_ns =
                    static_cast<double>(rec.stage_ns[telemetry::kSim]) /
                    static_cast<double>(rec.rounds);
                const RoundOpProfile prof = profile_round_ops(
                    code->ctx.code(), code->ctx.rc(), job.cfg.np,
                    LrcSchedule{});
                const TimingModel::ModelComparison cmp =
                    TimingModel().compare_round_ns(prof.quiet,
                                                   measured_round_ns);
                Json jm = Json::object();
                jm.set("modeled_round_ns", Json::number(cmp.modeled_ns));
                jm.set("measured_sim_ns_per_round",
                       Json::number(cmp.measured_ns));
                jm.set("measured_over_modeled", Json::number(cmp.ratio));
                t.set("timing_model", std::move(jm));
            }
            io::write_file_atomic(
                telemetry_path(out_dir, spec, job.index, shard, n_shards),
                t.dump(2) + "\n");
        }

        jobs_run.fetch_add(1);
        if (tracker != nullptr)
            tracker->job_finished(job.index, /*resumed=*/false,
                                  planned_shots,
                                  streams.empty() ? nullptr : &rec);
        if (opt.verbose)
            std::printf("  job %04d [%s / %s]: ran %zu stream(s) -> %s\n",
                        job.index, job.code.c_str(), job.policy.c_str(),
                        streams.size(), path.c_str());
    };

    // Job-level worker pool (ROADMAP "campaign-level parallelism"): jobs
    // are independent — each builds its own code/runner and writes its own
    // result file — so a grid of many small jobs scales by running several
    // at once on top of each job's stream/block scheduler.  Results are
    // files keyed by job index; execution order cannot affect them, and
    // the first failing job's exception propagates to the caller.
    parallel_for_dynamic(jobs.size(), pool_size,
                         [&](size_t i) { run_one_job(jobs[i]); });

    if (tracker != nullptr)
        tracker->finish();

    RunShardStats stats;
    stats.jobs_run = jobs_run.load();
    stats.jobs_resumed = jobs_resumed.load();
    return stats;
}

void
remove_results(const CampaignSpec& spec, int n_shards,
               const std::string& out_dir)
{
    for (const JobSpec& job : spec.expand()) {
        for (int shard = 0; shard < n_shards; ++shard) {
            std::remove(shard_result_path(out_dir, spec, job.index, shard,
                                          n_shards)
                            .c_str());
            std::remove(telemetry_path(out_dir, spec, job.index, shard,
                                       n_shards)
                            .c_str());
        }
        std::remove(merged_result_path(out_dir, spec, job.index).c_str());
        std::remove(heatmap_path(out_dir, spec, job.index).c_str());
    }
    for (int shard = 0; shard < n_shards; ++shard)
        std::remove(progress_path(out_dir, spec, shard, n_shards).c_str());
}

// --- merge. ---

std::vector<Metrics>
merge_campaign(const CampaignSpec& spec, int n_shards,
               const std::string& out_dir)
{
    check_shard_geometry(0, n_shards);
    std::vector<Metrics> merged;
    // Every job's shard files load before the first merged file is
    // written, so a refused file leaves no partial merge behind.
    std::vector<std::pair<std::string, std::string>> files;
    for (const JobSpec& job : spec.expand()) {
        const int total = ExperimentRunner::n_streams(job.cfg);
        std::vector<Metrics> parts(static_cast<size_t>(total));
        std::vector<uint8_t> seen(static_cast<size_t>(total), 0);

        for (int shard = 0; shard < n_shards; ++shard) {
            const std::string path =
                shard_result_path(out_dir, spec, job.index, shard, n_shards);
            if (!io::file_exists(path))
                throw std::runtime_error("merge: missing shard result " +
                                         path + " (run --shard " +
                                         std::to_string(shard) + "/" +
                                         std::to_string(n_shards) + " first)");
            read_job_file(
                "merge", path, "re-run that shard", [&](const Json& j) {
                const std::string who =
                    job_file_mismatch(j, spec, job, n_shards, shard);
                if (!who.empty())
                    throw std::runtime_error("belongs to a different job (" +
                                             who + ")");
                const Json& jstreams = j["streams"];
                for (size_t i = 0; i < jstreams.size(); ++i) {
                    const Json& entry = jstreams.at(i);
                    const int s = io::int_field(entry, "stream");
                    if (s < 0 || s >= total)
                        throw std::runtime_error("out-of-range stream " +
                                                 std::to_string(s));
                    if (seen[static_cast<size_t>(s)])
                        throw std::runtime_error(
                            "stream " + std::to_string(s) + " of job " +
                            std::to_string(job.index) +
                            " appears in two shard files");
                    seen[static_cast<size_t>(s)] = 1;
                    Metrics& part = parts[static_cast<size_t>(s)];
                    part = io::metrics_from_json(entry["metrics"]);
                    const std::string why = metrics_mismatch(
                        part, job.cfg,
                        ExperimentRunner::stream_shots(job.cfg, s));
                    if (!why.empty())
                        throw std::runtime_error(
                            "stream " + std::to_string(s) +
                            " contradicts job " + std::to_string(job.index) +
                            ": " + why);
                }
            });
        }
        for (int s = 0; s < total; ++s) {
            if (!seen[static_cast<size_t>(s)])
                throw std::runtime_error(
                    "merge: stream " + std::to_string(s) + " of job " +
                    std::to_string(job.index) + " missing from all shards");
        }

        // Ascending stream order — the exact summation order of run().
        Metrics m;
        if (total == 0)
            m.rounds_per_shot = job.cfg.rounds;
        for (const Metrics& part : parts)
            m.merge(part);

        Json out = job_file_header(spec, job, n_shards);
        out.set("metrics", io::metrics_to_json(m));
        files.emplace_back(merged_result_path(out_dir, spec, job.index),
                           out.dump(2) + "\n");
        merged.push_back(std::move(m));
    }
    for (const auto& file : files)
        io::write_file_atomic(file.first, file.second);
    return merged;
}

std::vector<Metrics>
load_merged(const CampaignSpec& spec, const std::string& out_dir)
{
    std::vector<Metrics> out;
    for (const JobSpec& job : spec.expand()) {
        const std::string path =
            merged_result_path(out_dir, spec, job.index);
        if (!io::file_exists(path))
            throw std::runtime_error("report: missing merged result " + path +
                                     " (run merge first)");
        read_job_file("report", path, "re-run merge", [&](const Json& j) {
            const std::string who =
                job_file_mismatch(j, spec, job, /*n_shards=*/0);
            if (!who.empty())
                throw std::runtime_error("belongs to a different job (" + who +
                                         ")");
            Metrics m = io::metrics_from_json(j["metrics"]);
            const std::string why =
                metrics_mismatch(m, job.cfg, job.cfg.shots);
            if (!why.empty())
                throw std::runtime_error("contradicts job " +
                                         std::to_string(job.index) + ": " +
                                         why);
            out.push_back(std::move(m));
        });
    }
    return out;
}

void
print_report(const CampaignSpec& spec, const std::string& out_dir,
             int n_shards)
{
    const std::vector<JobSpec> jobs = spec.expand();
    const std::vector<Metrics> metrics = load_merged(spec, out_dir);
    const bool telem_cols = n_shards > 0;
    std::vector<std::string> header = {"Job", "Code", "Policy", "p", "lr",
                                       "FN/shot", "FP/shot", "LRC/shot",
                                       "DLP", "LER"};
    if (telem_cols) {
        header.push_back("Wall(s)");
        header.push_back("Shots/s");
    }
    TablePrinter t(header);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec& job = jobs[i];
        const Metrics& m = metrics[i];
        std::vector<std::string> row = {
            std::to_string(job.index), job.code, job.policy,
            TablePrinter::sci(job.cfg.np.p, 1),
            TablePrinter::fmt(job.cfg.np.leak_ratio, 2),
            TablePrinter::fmt(m.fn_per_shot(), 2),
            TablePrinter::fmt(m.fp_per_shot(), 2),
            TablePrinter::fmt(m.lrc_per_shot(), 2),
            TablePrinter::sci(m.dlp_mean(), 2),
            m.decoded_shots > 0 ? TablePrinter::sci(m.ler(), 2) : "-"};
        if (telem_cols) {
            // Wall time and executed shots summed over the job's shard
            // telemetry files; "-" when none is usable.
            double wall_s = 0.0;
            double shots = 0.0;
            read_job_telemetry(
                spec, job, n_shards, out_dir, /*strict=*/false,
                [&](const Json& j) {
                    const int64_t wall_ns =
                        io::count_value(j["wall_ns"], "wall_ns");
                    shots += static_cast<double>(
                        io::count_value(j["shots"], "shots"));
                    wall_s += static_cast<double>(wall_ns) * 1e-9;
                });
            if (wall_s > 0.0) {
                row.push_back(TablePrinter::fmt(wall_s, 2));
                row.push_back(TablePrinter::fmt(shots / wall_s, 0));
            } else {
                row.push_back("-");
                row.push_back("-");
            }
        }
        t.add_row(std::move(row));
    }
    t.print();
}

// --- Liveness (status). ---

std::vector<ShardProgress>
read_progress(const CampaignSpec& spec, int n_shards,
              const std::string& out_dir)
{
    check_shard_geometry(0, n_shards);
    // A shard plans at most every job and, summed over its streams, at
    // most spec.shots shots of each.
    const int64_t plan_jobs = static_cast<int64_t>(spec.expand().size());
    const int64_t plan_shots = plan_jobs * spec.shots;
    std::vector<ShardProgress> out;
    for (int shard = 0; shard < n_shards; ++shard) {
        ShardProgress p;
        p.shard = shard;
        const std::string path =
            progress_path(out_dir, spec, shard, n_shards);
        if (io::file_exists(path)) {
            // Last COMPLETE line wins: a line being appended right now
            // may be torn, so scan from the end for the first parseable
            // one.
            const std::string text = io::read_file(path);
            size_t end = text.size();
            while (end > 0 && !p.valid) {
                size_t begin = text.rfind('\n', end - 1);
                begin = begin == std::string::npos ? 0 : begin + 1;
                const std::string line = text.substr(begin, end - begin);
                if (!line.empty()) {
                    try {
                        const Json j = Json::parse(line);
                        p.valid = true;
                        p.done = j["done"].as_bool();
                        const auto count = [](const Json& o,
                                              const std::string& key) {
                            return io::count_value(o[key], key);
                        };
                        p.jobs_done = count(j, "jobs_done");
                        p.jobs_resumed = count(j, "jobs_resumed");
                        p.jobs_total = count(j, "jobs_total");
                        p.shots_done = count(j, "shots_done");
                        p.shots_total = count(j, "shots_total");
                        p.wall_ns = static_cast<uint64_t>(count(j, "wall_ns"));
                        p.shots_per_second =
                            j["shots_per_second"].as_double();
                        const Json& js = j["stage_ns"];
                        for (int s = 0; s < telemetry::kStageCount; ++s)
                            p.stage_ns[s] = static_cast<uint64_t>(
                                count(js, telemetry::stage_name(s)));
                        // A line that contradicts itself or the plan is
                        // garbled too; the bounds also keep status's
                        // fleet sums far from overflow.
                        if (p.jobs_resumed > p.jobs_done ||
                            p.jobs_done > p.jobs_total ||
                            p.jobs_total > plan_jobs ||
                            p.shots_done > p.shots_total ||
                            p.shots_total > plan_shots ||
                            !std::isfinite(p.shots_per_second) ||
                            p.shots_per_second < 0.0)
                            throw std::runtime_error(
                                "progress line contradicts the plan");
                    } catch (const std::exception&) {
                        p.valid = false;  // torn/garbled: try previous
                    }
                }
                end = begin == 0 ? 0 : begin - 1;
            }
        }
        out.push_back(p);
    }
    return out;
}

void
print_status(const CampaignSpec& spec, int n_shards,
             const std::string& out_dir)
{
    const std::vector<ShardProgress> progress =
        read_progress(spec, n_shards, out_dir);
    TablePrinter t({"Shard", "State", "Jobs", "Shots", "%", "Shots/s",
                    "Wall(s)"});
    int64_t shots_done = 0, shots_total = 0, jobs_done = 0, jobs_total = 0;
    uint64_t stage_ns[telemetry::kStageCount] = {0, 0, 0, 0};
    int reporting = 0;
    for (const ShardProgress& p : progress) {
        if (!p.valid) {
            t.add_row({std::to_string(p.shard), "no data", "-", "-", "-",
                       "-", "-"});
            continue;
        }
        ++reporting;
        shots_done += p.shots_done;
        shots_total += p.shots_total;
        jobs_done += p.jobs_done;
        jobs_total += p.jobs_total;
        for (int s = 0; s < telemetry::kStageCount; ++s)
            stage_ns[s] += p.stage_ns[s];
        const double pct =
            p.shots_total > 0 ? 100.0 * static_cast<double>(p.shots_done) /
                                    static_cast<double>(p.shots_total)
                              : 100.0;
        t.add_row({std::to_string(p.shard), p.done ? "done" : "running",
                   std::to_string(p.jobs_done) + "/" +
                       std::to_string(p.jobs_total),
                   std::to_string(p.shots_done) + "/" +
                       std::to_string(p.shots_total),
                   TablePrinter::fmt(pct, 1),
                   TablePrinter::fmt(p.shots_per_second, 0),
                   TablePrinter::fmt(static_cast<double>(p.wall_ns) * 1e-9,
                                     1)});
    }
    t.print();

    const double pct =
        shots_total > 0 ? 100.0 * static_cast<double>(shots_done) /
                              static_cast<double>(shots_total)
                        : 0.0;
    std::printf("fleet: %d/%d shard(s) reporting, jobs %lld/%lld, shots "
                "%lld/%lld (%.1f%%)\n",
                reporting, n_shards, static_cast<long long>(jobs_done),
                static_cast<long long>(jobs_total),
                static_cast<long long>(shots_done),
                static_cast<long long>(shots_total), pct);
    uint64_t total_ns = 0;
    for (int s = 0; s < telemetry::kStageCount; ++s)
        total_ns += stage_ns[s];
    if (total_ns > 0) {
        std::printf("stage split:");
        for (int s = 0; s < telemetry::kStageCount; ++s)
            std::printf(" %s %.1f%%", telemetry::stage_name(s),
                        100.0 * static_cast<double>(stage_ns[s]) /
                            static_cast<double>(total_ns));
        std::printf("\n");
    }
}

// --- Heatmaps. ---

namespace {

/**
 * Sums `job`'s heatmaps over its shard telemetry files into `merged`;
 * false when no file carries one.  Refuses a file read_job_telemetry
 * refuses.
 */
bool
merge_heatmap_telemetry(const CampaignSpec& spec, const JobSpec& job,
                        int n_shards, const std::string& out_dir,
                        telemetry::Heatmap* merged)
{
    bool found = false;
    read_job_telemetry(spec, job, n_shards, out_dir, /*strict=*/true,
                       [&](const Json& j) {
                           if (!j.has("heatmap"))
                               return;
                           const telemetry::Heatmap h =
                               telemetry::Heatmap::from_json(j["heatmap"]);
                           if (found)
                               merged->merge(h);
                           else
                               *merged = h;
                           found = true;
                       });
    return found;
}

}  // namespace

telemetry::Heatmap
merge_job_heatmap(const CampaignSpec& spec, int n_shards,
                  const std::string& out_dir, int job_index)
{
    const std::vector<JobSpec> jobs = spec.expand();
    if (job_index < 0 || job_index >= static_cast<int>(jobs.size()))
        throw std::runtime_error("heatmap: job index " +
                                 std::to_string(job_index) +
                                 " outside [0, " +
                                 std::to_string(jobs.size()) + ")");
    telemetry::Heatmap merged;
    if (!merge_heatmap_telemetry(spec, jobs[static_cast<size_t>(job_index)],
                                 n_shards, out_dir, &merged))
        throw std::runtime_error(
            "heatmap: no shard telemetry carries a heatmap for job " +
            std::to_string(job_index) +
            " (run the campaign with --heatmap first)");
    return merged;
}

int
write_job_heatmaps(const CampaignSpec& spec, int n_shards,
                   const std::string& out_dir)
{
    const std::vector<JobSpec> jobs = spec.expand();
    // Every job's telemetry is read before the first heatmap file is
    // written, so a refused file leaves none behind.
    std::vector<std::pair<const JobSpec*, telemetry::Heatmap>> merged;
    for (const JobSpec& job : jobs) {
        telemetry::Heatmap h;
        if (merge_heatmap_telemetry(spec, job, n_shards, out_dir, &h))
            merged.emplace_back(&job, std::move(h));
    }
    if (merged.empty())
        throw std::runtime_error(
            "heatmap: no heatmap telemetry found for campaign \"" +
            spec.name + "\" in " + out_dir +
            " (run with --heatmap first)");
    for (const auto& [job, h] : merged) {
        const uint64_t leaked_qubit_rounds =
            std::accumulate(h.counts.begin(), h.counts.end(), uint64_t{0});
        Json out = job_file_header(spec, *job, n_shards);
        out.set("heatmap", h.to_json());
        const std::string path = heatmap_path(out_dir, spec, job->index);
        io::write_file_atomic(path, out.dump(2) + "\n");
        std::printf("merged heatmap job %04d [%s / %s]: %d round(s) x %d "
                    "qubit(s), %llu leaked qubit-rounds -> %s\n",
                    job->index, job->code.c_str(), job->policy.c_str(),
                    h.rounds, h.n_qubits(),
                    static_cast<unsigned long long>(leaked_qubit_rounds),
                    path.c_str());
    }
    return static_cast<int>(merged.size());
}

}  // namespace campaign
}  // namespace gld
