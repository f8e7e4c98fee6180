#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "campaign/campaign.h"
#include "campaign/registry.h"
#include "io/serialize.h"
#include "probes.h"
#include "telemetry/telemetry.h"

namespace gld {
namespace bench {

namespace {

/**
 * Set-up is timed kSetupReps times before the first pass and
 * kSetupRepsPerPass more after each pass, so the reported median samples
 * the host across the whole run, not only its first second.
 */
constexpr int kSetupReps = 11;
constexpr int kSetupRepsPerPass = 4;
/** Fewest timed passes a phase runs, whatever the time budget. */
constexpr size_t kMinPasses = 3;
/** Seconds the traced run keeps for its layer probes. */
constexpr double kProbeSeconds = 2.5;
/** Seed of the recorded reference rates. */
constexpr uint64_t kReferenceSeed = 0x5EEDBE4C4ull;
/** Reference runs use this many times a workload's shots. */
constexpr int kReferenceShotFactor = 4;

/**
 * A workload: its jobs, and for a campaign workload the spec they expand
 * from and its shard count.  Every config and seed comes from --seed.
 */
struct Workload {
    std::string name;
    std::vector<Job> jobs;
    bool is_campaign = false;
    campaign::CampaignSpec spec;
    int shards = 0;

    long shot_rounds() const
    {
        long sr = 0;
        for (const Job& j : jobs)
            sr += static_cast<long>(j.cfg.shots) * j.cfg.rounds;
        return sr;
    }
};

int
scaled(int shots, double scale)
{
    return std::max(16, static_cast<int>(std::lround(shots * scale)));
}

/**
 * Runner workloads: `codes` x `policies`, one seed per code (policies at
 * one code share noise realizations — the paper's paired design).
 */
Workload
runner_workload(const std::string& name,
                const std::vector<std::pair<std::string, int>>& codes,
                const std::vector<std::string>& policies,
                const ExperimentConfig& base, uint64_t seed)
{
    Workload w;
    w.name = name;
    for (size_t c = 0; c < codes.size(); ++c) {
        ExperimentConfig cfg = base;
        cfg.rounds = codes[c].second;
        cfg.seed = derive_seed(seed, c);
        for (const std::string& policy : policies)
            w.jobs.push_back({codes[c].first, policy, cfg});
    }
    return w;
}

Workload
campaign_workload(const std::string& name, campaign::CampaignSpec spec,
                  int shards, int threads)
{
    Workload w;
    w.name = name;
    w.is_campaign = true;
    w.shards = shards;
    for (const campaign::JobSpec& job : spec.expand()) {
        Job pj{job.code, job.policy, job.cfg};
        pj.cfg.threads = threads;
        w.jobs.push_back(pj);
    }
    w.spec = std::move(spec);
    return w;
}

Workload
make_workload(const std::string& name, uint64_t seed, double scale)
{
    const int threads = bench_threads();
    if (name == "ler_sweep" || name == "code_generality") {
        ExperimentConfig cfg;
        cfg.np = NoiseParams::standard(1e-3, 0.1);
        cfg.threads = threads;
        cfg.backend = SimBackend::kBatchFrame;
        cfg.noise_sampling = NoiseSampling::kSparse;
        if (name == "ler_sweep") {
            cfg.shots = scaled(8192, scale);
            cfg.compute_ler = true;
            return runner_workload(name, {{"surface:5", 50}, {"surface:7", 70}},
                                   {"no_lrc", "eraser_m", "gladiator_m"}, cfg,
                                   seed);
        }
        cfg.shots = scaled(4096, scale);
        cfg.leakage_sampling = true;
        return runner_workload(
            name,
            {{"surface:7", 100}, {"color:7", 100}, {"hgp_hamming", 100},
             {"bpc", 100}},
            {"eraser_m", "gladiator_m"}, cfg, seed);
    }
    campaign::CampaignSpec spec;
    spec.seed = derive_seed(seed, 0);
    if (name == "campaign_grid") {
        spec.name = "grid";
        spec.shots = scaled(2048, scale);
        spec.rounds = 30;
        spec.leakage_sampling = false;
        spec.compute_ler = true;
        spec.codes = {"surface:3", "surface:5", "surface:7"};
        spec.policies = {"no_lrc", "eraser_m", "gladiator_m",
                         "gladiator_d_m"};
        for (double p : {5e-4, 1e-3, 2e-3})
            spec.noise.push_back(NoiseParams::standard(p, 0.1));
        return campaign_workload(name, spec, 2, threads);
    }
    throw std::runtime_error("unknown workload \"" + name + "\"");
}

std::string
job_label(const Job& job)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " p=%g", job.cfg.np.p);
    return job.code + " / " + job.policy + buf;
}

/** Distinct codes of a workload, built once per set-up. */
using CodeMap =
    std::map<std::string, std::unique_ptr<campaign::CodeInstance>>;

/** Timed components of one set-up. */
struct SetupTimes {
    double total = 0.0;
    double make_code = 0.0;
    double runners = 0.0;  ///< ExperimentRunner construction (DEM build)
    double tables = 0.0;   ///< first call of each policy factory
};

/**
 * Everything a workload builds before its first shot: codes, one runner
 * per (code, config) and, per job, the policy factory after its first
 * call (which builds the gladiator pattern tables).  A campaign
 * workload also times the campaign's own validate and plan steps here.
 */
struct Setup {
    CodeMap codes;
    std::map<std::string, std::unique_ptr<ExperimentRunner>> runners;
    std::vector<ExperimentRunner*> job_runner;
    std::vector<PolicyFactory> factories;
    SetupTimes times;
};

std::string
runner_key(const Job& job)
{
    return job_key("", job.code, "", job.cfg) + "|" +
           io::u64_to_hex(job.cfg.seed);
}

std::unique_ptr<Setup>
build_setup(const Workload& w)
{
    auto s = std::make_unique<Setup>();
    const double t0 = now_s();
    for (const Job& job : w.jobs) {
        if (s->codes.count(job.code) == 0)
            s->codes[job.code] = campaign::make_code(job.code);
    }
    const double t1 = now_s();
    for (const Job& job : w.jobs) {
        std::unique_ptr<ExperimentRunner>& r = s->runners[runner_key(job)];
        if (r == nullptr)
            r = std::make_unique<ExperimentRunner>(s->codes[job.code]->ctx,
                                                   job.cfg);
        s->job_runner.push_back(r.get());
    }
    const double t2 = now_s();
    for (const Job& job : w.jobs) {
        PolicyFactory f = campaign::make_policy(job.policy, job.cfg.np);
        f(s->codes[job.code]->ctx, job.cfg.seed);
        s->factories.push_back(std::move(f));
    }
    const double t3 = now_s();
    if (w.is_campaign) {
        w.spec.validate();
        campaign::CampaignPlan::build(w.spec, w.shards);
    }
    const double t4 = now_s();
    s->times = {t4 - t0, t1 - t0, t2 - t1, t3 - t2};
    return s;
}

/** Times `reps` set-ups into `times`; returns the last one built. */
std::unique_ptr<Setup>
sample_setups(const Workload& w, int reps, std::vector<SetupTimes>* times)
{
    std::unique_ptr<Setup> s;
    for (int rep = 0; rep < reps; ++rep) {
        s.reset();
        s = build_setup(w);
        times->push_back(s->times);
    }
    return s;
}

/**
 * Runs `pass`, then more set-ups, until one more pass (plus `reserve`
 * passes) would overrun `deadline`; at least kMinPasses.
 */
template <class Pass>
std::vector<double>
timed_passes(Pass pass, const Workload& w, std::vector<SetupTimes>* setups,
             double deadline, double reserve_passes)
{
    std::vector<double> walls;
    for (;;) {
        walls.push_back(pass());
        sample_setups(w, kSetupRepsPerPass, setups);
        const double m = median(walls);
        if (walls.size() >= kMinPasses &&
            now_s() + m * (1.0 + reserve_passes) > deadline)
            return walls;
    }
}

void
print_walls(const char* what, const std::vector<double>& walls)
{
    double q1 = 0.0;
    double q3 = 0.0;
    quartiles(walls, &q1, &q3);
    std::printf("%s: %zu samples, median %.6f s (q1 %.6f, q3 %.6f, "
                "min %.6f, max %.6f)\n",
                what, walls.size(), median(walls), q1, q3,
                *std::min_element(walls.begin(), walls.end()),
                *std::max_element(walls.begin(), walls.end()));
}

/** Stage-time totals of a set of telemetry records. */
struct StageSums {
    double ns[telemetry::kStageCount] = {0, 0, 0, 0};
    double shot_rounds = 0.0;

    void add(const telemetry::Record& r)
    {
        for (int s = 0; s < telemetry::kStageCount; ++s)
            ns[s] += static_cast<double>(r.stage_ns[s]);
        shot_rounds += static_cast<double>(r.rounds);
    }
};

/** Every per-layer metric, zero where the workload has no such work. */
struct Layers {
    StageSums stages;
    double thread_speedup = 0.0;
    double observe_ns = 0.0;
    double observe_calls = 0.0;
    double table_build_s = 0.0;
    DecodeProbe decode;
    double dem_build_s = 0.0;
    double batch_ns = 0.0;
    double frame_ns = 0.0;
    double make_code_s = 0.0;
    double plan_s = 0.0;
    double run_shard_s = 0.0;
    double resume_s = 0.0;
    double merge_s = 0.0;
    double report_s = 0.0;
    double status_s = 0.0;
    double files = 0.0;
    double bytes = 0.0;
    double resumed_frac = 0.0;
    double trace_overhead_frac = 0.0;
};

/** Adds the per-layer metrics; false if the stage split is broken. */
bool
add_layers(const Layers& l, Sheet* sheet)
{
    double total = 0.0;
    for (int s = 0; s < telemetry::kStageCount; ++s)
        total += l.stages.ns[s];
    double frac_sum = 0.0;
    for (int s = 0; s < telemetry::kStageCount; ++s) {
        const double frac = total > 0 ? l.stages.ns[s] / total : 0.0;
        frac_sum += frac;
        sheet->add(std::string("runtime.stage_") + telemetry::stage_name(s) +
                       "_frac",
                   frac, "frac");
    }
    for (int s = 0; s < telemetry::kStageCount; ++s)
        sheet->add(std::string("runtime.") + telemetry::stage_name(s) +
                       "_ns_per_shot_round",
                   l.stages.shot_rounds > 0
                       ? l.stages.ns[s] / l.stages.shot_rounds
                       : 0.0,
                   "ns");
    sheet->add("runtime.thread_speedup_4", l.thread_speedup, "x");
    sheet->add("core.observe_ns", l.observe_ns, "ns");
    sheet->add("core.observe_calls", l.observe_calls, "count");
    sheet->add("core.table_build_s", l.table_build_s, "s");
    sheet->add("decode.ns_per_decode", l.decode.ns_per_decode, "ns");
    sheet->add("decode.quiet_syndrome_frac", l.decode.quiet_syndrome_frac,
               "frac");
    sheet->add("decode.defects_per_syndrome", l.decode.defects_per_syndrome,
               "count");
    sheet->add("decode.dem_build_s", l.dem_build_s, "s");
    sheet->add("sim.batch_ns_per_shot_round", l.batch_ns, "ns");
    sheet->add("sim.frame_ns_per_shot_round", l.frame_ns, "ns");
    sheet->add("codes.make_code_s", l.make_code_s, "s");
    sheet->add("campaign.plan_s", l.plan_s, "s");
    sheet->add("campaign.run_shard_s", l.run_shard_s, "s");
    sheet->add("campaign.resume_s", l.resume_s, "s");
    sheet->add("campaign.merge_s", l.merge_s, "s");
    sheet->add("campaign.report_s", l.report_s, "s");
    sheet->add("campaign.status_s", l.status_s, "s");
    sheet->add("campaign.resumed_frac", l.resumed_frac, "frac");
    sheet->add("io.files_written", l.files, "count");
    sheet->add("io.bytes_written", l.bytes, "B");
    sheet->add("bench.trace_overhead_frac", l.trace_overhead_frac, "frac");
    return total == 0.0 || std::fabs(frac_sum - 1.0) <= 0.01;
}

/** The probes every traced run makes on its workload's jobs. */
void
run_probes(const Workload& w, uint64_t seed, Layers* l)
{
    l->thread_speedup = thread_speedup(derive_seed(seed, 101), 1024);
    int decoded = 0;
    for (const Job& j : w.jobs)
        decoded += j.cfg.compute_ler ? 1 : 0;
    if (decoded > 0)
        l->decode = decode_probe(w.jobs, std::max(32, 1536 / decoded),
                                 derive_seed(seed, 102), 0.3);
    l->batch_ns = sim_probe_ns(w.jobs, true, derive_seed(seed, 103), 0.3);
    l->frame_ns = sim_probe_ns(w.jobs, false, derive_seed(seed, 104), 0.3);
}

void
add_end_to_end(double shot_rounds, const std::vector<double>& walls,
               const std::vector<SetupTimes>& setups, Sheet* sheet)
{
    std::vector<double> totals;
    for (const SetupTimes& t : setups)
        totals.push_back(t.total);
    print_walls("setup", totals);
    sheet->add("shot_rounds_per_s", shot_rounds / median(walls), "1/s");
    sheet->add("wall_s", median(walls), "s");
    sheet->add("setup_s", median(totals), "s");
    sheet->add("peak_rss_mib", peak_rss_mib(), "MiB");
}

/** Median of one field over a run's set-ups or passes. */
template <class T>
double
median_of(const std::vector<T>& xs, double T::*field)
{
    std::vector<double> v;
    for (const T& x : xs)
        v.push_back(x.*field);
    return median(v);
}

/**
 * The traced run's layer figures that every workload reports the same
 * way: the probes, the set-up components and the tracing overhead.
 */
void
add_common_layers(const Workload& w, uint64_t seed,
                  const std::vector<SetupTimes>& setups,
                  const std::vector<double>& walls,
                  const std::vector<double>& traced_walls, Layers* l)
{
    print_walls("traced", traced_walls);
    run_probes(w, seed, l);
    l->table_build_s = median_of(setups, &SetupTimes::tables);
    l->make_code_s = median_of(setups, &SetupTimes::make_code);
    if (w.jobs.front().cfg.compute_ler)
        l->dem_build_s = median_of(setups, &SetupTimes::runners);
    l->trace_overhead_frac = median(traced_walls) / median(walls) - 1.0;
}

/**
 * Output checks shared by both workload kinds: for every job, the first
 * timed pass's Metrics against `expected` (bit-identical), every later
 * pass against the first, and the banded check against the reference.
 */
void
check_jobs(const Workload& w, const std::vector<std::vector<Metrics>>& passes,
           const std::vector<Metrics>& expected, const char* expected_what,
           const CodeMap& codes, const Reference& ref, Outcome* out)
{
    BandCheck band(&ref);
    std::vector<std::string> why(w.jobs.size());
    for (size_t j = 0; j < w.jobs.size(); ++j) {
        const Job& job = w.jobs[j];
        const Metrics& first = passes.front()[j];
        const std::vector<std::string> d = metrics_bit_diff(first, expected[j]);
        if (!d.empty())
            why[j] += " differs from " + std::string(expected_what) + " (" +
                      d.front() + ");";
        for (size_t p = 1; p < passes.size(); ++p) {
            if (!metrics_bit_diff(first, passes[p][j]).empty()) {
                why[j] += " pass " + std::to_string(p) +
                          " differs from pass 0;";
                break;
            }
        }
        band.add(job_key(w.name, job.code, job.policy, job.cfg),
                 job_label(job), first, codes.at(job.code)->code,
                 job.cfg.compute_ler);
    }
    const std::vector<std::string> banded = band.evaluate();
    for (size_t j = 0; j < w.jobs.size(); ++j) {
        if (why[j].empty() && banded[j].empty()) {
            out->pass();
        } else {
            out->fail(banded[j].empty() ? job_label(w.jobs[j]) + ":" + why[j]
                                        : banded[j] + why[j]);
        }
    }
}

// --- Runner workloads (ler_sweep, code_generality). ---

bool
run_runner_workload(const Workload& w, const RunOptions& opt,
                    const Reference& ref, Sheet* sheet, Outcome* out)
{
    const double t_start = now_s();
    std::vector<SetupTimes> setups;
    const std::unique_ptr<Setup> s = sample_setups(w, kSetupReps, &setups);

    std::vector<std::vector<Metrics>> passes;
    const auto untraced = [&] {
        std::vector<Metrics> ms;
        const double t0 = now_s();
        for (size_t j = 0; j < w.jobs.size(); ++j)
            ms.push_back(s->job_runner[j]->run(s->factories[j]));
        const double wall = now_s() - t0;
        passes.push_back(std::move(ms));
        return wall;
    };

    Layers l;
    auto counters = std::make_shared<ObserveCounters>();
    const auto traced = [&] {
        std::vector<Metrics> ms;
        const double t0 = now_s();
        for (size_t j = 0; j < w.jobs.size(); ++j) {
            ExperimentRunner* runner = s->job_runner[j];
            telemetry::Collector col;
            runner->set_telemetry(&col);
            ms.push_back(
                runner->run(timed_factory(s->factories[j], counters)));
            runner->set_telemetry(nullptr);
            l.stages.add(col.merged());
        }
        const double wall = now_s() - t0;
        passes.push_back(std::move(ms));
        return wall;
    };

    std::vector<double> walls;
    std::vector<double> traced_walls;
    if (!opt.trace) {
        walls = timed_passes(untraced, w, &setups, t_start + opt.seconds,
                             1.0);
    } else {
        walls = timed_passes(untraced, w, &setups,
                             t_start + 0.5 * (opt.seconds - kProbeSeconds),
                             0.0);
        traced_walls =
            timed_passes(traced, w, &setups,
                         t_start + opt.seconds - kProbeSeconds, 1.0);
    }
    print_walls("untraced", walls);

    // Shard-split referee: the even and odd RNG streams as two
    // run_partials calls, merged in ascending stream order.
    std::vector<Metrics> split;
    for (size_t j = 0; j < w.jobs.size(); ++j) {
        const ExperimentRunner& runner = *s->job_runner[j];
        const int n = ExperimentRunner::n_streams(runner.config());
        std::vector<int> half[2];
        for (int st = 0; st < n; ++st)
            half[st % 2].push_back(st);
        std::vector<Metrics> parts(static_cast<size_t>(n));
        for (int h = 0; h < 2; ++h) {
            const std::vector<Metrics> p =
                runner.run_partials(s->factories[j], half[h]);
            for (size_t i = 0; i < p.size(); ++i)
                parts[static_cast<size_t>(half[h][i])] = p[i];
        }
        Metrics m;
        for (const Metrics& part : parts)
            m.merge(part);
        split.push_back(m);
    }
    check_jobs(w, passes, split, "the shard-split run_partials merge",
               s->codes, ref, out);

    const double shot_rounds = static_cast<double>(w.shot_rounds());
    if (!opt.trace) {
        add_end_to_end(shot_rounds, walls, setups, sheet);
        return true;
    }
    add_common_layers(w, opt.seed, setups, walls, traced_walls, &l);
    const double calls = static_cast<double>(counters->calls.load());
    l.observe_calls = calls / static_cast<double>(traced_walls.size());
    l.observe_ns = calls > 0 ? static_cast<double>(counters->ns.load()) / calls
                             : 0.0;
    bool ok = add_layers(l, sheet);
    if (l.observe_calls != shot_rounds) {
        std::printf("TRACE: observe calls per pass %.0f != shot-rounds %.0f\n",
                    l.observe_calls, shot_rounds);
        ok = false;
    }
    return ok;
}

// --- The campaign workload (campaign_grid). ---

/** Removes a directory tree when it goes out of scope. */
struct ScopedDir {
    std::string path;
    explicit ScopedDir(std::string p) : path(std::move(p))
    {
        remove_tree(path);
        io::make_dirs(path);
    }
    ~ScopedDir() { remove_tree(path); }
};

struct CampaignPass {
    double wall = 0.0;
    double plan = 0.0;
    double run_shard = 0.0;
    double resume = 0.0;
    double merge = 0.0;
    double report = 0.0;
    double status = 0.0;
    std::vector<Metrics> merged;
    campaign::RunShardStats resumed;
    long report_lines = 0;
    long files = 0;
    long bytes = 0;
};

long
count_lines(const std::string& path)
{
    std::ifstream in(path);
    long n = 0;
    std::string line;
    while (std::getline(in, line))
        ++n;
    return n;
}

/**
 * One pass, timed from plan through both shards, the resume pass, merge,
 * report and status; the report and status tables go to files beside
 * the result directory.
 */
CampaignPass
campaign_pass(const Workload& w, const std::string& dir, int threads)
{
    const campaign::CampaignSpec& spec = w.spec;
    const int n = w.shards;
    campaign::RunShardOptions ropt;
    ropt.threads = threads;  // jobs one after another, as `run` does
    CampaignPass p;
    const std::string out = dir + "/out";
    const double t0 = now_s();
    campaign::CampaignPlan::build(spec, n);
    const double t1 = now_s();
    for (int shard = 0; shard < n; ++shard)
        campaign::run_shard(spec, shard, n, out, ropt);
    const double t2 = now_s();
    p.resumed = campaign::run_shard(spec, 0, n, out, ropt);
    const double t3 = now_s();
    p.merged = campaign::merge_campaign(spec, n, out);
    const double t4 = now_s();
    {
        StdoutToFile to(dir + "/report.txt");
        campaign::print_report(spec, out, n);
    }
    const double t5 = now_s();
    {
        StdoutToFile to(dir + "/status.txt");
        campaign::print_status(spec, n, out);
    }
    const double t6 = now_s();
    p.wall = t6 - t0;
    p.plan = t1 - t0;
    p.run_shard = t2 - t1;
    p.resume = t3 - t2;
    p.merge = t4 - t3;
    p.report = t5 - t4;
    p.status = t6 - t5;
    p.report_lines = count_lines(dir + "/report.txt");
    return p;
}

bool
run_campaign_workload(const Workload& w, const RunOptions& opt,
                      const Reference& ref, Sheet* sheet, Outcome* out)
{
    const double t_start = now_s();
    const int threads = bench_threads();
    std::vector<SetupTimes> setups;
    const std::unique_ptr<Setup> s = sample_setups(w, kSetupReps, &setups);

    const ScopedDir root(opt.work_dir + "/" + w.name + "-" +
                         std::to_string(::getpid()));
    std::vector<CampaignPass> passes;
    Layers l;
    const auto one_pass = [&](bool traced) {
        const std::string dir =
            root.path + "/pass" + std::to_string(passes.size());
        const ScopedDir pass_dir(dir);
        CampaignPass p = campaign_pass(w, dir, threads);
        if (traced) {
            // Outside the timed window: what the pass left on disk, and
            // the stage split of the per-job telemetry exports.
            count_files(dir + "/out", &p.files, &p.bytes);
            // Not a throughput source: the resume pass rewrites shard 0's
            // heartbeat with every resumed shot counted against its own
            // near-zero wall (a known defect of `status`).
            const campaign::ShardProgress prog = campaign::read_progress(
                w.spec, w.shards, dir + "/out")[0];
            std::printf("  status after resume (ignored): shard 0 reports "
                        "%.0f shots/s over %.4f s\n",
                        prog.shots_per_second,
                        static_cast<double>(prog.wall_ns) * 1e-9);
            for (size_t j = 0; j < w.jobs.size(); ++j) {
                for (int shard = 0; shard < w.shards; ++shard) {
                    const std::string path = campaign::telemetry_path(
                        dir + "/out", w.spec, static_cast<int>(j), shard,
                        w.shards);
                    if (io::file_exists(path))
                        l.stages.add(telemetry::Record::from_json(
                            io::Json::parse(io::read_file(path))));
                }
            }
        }
        std::printf("  pass %zu%s: %.4f s = plan %.4f + run_shard %.4f + "
                    "resume %.4f + merge %.4f + report %.4f + status %.4f\n",
                    passes.size(), traced ? " (traced)" : "", p.wall, p.plan,
                    p.run_shard, p.resume, p.merge, p.report, p.status);
        passes.push_back(std::move(p));
        return passes.back().wall;
    };

    std::vector<double> walls;
    std::vector<double> traced_walls;
    if (!opt.trace) {
        walls = timed_passes([&] { return one_pass(false); }, w, &setups,
                             t_start + opt.seconds, 1.0);
    } else {
        walls = timed_passes([&] { return one_pass(false); }, w, &setups,
                             t_start + 0.5 * (opt.seconds - kProbeSeconds),
                             0.0);
        traced_walls = timed_passes([&] { return one_pass(true); }, w,
                                    &setups,
                                    t_start + opt.seconds - kProbeSeconds,
                                    1.0);
    }
    print_walls("untraced", walls);

    // Each merged job against a single-process run() of its JobSpec.
    std::vector<Metrics> single;
    for (const Job& job : w.jobs) {
        const ExperimentRunner runner(s->codes.at(job.code)->ctx, job.cfg);
        single.push_back(
            runner.run(campaign::make_policy(job.policy, job.cfg.np)));
    }
    std::vector<std::vector<Metrics>> merged;
    for (const CampaignPass& p : passes)
        merged.push_back(p.merged);
    check_jobs(w, merged, single, "single-process run()", s->codes, ref,
               out);
    // The printed report must hold a row per job; a resume pass must
    // skip every job of its shard.
    bool report_ok = true;
    bool resume_ok = true;
    for (const CampaignPass& p : passes) {
        report_ok = report_ok &&
                    p.report_lines >= static_cast<long>(w.jobs.size());
        resume_ok = resume_ok && p.resumed.jobs_run == 0 &&
                    p.resumed.jobs_resumed ==
                        static_cast<int>(w.jobs.size());
    }
    if (report_ok)
        out->pass();
    else
        out->fail("report: fewer rows than jobs");
    if (resume_ok)
        out->pass();
    else
        out->fail("resume: a valid shard result was recomputed");

    const double shot_rounds = static_cast<double>(w.shot_rounds());
    if (!opt.trace) {
        add_end_to_end(shot_rounds, walls, setups, sheet);
        return true;
    }
    add_common_layers(w, opt.seed, setups, walls, traced_walls, &l);
    l.plan_s = median_of(passes, &CampaignPass::plan);
    l.run_shard_s = median_of(passes, &CampaignPass::run_shard);
    l.resume_s = median_of(passes, &CampaignPass::resume);
    l.merge_s = median_of(passes, &CampaignPass::merge);
    l.report_s = median_of(passes, &CampaignPass::report);
    l.status_s = median_of(passes, &CampaignPass::status);
    const CampaignPass& last = passes.back();
    l.files = static_cast<double>(last.files);
    l.bytes = static_cast<double>(last.bytes);
    l.resumed_frac = static_cast<double>(last.resumed.jobs_resumed) /
                         static_cast<double>(last.resumed.jobs_resumed +
                                             last.resumed.jobs_run);
    return add_layers(l, sheet);
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {
        "ler_sweep", "code_generality", "campaign_grid"};
    return names;
}

bool
run_workload(const RunOptions& opt, const Reference& ref, Sheet* sheet,
             Outcome* out)
{
    const Workload w = make_workload(opt.workload, opt.seed, opt.scale);
    std::printf("workload %s: %zu job(s), %ld shot-rounds per pass\n",
                w.name.c_str(), w.jobs.size(), w.shot_rounds());
    return w.is_campaign ? run_campaign_workload(w, opt, ref, sheet, out)
                         : run_runner_workload(w, opt, ref, sheet, out);
}

void
record_reference(const std::string& path)
{
    Reference ref;
    for (const std::string& name : workload_names()) {
        const Workload w =
            make_workload(name, kReferenceSeed, kReferenceShotFactor);
        CodeMap codes;
        for (size_t j = 0; j < w.jobs.size(); ++j) {
            const Job& job = w.jobs[j];
            if (codes.count(job.code) == 0)
                codes[job.code] = campaign::make_code(job.code);
            ExperimentConfig cfg = job.cfg;
            cfg.seed = derive_seed(kReferenceSeed, j);
            const campaign::CodeInstance& ci = *codes[job.code];
            const ExperimentRunner runner(ci.ctx, cfg);
            const Metrics m =
                runner.run(campaign::make_policy(job.policy, cfg.np));
            for (const auto& kv :
                 refereed_rates(m, ci.code, cfg.compute_ler))
                ref.put(job_key(name, job.code, job.policy, job.cfg),
                        kv.first, kv.second);
        }
        std::printf("reference: %s, %zu job(s)\n", name.c_str(),
                    w.jobs.size());
    }
    io::write_file_atomic(path, ref.to_json().dump(1) + "\n");
}

}  // namespace bench
}  // namespace gld
