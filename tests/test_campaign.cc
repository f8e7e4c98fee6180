// Campaign subsystem: grid expansion, shard planning, checkpoint/resume,
// and the acceptance contract — plan/run over 3 shards + merge is
// BIT-identical to the equivalent single-process ExperimentRunner::run().

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/registry.h"
#include "io/serialize.h"
#include "metrics_test_util.h"
#include "util/config.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace gld {
namespace campaign {
namespace {

using test::expect_bits_eq;
using test::expect_metrics_identical;

CampaignSpec
small_spec(const std::string& name)
{
    CampaignSpec spec;
    spec.name = name;
    spec.seed = 0xCAFE5EED1234ull;
    spec.shots = 45;  // not divisible by rng_streams: exercises the
    spec.rounds = 7;  // uneven per-stream shot partition
    spec.rng_streams = 8;
    spec.leakage_sampling = true;
    spec.compute_ler = true;
    spec.record_dlp_series = true;
    spec.codes = {"surface:3"};
    spec.policies = {"eraser_m", "gladiator_m"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1)};
    return spec;
}

/** run_shard options with telemetry off, `threads` threads per job. */
RunShardOptions
untraced(int threads)
{
    RunShardOptions opt;
    opt.threads = threads;
    opt.telemetry = false;
    return opt;
}

/** `text` with the integer after the first `"key":` replaced by `value`. */
std::string
with_count(const std::string& text, const std::string& key,
           const std::string& value)
{
    const size_t at = text.find("\"" + key + "\":");
    if (at == std::string::npos)
        throw std::runtime_error("no \"" + key + "\" in the fixture");
    const size_t begin = text.find_first_of("-0123456789", at);
    const size_t end = text.find_first_not_of("-0123456789", begin);
    return text.substr(0, begin) + value + text.substr(end);
}

std::string
fresh_dir(const std::string& tag)
{
    // Unique per test-binary execution: checkpoint files persist on disk
    // by design, so a rerun reusing yesterday's directory would resume
    // (valid results!) where these tests assert a cold start.
    return ::testing::TempDir() + "gld_campaign_" +
           std::to_string(::getpid()) + "_" + tag;
}

TEST(CampaignSpec, ExpandIsDeterministicWithDistinctSeeds)
{
    CampaignSpec spec = small_spec("expand");
    spec.codes = {"surface:3", "color:5"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1),
                  NoiseParams::standard(2e-3, 0.1)};
    const std::vector<JobSpec> a = spec.expand();
    const std::vector<JobSpec> b = spec.expand();
    ASSERT_EQ(a.size(), 2u * 2u * 2u);
    std::set<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, static_cast<int>(i));
        EXPECT_EQ(a[i].code, b[i].code);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(a[i].cfg.seed, b[i].cfg.seed);
        EXPECT_EQ(a[i].cfg.seed, spec.job_seed(a[i].index));
        seeds.insert(a[i].cfg.seed);
    }
    // Default paired design: every policy at a (code, noise) grid point
    // shares one seed (identical noise realizations), and the seeds of
    // different grid points are pairwise distinct.
    EXPECT_EQ(seeds.size(), a.size() / spec.policies.size());
    EXPECT_EQ(a[0].cfg.seed, a[1].cfg.seed);
    EXPECT_NE(a[0].cfg.seed, a[2].cfg.seed);
    // Unpaired: every job gets its own seed.
    spec.pair_policy_seeds = false;
    const std::vector<JobSpec> u = spec.expand();
    std::set<uint64_t> useeds;
    for (const JobSpec& job : u)
        useeds.insert(job.cfg.seed);
    EXPECT_EQ(useeds.size(), u.size());
    // Grid order contract: codes outer, noise middle, policies inner.
    EXPECT_EQ(a[0].code, "surface:3");
    EXPECT_EQ(a[0].policy, "eraser_m");
    EXPECT_EQ(a[1].policy, "gladiator_m");
    expect_bits_eq(a[2].cfg.np.p, 2e-3, "noise grid order");
    EXPECT_EQ(a[4].code, "color:5");
}

TEST(CampaignSpec, JsonRoundTripPreservesJobsAndHashes)
{
    CampaignSpec spec = small_spec("json");
    spec.codes = {"surface:3", "hgp_hamming"};
    const CampaignSpec back =
        CampaignSpec::from_json(io::Json::parse(spec.to_json().dump(2)));
    const std::vector<JobSpec> a = spec.expand();
    const std::vector<JobSpec> b = back.expand();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].code, b[i].code);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(io::config_hash(a[i].cfg), io::config_hash(b[i].cfg));
    }
}

TEST(CampaignSpec, ValidationRejectsBadNames)
{
    CampaignSpec spec = small_spec("bad");
    spec.policies = {"eraser_m", "definitely_not_a_policy"};
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad2");
    spec.codes = {"surface:4"};  // even distance
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad2b");
    // Fixed-construction family: a distance suffix would fake a sweep.
    spec.codes = {"hgp_hamming:3"};
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad3");
    spec.codes.clear();
    EXPECT_THROW(spec.expand(), std::runtime_error);
    EXPECT_NO_THROW(small_spec("good").validate());
}

TEST(CampaignSpec, ValidationRejectsFewerThanOneRound)
{
    for (SimBackend b : known_backends()) {
        for (int rounds : {0, -1}) {
            SCOPED_TRACE(std::string(backend_name(b)) + " rounds=" +
                         std::to_string(rounds));
            CampaignSpec spec = small_spec("rounds");
            spec.backend = b;
            spec.rounds = rounds;
            spec.compute_ler = true;
            EXPECT_THROW(spec.validate(), std::invalid_argument);
        }
    }
}

// Hostile noise values: an out-of-range field must be refused, naming
// the field, both by the spec loader (io::noise_from_json) and by
// CampaignSpec::validate on a spec built in memory.  One case per field.
struct NoiseFieldCase {
    const char* field;
    double NoiseParams::*member;
    std::vector<double> bad;
    std::vector<double> good;  ///< range edges that must still load
};

class NoiseFieldRange : public ::testing::TestWithParam<NoiseFieldCase> {};

TEST_P(NoiseFieldRange, RefusedByLoaderAndValidate)
{
    const NoiseFieldCase& fc = GetParam();
    for (double v : fc.bad) {
        SCOPED_TRACE(v);
        CampaignSpec spec = small_spec("hostile");
        spec.noise.front().*fc.member = v;
        // JSON has no NaN, so a NaN only reaches validate.
        const int paths = std::isfinite(v) ? 2 : 1;
        for (int path = 0; path < paths; ++path) {
            try {
                if (path == 0)
                    spec.validate();
                else
                    CampaignSpec::from_json(
                        io::Json::parse(spec.to_json().dump()));
                ADD_FAILURE() << "accepted " << fc.field << " = " << v;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(fc.field),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    for (double v : fc.good) {
        SCOPED_TRACE(v);
        CampaignSpec spec = small_spec("edge");
        spec.noise.front().*fc.member = v;
        EXPECT_NO_THROW(spec.validate());
        EXPECT_NO_THROW(CampaignSpec::from_json(
            io::Json::parse(spec.to_json().dump())));
    }
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    HostileNoise, NoiseFieldRange,
    ::testing::Values(
        NoiseFieldCase{"p", &NoiseParams::p, {-0.5, 1.5, kNaN}, {0.0, 1.0}},
        NoiseFieldCase{"mobility", &NoiseParams::mobility, {7.0, -0.1},
                       {0.0, 1.0}},
        NoiseFieldCase{"lrc_leak_prob", &NoiseParams::lrc_leak_prob,
                       {-1e-3, 1.01}, {0.0, 1.0}},
        NoiseFieldCase{"leak_ratio", &NoiseParams::leak_ratio, {-0.1},
                       {0.0, 1e6}},
        NoiseFieldCase{"mlr_ratio", &NoiseParams::mlr_ratio, {-1.0},
                       {0.0, 1e6}},
        NoiseFieldCase{"lrc_gate_factor", &NoiseParams::lrc_gate_factor,
                       {-3.0}, {0.0, 1e6}}),
    [](const ::testing::TestParamInfo<NoiseFieldCase>& tp) {
        return std::string(tp.param.field);
    });

// Hostile integers: an int field outside int's range is refused by the
// spec loader, never narrowed.  Narrowed, "rounds": 4294967301 plans 5
// rounds and "batch_words": 4294967297 runs at K = 1 under K = 1's hash.
TEST(CampaignSpec, LoaderRefusesIntegersOutsideInt)
{
    CampaignSpec spec = small_spec("wide");
    spec.batch_words = 2;  // so the document carries the field
    for (const char* key : {"shots", "rounds", "rng_streams", "batch_words"}) {
        for (int64_t v : {(int64_t{1} << 32) + 1, -(int64_t{1} << 32)}) {
            SCOPED_TRACE(std::string(key) + " = " + std::to_string(v));
            io::Json j = spec.to_json();
            j.set(key, io::Json::integer(v));
            try {
                CampaignSpec::from_json(io::Json::parse(j.dump()));
                ADD_FAILURE() << "accepted";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                    << e.what();
                EXPECT_NE(std::string(e.what()).find("does not fit in int"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

// A spec naming a backend this build does not have (batch_tableau) is
// refused with the known-backends list, never mapped to another engine.
TEST(CampaignSpec, LoaderRefusesAnUnknownBackend)
{
    io::Json j = small_spec("stale").to_json();
    j.set("backend", io::Json::str("batch_tableau"));
    try {
        CampaignSpec::from_json(j);
        ADD_FAILURE() << "accepted backend batch_tableau";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"batch_tableau\""), std::string::npos) << what;
        EXPECT_NE(what.find("known backends: frame, tableau, batch_frame"),
                  std::string::npos)
            << what;
    }
}

TEST(CostModel, JobCostUnitsWeighShotsRoundsAndBackend)
{
    CampaignSpec spec = small_spec("cost");
    const std::vector<JobSpec> frame_jobs = spec.expand();
    spec.backend = SimBackend::kTableau;
    const std::vector<JobSpec> tableau_jobs = spec.expand();

    const int nq = make_code(frame_jobs[0].code)->code.n_qubits();
    ASSERT_GT(nq, 8);  // surface:3 = 17 qubits: the tableau factor bites

    // Frame: one cost unit per shot-round, exactly.
    EXPECT_DOUBLE_EQ(job_cost_units(frame_jobs[0], nq, /*shots=*/45),
                     45.0 * 7.0);
    // Tableau: the same job costs the backend factor more — that is the
    // whole point of backend-aware plan output.
    const double factor = backend_cost_factor(SimBackend::kTableau, nq);
    EXPECT_GT(factor, 1.0);
    EXPECT_DOUBLE_EQ(job_cost_units(tableau_jobs[0], nq, 45),
                     45.0 * 7.0 * factor);
    // Linear in the shard's shot share (what `plan` sums per shard).
    EXPECT_DOUBLE_EQ(job_cost_units(tableau_jobs[0], nq, 15),
                     job_cost_units(tableau_jobs[0], nq, 45) / 3.0);
    EXPECT_DOUBLE_EQ(job_cost_units(frame_jobs[0], nq, 0), 0.0);
}

TEST(ShardPlan, ValidateRefusesShardsOutsideThePlan)
{
    // The stream partition itself is CampaignPlan's (pinned by
    // CampaignPlan.PartitionsEveryStreamExactlyOnceAndDeterministically);
    // ShardPlan only validates shard indices.
    EXPECT_NO_THROW(ShardPlan::validate(0, 1));
    EXPECT_NO_THROW(ShardPlan::validate(2, 3));
    EXPECT_THROW(ShardPlan::validate(-1, 3), std::runtime_error);
    EXPECT_THROW(ShardPlan::validate(3, 3), std::runtime_error);
    EXPECT_THROW(ShardPlan::validate(0, 0), std::runtime_error);
}

// --- CampaignPlan: deterministic cost-balanced LPT assignment. ---

TEST(CampaignPlan, PartitionsEveryStreamExactlyOnceAndDeterministically)
{
    CampaignSpec spec = small_spec("plan_exact");
    spec.codes = {"surface:3", "color:5"};
    const std::vector<JobSpec> jobs = spec.expand();
    for (int n_shards : {1, 2, 3, 5}) {
        SCOPED_TRACE(n_shards);
        const CampaignPlan plan = CampaignPlan::build(spec, n_shards);
        const CampaignPlan again = CampaignPlan::build(spec, n_shards);
        for (const JobSpec& job : jobs) {
            const int total = ExperimentRunner::n_streams(job.cfg);
            std::vector<int> seen(static_cast<size_t>(total), 0);
            for (int shard = 0; shard < n_shards; ++shard) {
                const std::vector<int>& ss =
                    plan.streams_for(job.index, shard);
                // Identical across independent builds (every process
                // computes the same plan without communicating).
                EXPECT_EQ(ss, again.streams_for(job.index, shard));
                EXPECT_TRUE(std::is_sorted(ss.begin(), ss.end()));
                for (int s : ss) {
                    ASSERT_GE(s, 0);
                    ASSERT_LT(s, total);
                    ++seen[static_cast<size_t>(s)];
                }
            }
            for (int s = 0; s < total; ++s)
                EXPECT_EQ(seen[static_cast<size_t>(s)], 1)
                    << "job " << job.index << " stream " << s;
        }
    }
}

TEST(CampaignPlan, LptBalancesMixedBackendCosts)
{
    // Two campaigns' worth of heterogeneity in one: a tableau job costs
    // ~n^2/64 x a frame job per stream, so round-robin by stream id
    // would load shard 0 and shard 1 equally ONLY in expectation.  The
    // LPT plan's cost spread must be bounded by one item (the classic
    // LPT guarantee: max load <= min load + max item).
    CampaignSpec frame_spec = small_spec("plan_frame");
    frame_spec.compute_ler = false;
    for (SimBackend b :
         {SimBackend::kFrame, SimBackend::kTableau,
          SimBackend::kBatchFrame}) {
        SCOPED_TRACE(backend_name(b));
        CampaignSpec spec = frame_spec;
        spec.backend = b;
        const int n_shards = 3;
        const CampaignPlan plan = CampaignPlan::build(spec, n_shards);
        double max_cost = plan.shard_cost_units[0];
        double min_cost = plan.shard_cost_units[0];
        double max_item = 0.0;
        const std::vector<JobSpec> jobs = spec.expand();
        for (const JobSpec& job : jobs) {
            const double factor = backend_cost_factor(
                b, plan.job_qubits[static_cast<size_t>(job.index)]);
            for (int s = 0;
                 s < ExperimentRunner::n_streams(job.cfg); ++s) {
                const double c =
                    ExperimentRunner::stream_shots(job.cfg, s) *
                    static_cast<double>(job.cfg.rounds) * factor;
                max_item = std::max(max_item, c);
            }
        }
        for (double c : plan.shard_cost_units) {
            max_cost = std::max(max_cost, c);
            min_cost = std::min(min_cost, c);
        }
        EXPECT_LE(max_cost, min_cost + max_item + 1e-9)
            << max_cost << " vs " << min_cost;
        EXPECT_GT(max_cost, 0.0);
    }
}

TEST(CampaignPlan, ShardMergeStaysBitIdenticalUnderLpt)
{
    // The LPT assignment must not perturb the merge contract: running
    // every shard's planned stream set and merging reproduces run()
    // exactly, for a shard count that forces uneven stream splits.
    const CampaignSpec spec = small_spec("plan_merge");
    const int n_shards = 3;
    const std::string dir = fresh_dir("plan_merge");
    for (int shard = 0; shard < n_shards; ++shard)
        run_shard(spec, shard, n_shards, dir, untraced(2));
    const std::vector<Metrics> merged =
        merge_campaign(spec, n_shards, dir);

    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(merged.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].policy);
        auto code = make_code(jobs[i].code);
        const ExperimentRunner runner(code->ctx, jobs[i].cfg);
        const Metrics direct =
            runner.run(make_policy(jobs[i].policy, jobs[i].cfg.np));
        expect_metrics_identical(direct, merged[i]);
    }
}

TEST(Merge, ExactlyRepresentableTotalsAreAssociative)
{
    // Metric totals are counter-like sums of small rationals; for
    // integer-valued doubles IEEE addition is exact, so any grouping of
    // merges must agree bit-for-bit.  (Arbitrary-double grouping is NOT
    // associative — which is exactly why merge_campaign folds partials
    // in ascending stream order rather than per-shard.)
    const auto mk = [](long shots, double fn, double dlp, long err) {
        Metrics m;
        m.shots = shots;
        m.rounds_per_shot = 7;
        m.fn_total = fn;
        m.dlp_total = dlp;
        m.logical_errors = err;
        m.dlp_series = {fn, dlp};
        return m;
    };
    const Metrics a = mk(10, 3, 7, 1);
    const Metrics b = mk(20, 5, 11, 0);
    const Metrics c = mk(15, 8, 2, 2);

    Metrics ab = a;
    ab.merge(b);
    Metrics ab_c = ab;
    ab_c.merge(c);

    Metrics bc = b;
    bc.merge(c);
    Metrics a_bc = a;
    a_bc.merge(bc);

    expect_metrics_identical(ab_c, a_bc);
    EXPECT_EQ(ab_c.shots, 45);
    expect_bits_eq(ab_c.fn_total, 16.0, "fn sum");
}

TEST(Merge, StreamOrderedFoldMatchesRunFoldForAnyGrouping)
{
    // The load-bearing property behind shard-then-merge: reassembling
    // per-stream partials in ascending stream order gives run()'s exact
    // left-fold, no matter how streams were grouped into shards.
    const auto code = make_code("surface:3");
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 6;
    cfg.shots = 29;
    cfg.seed = 0xFEED5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 8;
    const ExperimentRunner runner(code->ctx, cfg);
    const PolicyFactory factory = PolicyZoo::eraser(true);

    const Metrics direct = runner.run(factory);

    // "Shards" of streams in scrambled request order.
    const std::vector<std::vector<int>> groups = {{5, 1}, {0, 6, 3}, {7, 2, 4}};
    std::vector<Metrics> by_stream(8);
    for (const std::vector<int>& g : groups) {
        const std::vector<Metrics> parts = runner.run_partials(factory, g);
        for (size_t i = 0; i < g.size(); ++i)
            by_stream[static_cast<size_t>(g[i])] = parts[i];
    }
    Metrics merged;
    for (const Metrics& part : by_stream)
        merged.merge(part);
    expect_metrics_identical(direct, merged);
}

// The subsystem's acceptance criterion, end to end through the library
// the CLI drives: plan (expand) -> run --shard {0,1,2}/3 (checkpoint
// files in a scratch dir) -> merge -> bit-identical to single-process
// ExperimentRunner::run() for every job of the campaign.
TEST(ShardEquivalence, ThreeShardsMergeBitIdenticalToSingleProcess)
{
    const CampaignSpec spec = small_spec("equiv");
    const std::string dir = fresh_dir("equiv");
    const int n_shards = 3;

    for (int shard = 0; shard < n_shards; ++shard) {
        const RunShardStats stats =
            run_shard(spec, shard, n_shards, dir, untraced(2));
        EXPECT_EQ(stats.jobs_run, 2);
        EXPECT_EQ(stats.jobs_resumed, 0);
    }
    const std::vector<Metrics> merged = merge_campaign(spec, n_shards, dir);
    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(merged.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].policy);
        const auto code = make_code(jobs[i].code);
        const ExperimentRunner runner(code->ctx, jobs[i].cfg);
        const Metrics direct =
            runner.run(make_policy(jobs[i].policy, jobs[i].cfg.np));
        expect_metrics_identical(direct, merged[i]);
        EXPECT_EQ(direct.shots, spec.shots);
        EXPECT_GT(direct.decoded_shots, 0);  // LER path exercised too
    }

    // load_merged reads back what merge wrote, bit-for-bit.
    const std::vector<Metrics> loaded = load_merged(spec, dir);
    ASSERT_EQ(loaded.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i)
        expect_metrics_identical(merged[i], loaded[i]);
}

TEST(Resume, SkipsValidRecomputesStaleAndCorrupt)
{
    const CampaignSpec spec = small_spec("resume");
    const std::string dir = fresh_dir("resume");

    RunShardStats first = run_shard(spec, 0, 2, dir, untraced(1));
    EXPECT_EQ(first.jobs_run, 2);
    EXPECT_EQ(first.jobs_resumed, 0);

    // Same spec again: everything resumes, nothing recomputes.
    RunShardStats second = run_shard(spec, 0, 2, dir, untraced(1));
    EXPECT_EQ(second.jobs_run, 0);
    EXPECT_EQ(second.jobs_resumed, 2);

    // A changed config (different hash) invalidates the checkpoints.
    CampaignSpec changed = spec;
    changed.rounds += 1;
    RunShardStats third = run_shard(changed, 0, 2, dir, untraced(1));
    EXPECT_EQ(third.jobs_run, 2);
    EXPECT_EQ(third.jobs_resumed, 0);

    // A garbled result file is recomputed, not trusted.
    const std::string victim = shard_result_path(dir, changed, 0, 0, 2);
    io::write_file_atomic(victim, "{\"gld_version\": 1, truncated");
    RunShardStats fourth = run_shard(changed, 0, 2, dir, untraced(1));
    EXPECT_EQ(fourth.jobs_run, 1);
    EXPECT_EQ(fourth.jobs_resumed, 1);

    // Swapping the policy order leaves every job's CONFIG unchanged
    // (paired seeds: both policies share one seed, and policy is not
    // part of ExperimentConfig), so only the job-identity check stops
    // the old results from being resumed under the wrong label.
    CampaignSpec swapped = changed;
    std::swap(swapped.policies[0], swapped.policies[1]);
    EXPECT_EQ(io::config_hash(swapped.expand()[0].cfg),
              io::config_hash(changed.expand()[0].cfg));
    RunShardStats fifth = run_shard(swapped, 0, 2, dir, untraced(1));
    EXPECT_EQ(fifth.jobs_run, 2);
    EXPECT_EQ(fifth.jobs_resumed, 0);
}

TEST(Merge, RefusesMissingShardsAndForeignConfigs)
{
    const CampaignSpec spec = small_spec("strict");
    const std::string dir = fresh_dir("strict");
    run_shard(spec, 0, 2, dir, untraced(1));
    // Shard 1 of 2 never ran.
    EXPECT_THROW(merge_campaign(spec, 2, dir), std::runtime_error);

    run_shard(spec, 1, 2, dir, untraced(1));
    EXPECT_NO_THROW(merge_campaign(spec, 2, dir));

    // Results on disk from a different config must be rejected, not
    // silently merged.
    CampaignSpec other = spec;
    other.seed ^= 0xF00Dull;
    EXPECT_THROW(merge_campaign(other, 2, dir), std::runtime_error);

    // Same config, different job identity (policy order swapped under
    // paired seeds): merge must refuse to relabel the results.
    CampaignSpec swapped = spec;
    std::swap(swapped.policies[0], swapped.policies[1]);
    EXPECT_THROW(merge_campaign(swapped, 2, dir), std::runtime_error);
}

// A shard file whose stream index does not fit in int is refused.
// Narrowed, 2^32 becomes stream 0, which passes the range check and
// merges the entry as stream 0.
TEST(Merge, RefusesAStreamIndexOutsideInt)
{
    const CampaignSpec spec = small_spec("wide_stream");
    const std::string dir = fresh_dir("wide_stream");
    run_shard(spec, 0, 2, dir, untraced(1));
    run_shard(spec, 1, 2, dir, untraced(1));
    // Job 0's first shard file that carries a stream entry, and the
    // span of that entry's index digits.
    const std::string key = "\"stream\":";
    std::string path, text;
    size_t at = std::string::npos;
    for (int shard = 0; shard < 2 && path.empty(); ++shard) {
        const std::string p = shard_result_path(dir, spec, 0, shard, 2);
        text = io::read_file(p);
        at = text.find(key);
        if (at != std::string::npos)
            path = p;
    }
    ASSERT_FALSE(path.empty());
    const size_t begin = text.find_first_of("0123456789", at + key.size());
    const size_t end = text.find_first_not_of("0123456789", begin);
    ASSERT_NE(end, std::string::npos);
    for (const char* v : {"4294967296", "-4294967296"}) {
        SCOPED_TRACE(v);
        io::write_file_atomic(path, text.substr(0, begin) + v +
                                        text.substr(end));
        try {
            merge_campaign(spec, 2, dir);
            ADD_FAILURE() << "merged stream " << v;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("does not fit in int"),
                      std::string::npos)
                << e.what();
        }
    }
    io::write_file_atomic(path, text);
    EXPECT_NO_THROW(merge_campaign(spec, 2, dir));
}

// A shard file carrying a negative count is refused, and merge then
// writes no merged file at all. The bad file belongs to the last job, so
// a merge that wrote as it went would have left the earlier jobs' files.
TEST(Merge, RefusesANegativeCountAndWritesNoMergedFile)
{
    const CampaignSpec spec = small_spec("negative_shots");
    const std::string dir = fresh_dir("negative_shots");
    run_shard(spec, 0, 1, dir, untraced(1));
    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_GT(jobs.size(), 1u);
    const std::string path =
        shard_result_path(dir, spec, jobs.back().index, 0, 1);
    const std::string text = io::read_file(path);
    io::write_file_atomic(path, with_count(text, "shots", "-5"));
    try {
        merge_campaign(spec, 1, dir);
        ADD_FAILURE() << "merged a negative shot count";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("\"shots\" -5 is a negative "
                                             "count"),
                  std::string::npos)
            << e.what();
    }
    for (const JobSpec& job : jobs)
        EXPECT_FALSE(io::file_exists(merged_result_path(dir, spec, job.index)))
            << "job " << job.index;
    io::write_file_atomic(path, text);
    EXPECT_NO_THROW(merge_campaign(spec, 1, dir));
}

// A shard file whose per-stream Metrics contradict the job — one
// stream's shot count rewritten from 6 to 5, so the merge would come to
// 44 shots for a 45-shot spec — is refused naming the file, the stream
// and the field, and merge writes no merged file.  Resume treats the
// file as stale and recomputes it.  The same holds for the round count,
// the decoded-shot count, more logical errors than decoded shots, a DLP
// series of the wrong length and a non-finite total.
TEST(Merge, RefusesStreamMetricsThatContradictTheJob)
{
    const CampaignSpec spec = small_spec("contradicted");
    const std::string dir = fresh_dir("contradicted");
    run_shard(spec, 0, 1, dir, untraced(1));
    const std::vector<JobSpec> jobs = spec.expand();
    const JobSpec& job = jobs.back();
    ASSERT_EQ(ExperimentRunner::stream_shots(job.cfg, 0), 6);
    ASSERT_EQ(job.cfg.rounds, 7);
    const std::vector<Metrics> clean = merge_campaign(spec, 1, dir);
    for (const JobSpec& j : jobs)
        std::remove(merged_result_path(dir, spec, j.index).c_str());

    const std::string path = shard_result_path(dir, spec, job.index, 0, 1);
    const std::string text = io::read_file(path);
    const std::string series_end = "\n        ],";
    const size_t series_at = text.find(series_end);
    ASSERT_NE(series_at, std::string::npos);
    const size_t fn_at = text.find("\"fn_total\": \"0x") + 13;
    ASSERT_GT(fn_at, 13u);
    const std::string fn_inf =
        text.substr(0, fn_at) + "0x7ff0000000000000" +
        text.substr(text.find('"', fn_at));
    const struct {
        std::string bytes;
        std::string field;
    } cases[] = {
        {with_count(text, "shots", "5"), "shots = 5, want 6"},
        {with_count(text, "rounds_per_shot", "6"),
         "rounds_per_shot = 6, want 7"},
        {with_count(text, "decoded_shots", "5"),
         "decoded_shots = 5, want 6"},
        {with_count(text, "logical_errors", "7"),
         "logical_errors = 7, more than decoded_shots"},
        {text.substr(0, series_at) + ",\n          \"0x0000000000000000\"" +
             text.substr(series_at),
         "dlp_series length = 8, want 7"},
        {fn_inf, "fn_total = inf, not a finite count"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.field);
        io::write_file_atomic(path, c.bytes);
        try {
            merge_campaign(spec, 1, dir);
            ADD_FAILURE() << "merged a contradicting shard file";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find("stream 0 "), std::string::npos) << what;
            EXPECT_NE(what.find(c.field), std::string::npos) << what;
        }
        for (const JobSpec& j : jobs)
            EXPECT_FALSE(io::file_exists(merged_result_path(dir, spec, j.index)))
                << "job " << j.index;

        // Resume recomputes exactly the contradicted job's file.
        const RunShardStats stats = run_shard(spec, 0, 1, dir, untraced(1));
        EXPECT_EQ(stats.jobs_run, 1);
        EXPECT_EQ(stats.jobs_resumed, static_cast<int>(jobs.size()) - 1);
        EXPECT_EQ(io::read_file(path), text);
    }
    const std::vector<Metrics> after = merge_campaign(spec, 1, dir);
    ASSERT_EQ(after.size(), clean.size());
    for (size_t i = 0; i < after.size(); ++i)
        EXPECT_TRUE(metrics_bit_diff(after[i], clean[i]).empty()) << i;
}

TEST(Campaign, JobPoolAndRunnerShareOneThreadBudget)
{
    // -j N (jobs_parallel) and the per-job runner loops execute on the
    // ONE process-wide pool: with both asking for the full
    // BenchConfig::threads() budget, the pool must neither spawn new
    // workers mid-campaign nor ever have more than `budget` threads
    // active at once — the oversubscription regression behind the
    // 8-thread-slower-than-1-thread trajectory point.
    const CampaignSpec spec = small_spec("shared_budget");
    const std::string dir = fresh_dir("shared_budget");

    ThreadPool& pool = ThreadPool::instance();
    const int budget = std::max(1, BenchConfig::threads());
    parallel_for_dynamic(4, budget, [](size_t) {});  // warm the pool
    const long created = pool.workers_created();
    pool.reset_peak();

    RunShardOptions opt;
    opt.threads = 0;  // full budget per job
    opt.jobs_parallel = 2;
    const RunShardStats stats = run_shard(spec, 0, 1, dir, opt);
    EXPECT_EQ(stats.jobs_run, static_cast<int>(spec.expand().size()));

    EXPECT_EQ(pool.workers_created(), created);
    EXPECT_GE(pool.peak_active(), 1);
    EXPECT_LE(pool.peak_active(), budget);

    // And the nested-pool schedule is a pure execution detail: the
    // merged results match a serial single-thread pass bit for bit.
    const std::string dir_serial = fresh_dir("shared_budget_serial");
    run_shard(spec, 0, 1, dir_serial, untraced(1));
    const std::vector<Metrics> par = merge_campaign(spec, 1, dir);
    const std::vector<Metrics> ser = merge_campaign(spec, 1, dir_serial);
    ASSERT_EQ(par.size(), ser.size());
    for (size_t i = 0; i < par.size(); ++i) {
        SCOPED_TRACE(i);
        expect_metrics_identical(ser[i], par[i]);
    }
}

// --- Telemetry, liveness and calibration (the observability layer). ---

TEST(Observability, TelemetryIsAPureSideChannelAtTheCampaignLevel)
{
    // run_shard with telemetry + heatmaps on vs telemetry off: the
    // merged Metrics must be bit-identical — the campaign-level
    // extension of the runner drift gate.
    const CampaignSpec spec = small_spec("side_channel");
    const int n_shards = 2;
    const std::string dir_on = fresh_dir("side_channel_on");
    const std::string dir_off = fresh_dir("side_channel_off");

    RunShardOptions opt;
    opt.threads = 2;
    opt.heatmap = true;
    ASSERT_TRUE(opt.telemetry);
    for (int shard = 0; shard < n_shards; ++shard) {
        run_shard(spec, shard, n_shards, dir_on, opt);
        run_shard(spec, shard, n_shards, dir_off, untraced(2));
    }
    const std::vector<Metrics> on = merge_campaign(spec, n_shards, dir_on);
    const std::vector<Metrics> off = merge_campaign(spec, n_shards, dir_off);
    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < on.size(); ++i) {
        SCOPED_TRACE(i);
        expect_metrics_identical(off[i], on[i]);
    }
}

TEST(Observability, ProgressHeatmapAndCalibrationEndToEnd)
{
    const CampaignSpec spec = small_spec("observe");
    const int n_shards = 3;
    const std::string dir = fresh_dir("observe");
    const std::vector<JobSpec> jobs = spec.expand();

    RunShardOptions opt;
    opt.threads = 2;
    opt.heatmap = true;
    for (int shard = 0; shard < n_shards; ++shard)
        run_shard(spec, shard, n_shards, dir, opt);

    // Liveness: every shard's heartbeat file ends in a done snapshot, and
    // the fleet totals cover every (job, shot) exactly once.
    const std::vector<ShardProgress> progress =
        read_progress(spec, n_shards, dir);
    ASSERT_EQ(progress.size(), static_cast<size_t>(n_shards));
    int64_t shots_done = 0;
    int64_t jobs_done = 0;
    uint64_t stage_total = 0;
    for (const ShardProgress& p : progress) {
        SCOPED_TRACE(p.shard);
        EXPECT_TRUE(p.valid);
        EXPECT_TRUE(p.done);
        EXPECT_EQ(p.jobs_done, static_cast<int64_t>(jobs.size()));
        EXPECT_EQ(p.jobs_resumed, 0);
        EXPECT_EQ(p.shots_done, p.shots_total);
        shots_done += p.shots_done;
        jobs_done += p.jobs_done;
        for (uint64_t ns : p.stage_ns)
            stage_total += ns;
    }
    EXPECT_EQ(shots_done,
              static_cast<int64_t>(jobs.size()) * spec.shots);
    EXPECT_EQ(jobs_done, static_cast<int64_t>(jobs.size()) * n_shards);
    EXPECT_GT(stage_total, 0u);  // executed shards carry a stage split
    EXPECT_NO_THROW(print_status(spec, n_shards, dir));

    // A never-started fleet reads as not-valid, it does not throw.
    const std::vector<ShardProgress> cold =
        read_progress(spec, n_shards, fresh_dir("observe_cold"));
    for (const ShardProgress& p : cold)
        EXPECT_FALSE(p.valid);

    // Heatmaps: the cross-shard merge has the job's geometry and counts
    // every leaked data qubit-round the resumable results saw.
    const auto code = make_code(jobs[0].code);
    const telemetry::Heatmap hm =
        merge_job_heatmap(spec, n_shards, dir, /*job_index=*/0);
    EXPECT_EQ(hm.rounds, spec.rounds);
    EXPECT_EQ(hm.n_data, code->code.n_data());
    EXPECT_EQ(hm.n_checks, code->code.n_checks());
    uint64_t occupancy = 0;
    for (uint64_t c : hm.counts)
        occupancy += c;
    EXPECT_GT(occupancy, 0u);  // leakage sampling guarantees leaks
    EXPECT_EQ(write_job_heatmaps(spec, n_shards, dir),
              static_cast<int>(jobs.size()));

    // Calibration closes the loop: telemetry -> measured rates -> plan.
    const Calibration calib =
        Calibration::from_telemetry(spec, n_shards, dir);
    ASSERT_TRUE(calib.has("frame", "surface:3"));
    EXPECT_GT(calib.rate("frame", "surface:3"), 0.0);
    EXPECT_THROW(calib.rate("tableau", "surface:3"), std::runtime_error);

    const Calibration back =
        Calibration::from_json(io::Json::parse(calib.to_json().dump(2)));
    ASSERT_EQ(back.rates.size(), calib.rates.size());
    expect_bits_eq(back.rate("frame", "surface:3"),
                   calib.rate("frame", "surface:3"),
                   "calibration json round trip");

    // The calibrated plan is deterministic and still a partition: every
    // stream of every job on exactly one shard.
    const CampaignPlan plan =
        CampaignPlan::build(spec, n_shards, nullptr, &calib);
    const CampaignPlan again =
        CampaignPlan::build(spec, n_shards, nullptr, &calib);
    for (const JobSpec& job : jobs) {
        const int total = ExperimentRunner::n_streams(job.cfg);
        std::vector<int> seen(static_cast<size_t>(total), 0);
        for (int shard = 0; shard < n_shards; ++shard) {
            EXPECT_EQ(plan.streams_for(job.index, shard),
                      again.streams_for(job.index, shard));
            for (int s : plan.streams_for(job.index, shard))
                ++seen[static_cast<size_t>(s)];
        }
        for (int s = 0; s < total; ++s)
            EXPECT_EQ(seen[static_cast<size_t>(s)], 1)
                << "job " << job.index << " stream " << s;
    }
    // An empty calibration falls back to the analytic cost model instead
    // of throwing on its (absent) keys.
    const Calibration none;
    EXPECT_NO_THROW(CampaignPlan::build(spec, n_shards, nullptr, &none));
    // A backend the calibration has no measurement for is an error, not
    // a silent fallback.
    CampaignSpec tableau_spec = spec;
    tableau_spec.backend = SimBackend::kTableau;
    EXPECT_THROW(
        CampaignPlan::build(tableau_spec, n_shards, nullptr, &calib),
        std::runtime_error);

    // Foreign-config telemetry is skipped, so a changed campaign finds
    // no usable telemetry or heatmaps in the same directory.
    CampaignSpec changed = spec;
    changed.rounds += 1;
    EXPECT_THROW(Calibration::from_telemetry(changed, n_shards, dir),
                 std::runtime_error);
    EXPECT_THROW(merge_job_heatmap(changed, n_shards, dir, 0),
                 std::runtime_error);

    // remove_results clears the observability files too: a fresh status
    // read sees a cold fleet and calibrate finds nothing.
    remove_results(spec, n_shards, dir);
    for (const ShardProgress& p : read_progress(spec, n_shards, dir))
        EXPECT_FALSE(p.valid);
    EXPECT_THROW(Calibration::from_telemetry(spec, n_shards, dir),
                 std::runtime_error);
}

TEST(Observability, CalibrationKeysOnBatchWidthSoSweepsDontCollide)
{
    // The small fix: calibrate/plan --calibration used to key on
    // (backend, code) only, so a K-sweep's measurements overwrote each
    // other.  The batch width is part of the key — K=1 keeps the legacy
    // "backend/code" form so existing calibration files still load and
    // match.
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3"),
              "batch_frame/surface:3");
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3", 1),
              "batch_frame/surface:3");
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3", 4),
              "batch_frame@w4/surface:3");

    Calibration cal;
    cal.rates[Calibration::key("batch_frame", "surface:3")] = 100.0;
    cal.rates[Calibration::key("batch_frame", "surface:3", 4)] = 400.0;
    EXPECT_TRUE(cal.has("batch_frame", "surface:3"));
    EXPECT_TRUE(cal.has("batch_frame", "surface:3", 4));
    EXPECT_FALSE(cal.has("batch_frame", "surface:3", 2));
    EXPECT_DOUBLE_EQ(cal.rate("batch_frame", "surface:3"), 100.0);
    EXPECT_DOUBLE_EQ(cal.rate("batch_frame", "surface:3", 4), 400.0);
    EXPECT_THROW(cal.rate("batch_frame", "surface:3", 2),
                 std::runtime_error);
}

TEST(Observability, WideBatchCalibrationNeverMixesWithNarrow)
{
    // End-to-end: a K=2 campaign's telemetry lands under the @w2 key,
    // plans the K=2 spec, and refuses (rather than silently misprices)
    // the K=1 spec.
    CampaignSpec wide = small_spec("observe_wide");
    wide.batch_words = 2;
    const std::string dir = fresh_dir("observe_wide");
    RunShardOptions opt;
    opt.threads = 1;
    run_shard(wide, 0, 1, dir, opt);

    const Calibration cal = Calibration::from_telemetry(wide, 1, dir);
    ASSERT_TRUE(cal.has("frame", "surface:3", 2));
    EXPECT_FALSE(cal.has("frame", "surface:3"));
    EXPECT_NO_THROW(CampaignPlan::build(wide, 1, nullptr, &cal));

    const CampaignSpec narrow = small_spec("observe_wide");
    EXPECT_THROW(CampaignPlan::build(narrow, 1, nullptr, &cal),
                 std::runtime_error);
}

TEST(Observability, ResumedJobsKeepTelemetryAndReportPlannedShots)
{
    const CampaignSpec spec = small_spec("observe_resume");
    const std::string dir = fresh_dir("observe_resume");
    RunShardOptions opt;
    opt.threads = 1;
    opt.heatmap = true;
    run_shard(spec, 0, 2, dir, opt);
    const Calibration first = Calibration::from_telemetry(spec, 2, dir);

    // Second run resumes everything: telemetry files survive untouched,
    // and the heartbeat still reports the full planned shot count.
    const RunShardStats stats = run_shard(spec, 0, 2, dir, opt);
    EXPECT_EQ(stats.jobs_run, 0);
    EXPECT_EQ(stats.jobs_resumed, 2);
    const Calibration second = Calibration::from_telemetry(spec, 2, dir);
    expect_bits_eq(second.rate("frame", "surface:3"),
                   first.rate("frame", "surface:3"),
                   "telemetry survives resume");
    const std::vector<ShardProgress> progress = read_progress(spec, 2, dir);
    ASSERT_TRUE(progress[0].valid);
    EXPECT_TRUE(progress[0].done);
    EXPECT_EQ(progress[0].jobs_resumed, 2);
    EXPECT_EQ(progress[0].shots_done, progress[0].shots_total);
}

TEST(Observability, ResumeOnlyPassReportsZeroThroughput)
{
    const CampaignSpec spec = small_spec("observe_resume_rate");
    const std::string dir = fresh_dir("observe_resume_rate");
    RunShardOptions opt;
    opt.threads = 1;
    run_shard(spec, 0, 2, dir, opt);
    const ShardProgress executed = read_progress(spec, 2, dir)[0];
    ASSERT_TRUE(executed.valid);
    EXPECT_GT(executed.shots_per_second, 0.0);

    // A pass that only resumes executes no shots: its rate is 0 (not the
    // planned shots over a near-zero wall time), while progress still
    // reads complete.
    const RunShardStats stats = run_shard(spec, 0, 2, dir, opt);
    EXPECT_EQ(stats.jobs_run, 0);
    const ShardProgress resumed = read_progress(spec, 2, dir)[0];
    ASSERT_TRUE(resumed.valid);
    EXPECT_TRUE(resumed.done);
    EXPECT_EQ(resumed.shots_per_second, 0.0);
    EXPECT_EQ(resumed.shots_done, resumed.shots_total);
    EXPECT_EQ(resumed.shots_done, executed.shots_done);
}

// Telemetry and progress files that carry a negative count are skipped
// like garbled ones: calibration and the report's throughput columns
// treat the file as absent, and status falls back to the shard's last
// good heartbeat.
TEST(Observability, NegativeCountsInTelemetryAndProgressAreSkipped)
{
    CampaignSpec spec = small_spec("observe_negative");
    spec.policies = {"eraser_m"};  // one job, one telemetry file
    const std::string dir = fresh_dir("observe_negative");
    RunShardOptions opt;
    opt.threads = 1;
    run_shard(spec, 0, 1, dir, opt);
    merge_campaign(spec, 1, dir);
    const auto report = [&] {
        ::testing::internal::CaptureStdout();
        print_report(spec, dir, 1);
        return ::testing::internal::GetCapturedStdout();
    };
    ASSERT_NO_THROW(Calibration::from_telemetry(spec, 1, dir));
    const std::string measured = report();

    const std::string tpath = telemetry_path(dir, spec, 0, 0, 1);
    const std::string telem = io::read_file(tpath);
    std::remove(tpath.c_str());
    const std::string absent = report();
    EXPECT_NE(absent, measured);
    for (const char* key : {"shots", "wall_ns"}) {
        SCOPED_TRACE(key);
        io::write_file_atomic(tpath, with_count(telem, key, "-1"));
        EXPECT_THROW(Calibration::from_telemetry(spec, 1, dir),
                     std::runtime_error);
        EXPECT_EQ(report(), absent);
    }
    io::write_file_atomic(tpath, telem);
    EXPECT_EQ(report(), measured);

    const std::string ppath = progress_path(dir, spec, 0, 1);
    const std::string beats = io::read_file(ppath);
    const ShardProgress good = read_progress(spec, 1, dir)[0];
    ASSERT_TRUE(good.valid);
    const std::string last =
        beats.substr(beats.rfind('\n', beats.size() - 2) + 1);
    for (const char* key : {"jobs_done", "jobs_resumed", "jobs_total",
                            "shots_done", "shots_total", "wall_ns", "sim",
                            "policy", "decode", "accounting"}) {
        SCOPED_TRACE(key);
        io::write_file_atomic(ppath, beats + with_count(last, key, "-1"));
        const ShardProgress p = read_progress(spec, 1, dir)[0];
        ASSERT_TRUE(p.valid);
        EXPECT_EQ(p.jobs_done, good.jobs_done);
        EXPECT_EQ(p.jobs_resumed, good.jobs_resumed);
        EXPECT_EQ(p.jobs_total, good.jobs_total);
        EXPECT_EQ(p.shots_done, good.shots_done);
        EXPECT_EQ(p.shots_total, good.shots_total);
        EXPECT_EQ(p.wall_ns, good.wall_ns);
        for (int s = 0; s < telemetry::kStageCount; ++s)
            EXPECT_EQ(p.stage_ns[s], good.stage_ns[s]) << "stage " << s;
    }
}

// A heartbeat whose totals exceed the plan, whose counts exceed their
// totals or whose rate is negative is skipped like a torn one.  Read as
// valid, two shards' lines near INT64_MAX would overflow status's signed
// fleet sums.
TEST(Observability, HeartbeatsBeyondThePlanAreSkipped)
{
    const CampaignSpec spec = small_spec("observe_beyond_plan");
    const std::string dir = fresh_dir("observe_beyond_plan");
    RunShardOptions opt;
    opt.threads = 1;
    for (int shard = 0; shard < 2; ++shard)
        run_shard(spec, shard, 2, dir, opt);
    const auto status = [&] {
        ::testing::internal::CaptureStdout();
        print_status(spec, 2, dir);
        return ::testing::internal::GetCapturedStdout();
    };
    const std::vector<ShardProgress> good = read_progress(spec, 2, dir);
    const std::string clean = status();
    std::vector<std::string> paths, beats, lasts;
    for (int shard = 0; shard < 2; ++shard) {
        ASSERT_TRUE(good[static_cast<size_t>(shard)].valid);
        paths.push_back(progress_path(dir, spec, shard, 2));
        beats.push_back(io::read_file(paths.back()));
        lasts.push_back(beats.back().substr(
            beats.back().rfind('\n', beats.back().size() - 2) + 1));
    }
    const auto expect_good = [&](const char* what) {
        SCOPED_TRACE(what);
        const std::vector<ShardProgress> got = read_progress(spec, 2, dir);
        for (size_t s = 0; s < 2; ++s) {
            ASSERT_TRUE(got[s].valid);
            EXPECT_EQ(got[s].jobs_done, good[s].jobs_done);
            EXPECT_EQ(got[s].jobs_resumed, good[s].jobs_resumed);
            EXPECT_EQ(got[s].jobs_total, good[s].jobs_total);
            EXPECT_EQ(got[s].shots_done, good[s].shots_done);
            EXPECT_EQ(got[s].shots_total, good[s].shots_total);
            EXPECT_EQ(got[s].shots_per_second, good[s].shots_per_second);
        }
        EXPECT_EQ(status(), clean);
    };

    const std::string huge = "9223372036854775000";
    for (size_t s = 0; s < 2; ++s)
        io::write_file_atomic(
            paths[s], beats[s] + with_count(with_count(lasts[s], "shots_done",
                                                       huge),
                                            "shots_total", huge));
    expect_good("both shards near INT64_MAX");

    const int64_t plan_jobs = static_cast<int64_t>(spec.expand().size());
    const ShardProgress& g0 = good[0];
    const struct {
        const char* key;
        int64_t value;
    } cases[] = {
        {"jobs_total", plan_jobs + 1},
        {"shots_total", plan_jobs * spec.shots + 1},
        {"jobs_done", g0.jobs_total + 1},
        {"jobs_resumed", g0.jobs_done + 1},
        {"shots_done", g0.shots_total + 1},
        {"shots_per_second", -1},
    };
    io::write_file_atomic(paths[1], beats[1]);
    for (const auto& c : cases) {
        io::write_file_atomic(
            paths[0],
            beats[0] + with_count(lasts[0], c.key, std::to_string(c.value)));
        expect_good(c.key);
    }
}

}  // namespace
}  // namespace campaign
}  // namespace gld
