#include "probes.h"

#include <map>
#include <memory>

#include "campaign/registry.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "harness.h"
#include "sim/batch_driver.h"

namespace gld {
namespace bench {

namespace {

/** Distinct codes of a probe, built once. */
class CodeCache {
  public:
    const campaign::CodeInstance& get(const std::string& spec)
    {
        std::unique_ptr<campaign::CodeInstance>& c = codes_[spec];
        if (c == nullptr)
            c = campaign::make_code(spec);
        return *c;
    }

  private:
    std::map<std::string, std::unique_ptr<campaign::CodeInstance>> codes_;
};

/** A job's (code, noise, rounds) point, the unit the sim probe times. */
std::string sim_point(const Job& job)
{
    return job_key("", job.code, "", job.cfg);
}

}  // namespace

double
thread_speedup(uint64_t seed, int shots)
{
    const std::unique_ptr<campaign::CodeInstance> code =
        campaign::make_code("surface:7");
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 70;
    cfg.shots = shots;
    cfg.seed = seed;
    cfg.compute_ler = true;
    cfg.backend = SimBackend::kBatchFrame;
    cfg.noise_sampling = NoiseSampling::kSparse;
    const PolicyFactory factory =
        campaign::make_policy("gladiator_m", cfg.np);
    std::vector<double> wall[2];
    for (int rep = 0; rep < 5; ++rep) {
        for (int wide = 0; wide < 2; ++wide) {
            cfg.threads = wide ? bench_threads() : 1;
            const ExperimentRunner runner(code->ctx, cfg);
            const double t0 = now_s();
            runner.run(factory);
            wall[wide].push_back(now_s() - t0);
        }
    }
    return median(wall[0]) / median(wall[1]);
}

DecodeProbe
decode_probe(const std::vector<Job>& jobs, int per_job, uint64_t seed,
             double seconds)
{
    CodeCache codes;
    // One decoding graph per (code, noise, rounds) point, with the
    // syndromes captured for it.
    struct Point {
        std::unique_ptr<DecodingGraph> graph;
        std::vector<std::vector<uint8_t>> syndromes;
    };
    std::map<std::string, Point> points;
    long n = 0;
    long quiet = 0;
    long defects = 0;
    uint64_t job_index = 0;
    for (const Job& job : jobs) {
        if (!job.cfg.compute_ler)
            continue;
        const campaign::CodeInstance& ci = codes.get(job.code);
        const CssCode& code = ci.code;
        const int rounds = job.cfg.rounds;
        Point& pt = points[sim_point(job)];
        if (pt.graph == nullptr) {
            DemBuilder dem(code, ci.rc, job.cfg.np, rounds);
            pt.graph = std::make_unique<DecodingGraph>(dem.build());
        }
        const std::vector<int> z_checks = code.checks_of_type(CheckType::kZ);
        const size_t nz = z_checks.size();
        std::unique_ptr<Simulator> sim =
            make_simulator(SimBackend::kFrame, code, ci.rc, job.cfg.np,
                           derive_seed(seed, job_index++));
        std::unique_ptr<Policy> policy =
            campaign::make_policy(job.policy, job.cfg.np)(ci.ctx, 0);
        policy->set_oracle(sim.get());
        for (int shot = 0; shot < per_job; ++shot) {
            sim->reset_shot();
            policy->begin_shot();
            std::vector<uint8_t> syn((static_cast<size_t>(rounds) + 1) * nz,
                                     0);
            LrcSchedule sched;
            RoundResult rr;
            for (int r = 0; r < rounds; ++r) {
                rr = sim->run_round(sched);
                policy->observe(r, rr, &sched);
                for (size_t zi = 0; zi < nz; ++zi)
                    syn[static_cast<size_t>(r) * nz + zi] =
                        rr.detector[static_cast<size_t>(z_checks[zi])];
            }
            const std::vector<uint8_t> flips = sim->final_data_measure();
            for (size_t zi = 0; zi < nz; ++zi) {
                uint8_t det = rr.meas_flip[static_cast<size_t>(z_checks[zi])];
                for (int q : code.check(z_checks[zi]).support)
                    det ^= flips[static_cast<size_t>(q)];
                syn[static_cast<size_t>(rounds) * nz + zi] = det;
            }
            long ones = 0;
            for (uint8_t b : syn)
                ones += b;
            ++n;
            defects += ones;
            quiet += ones == 0 ? 1 : 0;
            pt.syndromes.push_back(std::move(syn));
        }
    }
    DecodeProbe out;
    if (n == 0)
        return out;
    out.quiet_syndrome_frac =
        static_cast<double>(quiet) / static_cast<double>(n);
    out.defects_per_syndrome =
        static_cast<double>(defects) / static_cast<double>(n);

    // Replay: each point's syndromes, swept whole, until the point has
    // used its share of the time.
    double busy = 0.0;
    long decodes = 0;
    const double share = seconds / static_cast<double>(points.size());
    for (auto& kv : points) {
        UnionFindDecoder dec(*kv.second.graph);
        const double t0 = now_s();
        double t = t0;
        do {
            for (const std::vector<uint8_t>& syn : kv.second.syndromes)
                dec.decode(syn);
            decodes += static_cast<long>(kv.second.syndromes.size());
            t = now_s();
        } while (t - t0 < share);
        busy += t - t0;
    }
    out.ns_per_decode = busy * 1e9 / static_cast<double>(decodes);
    return out;
}

double
sim_probe_ns(const std::vector<Job>& jobs, bool batch, uint64_t seed,
             double seconds)
{
    CodeCache codes;
    std::map<std::string, const Job*> distinct;
    for (const Job& job : jobs)
        distinct.emplace(sim_point(job), &job);
    const double share = seconds / static_cast<double>(distinct.size());
    double sum_ns = 0.0;
    uint64_t point_index = 0;
    for (const auto& kv : distinct) {
        const Job& job = *kv.second;
        const campaign::CodeInstance& ci = codes.get(job.code);
        const int rounds = job.cfg.rounds;
        std::unique_ptr<Simulator> sim = make_simulator(
            batch ? SimBackend::kBatchFrame : SimBackend::kFrame, ci.code,
            ci.rc, job.cfg.np, derive_seed(seed, point_index++), 1,
            job.cfg.noise_sampling);
        auto* bsim = dynamic_cast<BatchSimulator*>(sim.get());
        const int lanes = bsim != nullptr ? bsim->batch_width() : 1;
        std::vector<LrcSchedule> scheds(static_cast<size_t>(lanes));
        std::vector<RoundResult> out;
        const LrcSchedule none;
        double shot_rounds = 0.0;
        const double t0 = now_s();
        double t = t0;
        do {
            if (bsim != nullptr) {
                bsim->reset_shot_batch(lanes);
                for (int r = 0; r < rounds; ++r)
                    bsim->run_round_batch(scheds, &out);
            } else {
                sim->reset_shot();
                for (int r = 0; r < rounds; ++r)
                    sim->run_round(none);
            }
            shot_rounds += static_cast<double>(lanes) * rounds;
            t = now_s();
        } while (t - t0 < share);
        sum_ns += (t - t0) * 1e9 / shot_rounds;
    }
    return sum_ns / static_cast<double>(distinct.size());
}

}  // namespace bench
}  // namespace gld
