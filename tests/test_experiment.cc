#include "runtime/experiment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "codes/surface_code.h"

namespace gld {
namespace {

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(int d)
        : code(SurfaceCode::make(d)), rc(code),
          ctx(code, rc, PatternScope::kBothTypes)
    {
    }
};

TEST(ExperimentRunner, DeterministicForSameSeed)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 20;
    cfg.shots = 30;
    cfg.seed = 42;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics a = runner.run(PolicyZoo::eraser(true));
    const Metrics b = runner.run(PolicyZoo::eraser(true));
    EXPECT_DOUBLE_EQ(a.fn_total, b.fn_total);
    EXPECT_DOUBLE_EQ(a.fp_total, b.fp_total);
    EXPECT_DOUBLE_EQ(a.lrc_data_total, b.lrc_data_total);
    EXPECT_DOUBLE_EQ(a.dlp_total, b.dlp_total);
}

TEST(ExperimentRunner, IdealPolicyHasNoFalseNegatives)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 1.0);
    cfg.rounds = 30;
    cfg.shots = 50;
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::ideal());
    EXPECT_DOUBLE_EQ(m.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
    EXPECT_GT(m.tp_total, 0.0);
}

TEST(ExperimentRunner, NoLrcPolicyAppliesNoLrcs)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.rounds = 10;
    cfg.shots = 10;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_DOUBLE_EQ(m.lrc_data_total, 0.0);
    EXPECT_DOUBLE_EQ(m.lrc_check_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
}

TEST(ExperimentRunner, AlwaysLrcCountsEveryQubitEveryRound)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np.p = 0.0;
    cfg.np.leak_ratio = 0.0;
    cfg.rounds = 5;
    cfg.shots = 2;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::always_lrc());
    // First round has no scheduled LRCs (decisions lag one round).
    EXPECT_DOUBLE_EQ(m.lrc_data_total, 2.0 * 4 * h.code.n_data());
    EXPECT_DOUBLE_EQ(m.lrc_check_total, 2.0 * 4 * h.code.n_checks());
}

TEST(ExperimentRunner, LeakageSamplingStartsLeaked)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np.p = 0;
    cfg.np.leak_ratio = 0;
    cfg.np.mobility = 0;  // keep the injected leak on the data qubit
    cfg.rounds = 1;
    cfg.shots = 20;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    // With zero noise and no mitigation the injected leak persists:
    // DLP = 1/n_data every round.
    EXPECT_NEAR(m.dlp_mean(), 1.0 / h.code.n_data(), 1e-12);
}

TEST(ExperimentRunner, DlpSeriesMatchesTotals)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 1.0);
    cfg.rounds = 15;
    cfg.shots = 20;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(true));
    ASSERT_EQ(static_cast<int>(m.dlp_series.size()), cfg.rounds);
    double sum = 0;
    for (double v : m.dlp_series)
        sum += v;
    EXPECT_NEAR(sum, m.dlp_total, 1e-9);
}

TEST(ExperimentRunner, LerDecodingRunsAndIsBounded)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 6;
    cfg.shots = 200;
    cfg.compute_ler = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::gladiator(true, cfg.np));
    EXPECT_EQ(m.decoded_shots, 200);
    EXPECT_LT(m.ler(), 0.30);  // far below random guessing
}

TEST(ExperimentRunner, NoiselessLerIsZero)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np.p = 0;
    cfg.np.leak_ratio = 0;
    cfg.rounds = 5;
    cfg.shots = 50;
    cfg.compute_ler = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_EQ(m.logical_errors, 0);
}

TEST(ExperimentRunner, GladiatorFlagsFewerFalsePositivesThanEraser)
{
    // The paper's central claim (Fig 9) at test scale.
    Harness h(5);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 40;
    cfg.shots = 120;
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics er = runner.run(PolicyZoo::eraser(true));
    const Metrics gl = runner.run(PolicyZoo::gladiator(true, cfg.np));
    EXPECT_LT(gl.fp_total, er.fp_total);
    EXPECT_LT(gl.lrc_data_total, er.lrc_data_total);
}

// FN stamps must not leak between the shots of one block: a policy that
// scheduled a qubit at round r in an EARLIER shot must not mask a later
// shot's unserviced leak at the same round index.
class StampOnceInFirstShotPolicy : public Policy {
  public:
    explicit StampOnceInFirstShotPolicy(const CodeContext& ctx) : ctx_(&ctx)
    {
    }
    std::string name() const override { return "stamp-once"; }
    void begin_shot() override { ++shot_; }
    void observe(int round, const RoundResult&, LrcSchedule* out) override
    {
        out->clear();
        if (shot_ == 0 && round == 1) {
            for (int q = 0; q < ctx_->code().n_data(); ++q)
                out->data_qubits.push_back(q);
        }
    }

  private:
    const CodeContext* ctx_;
    int shot_ = -1;
};

TEST(ExperimentRunner, FalseNegativeStampsDoNotLeakAcrossShots)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np.p = 0;
    cfg.np.leak_ratio = 0;
    cfg.np.mobility = 0;       // the sampled leak stays where injected
    cfg.np.lrc_leak_prob = 0;  // the shot-0 LRC wave is noiseless
    cfg.rounds = 3;
    cfg.shots = 4;
    cfg.rng_streams = 1;  // all shots in one block: stamps could alias
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(
        [](const CodeContext& ctx, uint64_t) -> std::unique_ptr<Policy> {
            return std::make_unique<StampOnceInFirstShotPolicy>(ctx);
        });
    // Shot 0: the sampled leak is missed at round 0, serviced by the
    // round-1 all-qubit wave (applied/cleared at round 2) => 1 FN.
    // Shots 1..3: never serviced => one FN per round, INCLUDING round 1
    // — with stale stamps those three FNs vanish (7 instead of 10).
    EXPECT_DOUBLE_EQ(m.fn_total, 1.0 + 3.0 * cfg.rounds);
}

TEST(ExperimentRunner, ThreadedRunMergesAllShots)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.rounds = 10;
    cfg.shots = 40;
    cfg.threads = 4;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(true));
    EXPECT_EQ(m.shots, 40);
}

TEST(ExperimentRunner, RefusesFewerThanOneRound)
{
    // A run needs at least one round: the final-round detectors XOR the
    // data readout into the last round's measurements.
    Harness h(3);
    for (SimBackend b : known_backends()) {
        for (int rounds : {0, -1}) {
            SCOPED_TRACE(std::string(backend_name(b)) + " rounds=" +
                         std::to_string(rounds));
            ExperimentConfig cfg;
            cfg.rounds = rounds;
            cfg.compute_ler = true;
            cfg.backend = b;
            try {
                const ExperimentRunner runner(h.ctx, cfg);
                ADD_FAILURE() << "rounds=" << rounds << " accepted";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("rounds"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

}  // namespace
}  // namespace gld
