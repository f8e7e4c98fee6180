#include "sim/frame_sim.h"

#include <gtest/gtest.h>

#include "codes/color_code.h"
#include "codes/surface_code.h"

namespace gld {
namespace {

NoiseParams
noiseless()
{
    NoiseParams np;
    np.p = 0.0;
    np.leak_ratio = 0.0;
    return np;
}

TEST(LeakFrameSim, NoiselessRoundsAreSilent)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 1);
    LrcSchedule none;
    for (int r = 0; r < 5; ++r) {
        const RoundResult rr = sim.run_round(none);
        for (int c = 0; c < code.n_checks(); ++c) {
            EXPECT_EQ(rr.detector[c], 0);
            EXPECT_EQ(rr.mlr_flag[c], 0);
        }
    }
    for (uint8_t f : sim.final_data_measure())
        EXPECT_EQ(f, 0);
}

TEST(LeakFrameSim, InjectedXFlipsAdjacentZChecksOnce)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 1);
    LrcSchedule none;
    sim.run_round(none);
    const int q = SurfaceCode::data_index(5, 2, 2);  // bulk qubit
    sim.inject_x(q);
    const RoundResult rr = sim.run_round(none);
    for (int c = 0; c < code.n_checks(); ++c) {
        const auto& sup = code.check(c).support;
        const bool adjacent =
            std::find(sup.begin(), sup.end(), q) != sup.end();
        const bool expect_flip = adjacent &&
                                 code.check(c).type == CheckType::kZ;
        EXPECT_EQ(rr.detector[c] != 0, expect_flip) << "check " << c;
    }
    // Next round: static error, no new detector flips.
    const RoundResult rr2 = sim.run_round(none);
    for (int c = 0; c < code.n_checks(); ++c)
        EXPECT_EQ(rr2.detector[c], 0);
}

TEST(LeakFrameSim, InjectedZFlipsAdjacentXChecks)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 1);
    LrcSchedule none;
    sim.run_round(none);
    const int q = SurfaceCode::data_index(5, 2, 2);
    sim.inject_z(q);
    const RoundResult rr = sim.run_round(none);
    int x_flips = 0;
    for (int c = 0; c < code.n_checks(); ++c) {
        if (rr.detector[c]) {
            EXPECT_EQ(code.check(c).type, CheckType::kX);
            ++x_flips;
        }
    }
    EXPECT_EQ(x_flips, 2);  // bulk qubit touches two X checks
}

TEST(LeakFrameSim, LeakedDataRandomizesAdjacentChecks)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    np.mobility = 0.0;  // keep the leak on the data qubit
    LeakFrameSim sim(code, rc, np, 7);
    LrcSchedule none;
    const int q = SurfaceCode::data_index(5, 2, 2);
    const auto& adj = code.data_adjacency()[q];

    int flips = 0, rounds = 0;
    int far_flips = 0, far_rounds = 0;
    sim.run_round(none);
    sim.inject_data_leak(q);
    for (int r = 0; r < 400; ++r) {
        const RoundResult rr = sim.run_round(none);
        ASSERT_TRUE(sim.data_leaked(q));
        for (int c : adj) {
            flips += rr.detector[c];
            ++rounds;
        }
        // Non-adjacent checks see only second-order hook propagation from
        // the malfunctioning CNOTs — far rarer than the direct 50% flips.
        for (int c = 0; c < code.n_checks(); ++c) {
            if (std::find(adj.begin(), adj.end(), c) == adj.end()) {
                far_flips += rr.detector[c];
                ++far_rounds;
            }
        }
    }
    // Each adjacent detector bit is a fair coin (paper Fig 3: ~50% flips).
    EXPECT_NEAR(static_cast<double>(flips) / rounds, 0.5, 0.05);
    EXPECT_LT(static_cast<double>(far_flips) / far_rounds, 0.2);
}

TEST(LeakFrameSim, MobilityTransportsLeakageToAncilla)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    np.mobility = 1.0;  // deterministic transport
    LeakFrameSim sim(code, rc, np, 3);
    LrcSchedule none;
    const int q = 4;  // bulk data qubit of d=3
    sim.inject_data_leak(q);
    sim.run_round(none);
    // The data qubit is control of its Z-check CNOTs: with mobility 1 the
    // first such CNOT moves the leak to the ancilla.
    EXPECT_FALSE(sim.data_leaked(q));
    EXPECT_GE(sim.n_check_leaked(), 1);
}

TEST(LeakFrameSim, MlrFlagsLeakedAncilla)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    LeakFrameSim sim(code, rc, np, 3);
    LrcSchedule none;
    sim.inject_check_leak(0);
    const RoundResult rr = sim.run_round(none);
    EXPECT_EQ(rr.mlr_flag[0], 1);  // mlr error = mlr_ratio * p = 0 here
    for (int c = 1; c < code.n_checks(); ++c)
        EXPECT_EQ(rr.mlr_flag[c], 0);
}

TEST(LeakFrameSim, MlrErrorRateMatchesModel)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    np.p = 1e-2;
    np.mlr_ratio = 10.0;  // 10% misclassification
    np.leak_ratio = 0.0;
    LeakFrameSim sim(code, rc, np, 11);
    LrcSchedule none;
    long flags = 0, total = 0;
    for (int r = 0; r < 300; ++r) {
        const RoundResult rr = sim.run_round(none);
        for (int c = 0; c < code.n_checks(); ++c) {
            flags += rr.mlr_flag[c];  // false flags: nothing is leaked
            ++total;
        }
    }
    EXPECT_NEAR(static_cast<double>(flags) / total, 0.10, 0.02);
}

TEST(LeakFrameSim, LrcClearsDataLeak)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 5);
    sim.inject_data_leak(0);
    LrcSchedule sched;
    sched.data_qubits.push_back(0);
    sim.run_round(sched);
    EXPECT_FALSE(sim.data_leaked(0));
}

TEST(LeakFrameSim, LrcSwapPumpsLeakedPartnerIntoData)
{
    // A false-positive LRC against a leaked partner ancilla moves the
    // leakage INTO the data qubit — the mechanism behind ERASER's leakage
    // growth (paper §3.3, Limitation 2).
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 5);
    const int q = 0;
    const int partner = lrc_partner(code, q);
    sim.inject_check_leak(partner);
    EXPECT_FALSE(sim.data_leaked(q));
    LrcSchedule sched;
    sched.data_qubits.push_back(q);
    sim.run_round(sched);
    EXPECT_TRUE(sim.data_leaked(q));
    EXPECT_FALSE(sim.check_leaked(partner));
}

TEST(LeakFrameSim, LrcOnCheckClearsAncilla)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 5);
    sim.inject_check_leak(2);
    LrcSchedule sched;
    sched.checks.push_back(2);
    sim.run_round(sched);
    EXPECT_FALSE(sim.check_leaked(2));
}

TEST(LeakFrameSim, EnvironmentLeakageAccumulatesWithoutLrcs)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    NoiseParams np;
    np.p = 1e-3;
    np.leak_ratio = 10.0;  // strong leakage for a fast test
    LeakFrameSim sim(code, rc, np, 21);
    LrcSchedule none;
    for (int r = 0; r < 200; ++r)
        sim.run_round(none);
    EXPECT_GT(sim.n_data_leaked(), 0);
}

TEST(LeakFrameSim, LeakedDataReadsOutRandomly)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    np.mobility = 0.0;
    LeakFrameSim sim(code, rc, np, 31);
    int ones = 0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        sim.reset_shot();
        sim.inject_data_leak(0);
        ones += sim.final_data_measure()[0];
    }
    EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(LeakFrameSim, ResetShotClearsEverything)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    LeakFrameSim sim(code, rc, noiseless(), 3);
    sim.inject_data_leak(1);
    sim.inject_x(2);
    sim.reset_shot();
    EXPECT_EQ(sim.n_data_leaked(), 0);
    LrcSchedule none;
    const RoundResult rr = sim.run_round(none);
    for (int c = 0; c < code.n_checks(); ++c)
        EXPECT_EQ(rr.detector[c], 0);
}

}  // namespace
}  // namespace gld
