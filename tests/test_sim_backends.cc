// The Simulator interface contract, exercised identically against both
// backends (frame and tableau) THROUGH the interface — never through the
// concrete classes: noiseless syndrome determinism, injected-Pauli
// detector signatures, the classical leak-oracle semantics, and a full
// closed-loop experiment on the tableau backend via ExperimentRunner::run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "campaign/registry.h"
#include "codes/color_code.h"
#include "codes/surface_code.h"
#include "io/serialize.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

constexpr SimBackend kBackends[] = {SimBackend::kFrame,
                                    SimBackend::kTableau,
                                    SimBackend::kBatchFrame};

NoiseParams
noiseless()
{
    NoiseParams np;
    np.p = 0.0;
    np.leak_ratio = 0.0;
    np.lrc_leak_prob = 0.0;
    return np;
}

struct Harness {
    CssCode code;
    RoundCircuit rc;

    explicit Harness(CssCode c) : code(std::move(c)), rc(code) {}
};

TEST(SimBackends, NamesRoundTrip)
{
    EXPECT_EQ(backend_from_name("frame"), SimBackend::kFrame);
    EXPECT_EQ(backend_from_name("tableau"), SimBackend::kTableau);
    EXPECT_EQ(backend_from_name("batch_frame"), SimBackend::kBatchFrame);
    for (SimBackend b : kBackends)
        EXPECT_EQ(backend_from_name(backend_name(b)), b);
    EXPECT_THROW(backend_from_name("stim"), std::runtime_error);

    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 1);
        EXPECT_EQ(sim->name(), backend_name(b));
    }
}

TEST(SimBackends, KnownBackendsCoverTheEnumAndTheNameList)
{
    const std::vector<SimBackend>& all = known_backends();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_NE(std::find(all.begin(), all.end(), SimBackend::kBatchFrame),
              all.end());
    for (SimBackend b : kBackends)
        EXPECT_NE(std::find(all.begin(), all.end(), b), all.end());
    const std::string names = known_backend_names();
    for (SimBackend b : all)
        EXPECT_NE(names.find(backend_name(b)), std::string::npos)
            << names;
}

TEST(SimBackends, UnknownNameErrorListsTheKnownBackends)
{
    // The unhelpful-failure-mode fix: a typo'd backend name must name the
    // bad input AND every accepted name, wherever it enters the system.
    try {
        backend_from_name("stim");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"stim\""), std::string::npos) << what;
        EXPECT_NE(what.find("known backends"), std::string::npos) << what;
        for (SimBackend b : kBackends)
            EXPECT_NE(what.find(backend_name(b)), std::string::npos)
                << what;
    }
}

TEST(SimBackends, BackendFromEnvNamesTheVariableOnBadValues)
{
    // Restore the caller's selection afterwards: CI runs whole test
    // binaries under GLD_BACKEND=tableau, and clobbering the variable
    // here would silently de-gate every later env-honouring test.
    const char* prev_raw = std::getenv("GLD_BACKEND");
    const std::string prev = prev_raw != nullptr ? prev_raw : "";

    ASSERT_EQ(setenv("GLD_BACKEND", "no-such-engine", /*overwrite=*/1), 0);
    try {
        backend_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("GLD_BACKEND"), std::string::npos) << what;
        EXPECT_NE(what.find("no-such-engine"), std::string::npos) << what;
        EXPECT_NE(what.find("known backends"), std::string::npos) << what;
    }
    ASSERT_EQ(unsetenv("GLD_BACKEND"), 0);
    EXPECT_EQ(backend_from_env(), SimBackend::kFrame);  // unset = default

    if (prev_raw != nullptr) {
        ASSERT_EQ(setenv("GLD_BACKEND", prev.c_str(), 1), 0);
    }
}

TEST(SimBackends, NoiseSamplingNamesEnvAndContracts)
{
    // Name mapping round-trips, with the same helpful-failure contract
    // as the backend names.
    EXPECT_EQ(noise_sampling_from_name("lockstep"),
              NoiseSampling::kLockstep);
    EXPECT_EQ(noise_sampling_from_name("sparse"), NoiseSampling::kSparse);
    EXPECT_STREQ(noise_sampling_name(NoiseSampling::kLockstep), "lockstep");
    EXPECT_STREQ(noise_sampling_name(NoiseSampling::kSparse), "sparse");
    try {
        noise_sampling_from_name("dense");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"dense\""), std::string::npos) << what;
        EXPECT_NE(what.find("lockstep"), std::string::npos) << what;
        EXPECT_NE(what.find("sparse"), std::string::npos) << what;
    }

    // GLD_NOISE_SAMPLING: unset = lockstep; bad values name the variable.
    const char* prev_raw = std::getenv("GLD_NOISE_SAMPLING");
    const std::string prev = prev_raw != nullptr ? prev_raw : "";
    ASSERT_EQ(unsetenv("GLD_NOISE_SAMPLING"), 0);
    EXPECT_EQ(noise_sampling_from_env(), NoiseSampling::kLockstep);
    ASSERT_EQ(setenv("GLD_NOISE_SAMPLING", "dense", 1), 0);
    try {
        noise_sampling_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("GLD_NOISE_SAMPLING"),
                  std::string::npos)
            << e.what();
    }
    if (prev_raw != nullptr)
        ASSERT_EQ(setenv("GLD_NOISE_SAMPLING", prev.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("GLD_NOISE_SAMPLING"), 0);

    // RNG contracts: sparse moves ONLY the batch backends to new,
    // distinct contracts; the scalar backends ignore the mode — which is
    // exactly what makes (sparse grid, frame reference, batch candidate)
    // a statistical comparison against a genuine lockstep reference.
    const NoiseSampling L = NoiseSampling::kLockstep;
    const NoiseSampling S = NoiseSampling::kSparse;
    EXPECT_EQ(backend_rng_contract(SimBackend::kFrame, S),
              backend_rng_contract(SimBackend::kFrame, L));
    EXPECT_EQ(backend_rng_contract(SimBackend::kTableau, S),
              backend_rng_contract(SimBackend::kTableau, L));
    EXPECT_NE(backend_rng_contract(SimBackend::kBatchFrame, S),
              backend_rng_contract(SimBackend::kBatchFrame, L));
    EXPECT_NE(backend_rng_contract(SimBackend::kBatchFrame, S),
              backend_rng_contract(SimBackend::kTableau, S));
}

TEST(SimBackends, CostFactorIsFrameNormalizedAndQuadraticForTableau)
{
    // The campaign planner's throughput model: frame is the unit; the
    // tableau backend pays ~n^2/64 bit-plane words per measurement, never
    // less than a frame shot.
    for (int n : {1, 8, 17, 100, 1000})
        EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kFrame, n), 1.0);
    EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kTableau, 8), 1.0);
    EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kTableau, 16), 4.0);
    EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kTableau, 80), 100.0);
    // Tiny codes floor at the frame cost rather than dipping below it.
    EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kTableau, 2), 1.0);
    // Monotone in code size past the floor.
    double prev = 0.0;
    for (int n : {8, 16, 32, 64, 128}) {
        const double f = backend_cost_factor(SimBackend::kTableau, n);
        EXPECT_GT(f, prev);
        prev = f;
    }
    // The bit-packed backend serves 64 shots per driver pass: ~1/64 of a
    // frame shot, independent of code size.
    for (int n : {8, 17, 100, 1000})
        EXPECT_DOUBLE_EQ(backend_cost_factor(SimBackend::kBatchFrame, n),
                         1.0 / 64.0);
}

TEST(SimBackends, MakeSimulatorRejectsBadBatchWidths)
{
    // The batch width is validated uniformly at the factory for every
    // backend — a bad config fails the same way whether or not the
    // backend actually packs lanes.
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        for (int words : {0, -1, kMaxBatchWords + 1})
            EXPECT_THROW(
                make_simulator(b, h.code, h.rc, noiseless(), 1, words),
                std::invalid_argument);
        // Every in-range width constructs.
        for (int words : {1, 2, kMaxBatchWords}) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 1, words);
            EXPECT_EQ(sim->name(), backend_name(b));
        }
    }
}

TEST(SimBackends, NoiselessSyndromesAreDeterministicOnBothBackends)
{
    const Harness h(SurfaceCode::make(3));
    const LrcSchedule none;
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 7);
        RoundResult rr;
        for (int r = 0; r < 4; ++r) {
            rr = sim->run_round(none);
            for (int c = 0; c < h.code.n_checks(); ++c)
                EXPECT_EQ(rr.detector[c], 0) << "round " << r << " check "
                                             << c;
        }
        // Final transversal readout: individual outcomes may be random
        // on an exact-stabilizer backend (X-check projections), but the
        // parities the runner decodes from are deterministic — every
        // Z-check support parity matches the last ancilla measurement
        // (quiet final detector) and the logical-Z parity is 0 (|0_L>).
        const std::vector<uint8_t> flips = sim->final_data_measure();
        for (int c = 0; c < h.code.n_checks(); ++c) {
            if (h.code.check(c).type != CheckType::kZ)
                continue;
            uint8_t parity = rr.meas_flip[c];
            for (int q : h.code.check(c).support)
                parity ^= flips[q];
            EXPECT_EQ(parity, 0) << "check " << c;
        }
        uint8_t logical = 0;
        for (int q : h.code.logical_z())
            logical ^= flips[q];
        EXPECT_EQ(logical, 0);
    }
}

/** One noiseless round; returns the detector vector. */
std::vector<uint8_t>
quiet_round(Simulator* sim)
{
    const LrcSchedule none;
    return sim->run_round(none).detector;
}

TEST(SimBackends, InjectedXSignatureAgreesAcrossBackends)
{
    const Harness h(SurfaceCode::make(3));
    for (int q = 0; q < h.code.n_data(); ++q) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 11);
            quiet_round(sim.get());
            sim->inject_x(q);
            sig.push_back(quiet_round(sim.get()));
            // The signature is a one-round event: the next round is
            // quiet again (the flip is permanent, the detector XOR
            // cancels).
            for (uint8_t d : quiet_round(sim.get()))
                EXPECT_EQ(d, 0);
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, InjectedZSignatureAgreesAcrossBackends)
{
    // Z faults show up on X checks — also covers the Hadamard paths.
    const Harness h(SurfaceCode::make(3));
    for (int q = 0; q < h.code.n_data(); ++q) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 13);
            quiet_round(sim.get());
            sim->inject_z(q);
            sig.push_back(quiet_round(sim.get()));
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, InjectedXSignatureAgreesOnColorCode)
{
    // A self-dual code with a different scheduled circuit shape.
    const Harness h(ColorCode::make(5));
    for (int q = 0; q < h.code.n_data(); q += 3) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 17);
            quiet_round(sim.get());
            sim->inject_x(q);
            sig.push_back(quiet_round(sim.get()));
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, LeakOracleSemanticsAgreeAcrossBackends)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 19);
        EXPECT_EQ(sim->n_data_leaked(), 0);
        EXPECT_EQ(sim->n_check_leaked(), 0);

        sim->inject_data_leak(2);
        EXPECT_TRUE(sim->data_leaked(2));
        EXPECT_EQ(sim->n_data_leaked(), 1);

        sim->inject_check_leak(1);
        EXPECT_TRUE(sim->check_leaked(1));
        EXPECT_EQ(sim->n_check_leaked(), 1);

        // Measurement + reset rounds do NOT clear leakage (noiseless,
        // zero mobility: nothing can move or clear the flags)...
        quiet_round(sim.get());
        EXPECT_TRUE(sim->data_leaked(2));
        EXPECT_TRUE(sim->check_leaked(1));

        // ...but the LRC gadgets do.
        LrcSchedule lrcs;
        lrcs.data_qubits = {2};
        lrcs.checks = {1};
        sim->run_round(lrcs);
        EXPECT_FALSE(sim->data_leaked(2));
        EXPECT_FALSE(sim->check_leaked(1));
        EXPECT_EQ(sim->n_data_leaked(), 0);
        EXPECT_EQ(sim->n_check_leaked(), 0);

        // reset_shot clears everything.
        sim->inject_data_leak(0);
        sim->reset_shot();
        EXPECT_EQ(sim->n_data_leaked(), 0);
    }
}

TEST(SimBackends, LeakedDataRandomizesAdjacentChecksOnBothBackends)
{
    // A leaked data qubit malfunctions its CNOTs: adjacent checks see
    // random flips (~50% per §2.3), so over many rounds each backend must
    // fire SOME detector events — the behaviour speculation policies key
    // on, here observed through the shared interface.
    const Harness h(SurfaceCode::make(3));
    NoiseParams np = noiseless();
    np.mobility = 0.0;  // keep the leak parked on the data qubit
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, np, 23);
        quiet_round(sim.get());
        sim->inject_data_leak(4);
        int events = 0;
        for (int r = 0; r < 20; ++r) {
            for (uint8_t d : quiet_round(sim.get()))
                events += d;
        }
        EXPECT_GT(events, 0);
        EXPECT_TRUE(sim->data_leaked(4));
    }
}

// --- Closed loop through ExperimentRunner::run() on the tableau backend. ---

ExperimentConfig
tableau_cfg()
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 6;
    cfg.shots = 24;
    cfg.seed = 0x7AB1EA05EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 8;  // small run: keep a few shots per stream
    cfg.backend = SimBackend::kTableau;
    return cfg;
}

TEST(SimBackends, TableauClosedLoopRunsUnderEraserPolicy)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const ExperimentConfig cfg = tableau_cfg();
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(/*use_mlr=*/true));
    EXPECT_EQ(m.shots, cfg.shots);
    EXPECT_EQ(m.decoded_shots, cfg.shots);
    EXPECT_GT(m.lrc_check_total + m.lrc_data_total, 0.0);
    // Leakage sampling guarantees ground-truth leakage to account.
    EXPECT_GT(m.dlp_total, 0.0);

    // Determinism contract holds per backend: bit-identical across
    // thread counts.
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        ExperimentConfig c = cfg;
        c.threads = threads;
        const ExperimentRunner r2(ctx, c);
        expect_metrics_identical(m, r2.run(PolicyZoo::eraser(true)));
    }
}

TEST(SimBackends, TableauOracleFeedsIdealPolicyThroughInterface)
{
    // IDEAL reads the ground truth from the leak words the tableau
    // backend exposes as a one-lane batch — this pins that they are its
    // driver's live flags.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg = tableau_cfg();
    cfg.compute_ler = false;
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::ideal());
    // The oracle policy never misses and never misfires.
    EXPECT_DOUBLE_EQ(m.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
    EXPECT_GT(m.tp_total, 0.0);
}

TEST(SimBackends, NoiselessTableauLerIsZero)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg = tableau_cfg();
    cfg.np = noiseless();
    cfg.leakage_sampling = false;
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_EQ(m.decoded_shots, cfg.shots);
    EXPECT_EQ(m.logical_errors, 0);
}

// --- The batch gate: frame vs batch_frame must be BIT-identical. ---
//
// The bit-packed backend's whole correctness story is that lane k of a
// batch replays the scalar frame backend's shot k draw for draw, so the
// aggregated Metrics of any config must match frame's exactly — not
// statistically, bitwise.  Every noisy code path is exercised: LRC-heavy
// policies, the oracle policy (per-lane oracle views), MLR, decoding,
// leakage sampling, multi-block streams and a partial final batch.

Metrics
run_backend(const CodeContext& ctx, ExperimentConfig cfg, SimBackend b,
            const PolicyFactory& factory, int threads = 1)
{
    cfg.backend = b;
    cfg.threads = threads;
    return ExperimentRunner(ctx, cfg).run(factory);
}

TEST(BatchFrameBitEquality, SurfaceEraserWithLerAndSeries)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.5);  // busy leak dynamics
    cfg.rounds = 8;
    cfg.shots = 100;  // streams of 12/13 shots: every batch is partial
    cfg.seed = 0xBA7C4F5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 8;

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, factory);
    EXPECT_GT(frame.dlp_total, 0.0);
    EXPECT_GT(frame.lrc_data_total + frame.lrc_check_total, 0.0);
    for (int threads : {1, 8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            frame, run_backend(ctx, cfg, SimBackend::kBatchFrame, factory,
                               threads));
    }
}

TEST(BatchFrameBitEquality, MultiBlockStreamsAndPartialFinalBatch)
{
    // One stream of 150 shots: batches of 64, 64 and 22 — the padded
    // final batch must not perturb the active lanes.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 1.0);
    cfg.rounds = 5;
    cfg.shots = 150;
    cfg.seed = 0xB10C64B17ull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 1;
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 3);
    ASSERT_NE(cfg.shots % ExperimentRunner::kShotBlock, 0);

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, factory);
    for (int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            frame, run_backend(ctx, cfg, SimBackend::kBatchFrame, factory,
                               threads));
    }
}

TEST(BatchFrameBitEquality, IdealOracleReadsPerLaneTruth)
{
    // The oracle policy on the batch path reads a per-lane oracle view;
    // a lane seeing any other lane's truth breaks FN/FP == frame.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 1.0);
    cfg.rounds = 6;
    cfg.shots = 96;
    cfg.seed = 0x1DEA15EEDull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 1;  // one 64-lane batch + one 32-lane batch

    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, PolicyZoo::ideal());
    const Metrics batch = run_backend(ctx, cfg, SimBackend::kBatchFrame,
                                      PolicyZoo::ideal());
    EXPECT_DOUBLE_EQ(batch.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(batch.fp_total, 0.0);
    EXPECT_GT(batch.tp_total, 0.0);
    expect_metrics_identical(frame, batch);
}

TEST(BatchFrameBitEquality, ColorCodeGladiatorPolicy)
{
    // A different circuit shape (self-dual color code) and the stateful
    // table-driven policy, 64 instances of which run lane-parallel.
    const CssCode code = ColorCode::make(5);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.5);
    cfg.rounds = 6;
    cfg.shots = 80;
    cfg.seed = 0xC0104B17ull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 4;

    const PolicyFactory factory =
        PolicyZoo::gladiator(/*use_mlr=*/true, cfg.np);
    expect_metrics_identical(
        run_backend(ctx, cfg, SimBackend::kFrame, factory),
        run_backend(ctx, cfg, SimBackend::kBatchFrame, factory, 4));
}

TEST(BatchFrameBitEquality, ScalarInterfaceCallsMatchFrameDrawForDraw)
{
    // Through the scalar Simulator API a batch sim runs one-lane batches;
    // with the same seed the per-round results must equal frame's exactly
    // (same master stream, same split-per-shot derivation).
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    const auto frame =
        make_simulator(SimBackend::kFrame, h.code, h.rc, np, 99);
    const auto batch =
        make_simulator(SimBackend::kBatchFrame, h.code, h.rc, np, 99);
    const LrcSchedule none;
    for (int shot = 0; shot < 4; ++shot) {
        frame->reset_shot();
        batch->reset_shot();
        for (int r = 0; r < 6; ++r) {
            const RoundResult a = frame->run_round(none);
            const RoundResult b = batch->run_round(none);
            EXPECT_EQ(a.meas_flip, b.meas_flip);
            EXPECT_EQ(a.detector, b.detector);
            EXPECT_EQ(a.mlr_flag, b.mlr_flag);
        }
        EXPECT_EQ(frame->final_data_measure(),
                  batch->final_data_measure());
        EXPECT_EQ(frame->n_data_leaked(), batch->n_data_leaked());
        EXPECT_EQ(frame->n_check_leaked(), batch->n_check_leaked());
    }
}

// Every registry policy, not only the handful above: frame and
// batch_frame must agree bitwise with LER and leakage sampling on, at
// several batch widths, with a partial trailing block in every stream.
struct PolicyEqualityCase {
    const char* code;
    std::string policy;
    int batch_words;
    const char* noise_name = "";  ///< test-name suffix; "" = standard
    NoiseParams np = NoiseParams::standard(2e-3, 0.5);  // busy leaks
};

class EveryPolicyBitEquality
    : public ::testing::TestWithParam<PolicyEqualityCase> {};

TEST_P(EveryPolicyBitEquality, BatchFrameMatchesFrame)
{
    const PolicyEqualityCase& pc = GetParam();
    const auto inst = campaign::make_code(pc.code);
    ExperimentConfig cfg;
    cfg.np = pc.np;
    cfg.rounds = 5;
    cfg.batch_words = pc.batch_words;
    // Two streams, each one full block plus a partial trailing block
    // whose boundary falls inside a word.
    cfg.rng_streams = 2;
    cfg.shots = 2 * (ExperimentRunner::shot_block(cfg) + 37);
    cfg.seed = 0xE7E2F0A11ull + static_cast<uint64_t>(pc.batch_words);
    cfg.leakage_sampling = true;
    cfg.compute_ler = true;
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 2);

    const PolicyFactory factory = campaign::make_policy(pc.policy, cfg.np);
    const Metrics frame =
        run_backend(inst->ctx, cfg, SimBackend::kFrame, factory);
    EXPECT_GT(frame.dlp_total, 0.0);
    expect_metrics_identical(
        frame, run_backend(inst->ctx, cfg, SimBackend::kBatchFrame,
                           factory, 2));
}

std::vector<PolicyEqualityCase>
every_policy_cases()
{
    std::vector<PolicyEqualityCase> out;
    for (const char* code : {"surface:5", "color:7"}) {
        for (const std::string& policy : campaign::known_policies()) {
            for (int k : {1, 2, 8})
                out.push_back({code, policy, k});
        }
    }
    // Degenerate rates: a rate of 0 or 1 consumes no draw (the
    // Rng::bernoulli contract), so these send sites through the no-draw
    // short-circuits — pl never fires, MLR never or always fires, and
    // only the sampled leaks and their transport move anything at p = 0.
    // At p = 1 every readout error fires without a draw, so the clean
    // lanes of a readout take no draw while the leaked lanes coin-flip.
    const double p = 2e-3;
    std::vector<std::pair<const char*, NoiseParams>> degenerate(
        5, {"", NoiseParams::standard(p, 0.5)});
    degenerate[0].first = "leak_ratio_0";
    degenerate[0].second.leak_ratio = 0.0;
    degenerate[1].first = "mlr_ratio_0";
    degenerate[1].second.mlr_ratio = 0.0;
    degenerate[2].first = "mlr_ratio_inv_p";
    degenerate[2].second.mlr_ratio = 1.0 / p;  // mlr_err() == 1 exactly
    degenerate[3].first = "p_0";
    degenerate[3].second.p = 0.0;
    degenerate[3].second.lrc_leak_prob = 0.0;
    degenerate[4] = {"p_1", NoiseParams::standard(1.0, 0.5)};
    for (const auto& [name, np] : degenerate) {
        for (int k : {1, 2, 3})
            out.push_back({"surface:5", "eraser_m", k, name, np});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    BatchFrameBitEquality, EveryPolicyBitEquality,
    ::testing::ValuesIn(every_policy_cases()),
    [](const ::testing::TestParamInfo<PolicyEqualityCase>& tp) {
        std::string name = std::string(tp.param.code) + "_" +
                           tp.param.policy + "_K" +
                           std::to_string(tp.param.batch_words);
        if (*tp.param.noise_name != '\0')
            name += std::string("_") + tp.param.noise_name;
        std::replace(name.begin(), name.end(), ':', '_');
        return name;
    });

TEST(SimBackends, BackendsAgreeStatisticallyOnDlp)
{
    // Same config, different backends: the leak-flag dynamics are
    // identical machinery, so the DLP rates must agree statistically
    // (the tableau engine draws independent measurement randomness).
    // Refereed by the SAME stats:: pipeline gld_campaign verify uses — a
    // pooled two-proportion z-test on Metrics::dlp_sample — instead of
    // the arbitrary 0.5x..2x ratio bounds this test shipped with.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 1.0);  // leak-rich
    cfg.rounds = 12;
    cfg.shots = 160;
    cfg.seed = 0xA9EEB05EEDull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 8;

    cfg.backend = SimBackend::kFrame;
    const Metrics frame = ExperimentRunner(ctx, cfg).run(PolicyZoo::no_lrc());
    ASSERT_GT(frame.dlp_mean(), 0.0);
    const int n_data = code.n_data();
    cfg.backend = SimBackend::kTableau;
    const Metrics tab = ExperimentRunner(ctx, cfg).run(PolicyZoo::no_lrc());
    ASSERT_GT(tab.dlp_mean(), 0.0);
    const stats::TwoProportionResult r = stats::two_proportion_z(
        frame.dlp_sample(n_data), tab.dlp_sample(n_data));
    // One pinned-seed test = one draw from the null; alpha 0.001 keeps
    // the false-failure budget negligible while catching any real
    // divergence (a broken backend shifts DLP by far more than 3 sigma).
    EXPECT_GE(r.p_value, 0.001)
        << "dlp " << frame.dlp_mean() << " vs " << tab.dlp_mean()
        << " (z=" << r.z << ")";
}

TEST(BatchFrameBitEquality, ScalarInterfaceAtWideBatchStillMatchesFrame)
{
    // The scalar Simulator adapters run one-lane batches regardless of
    // the constructed batch width: lane 0's RNG stream is derived from
    // the same per-shot split at any K, so a K=4 batch sim driven
    // through the scalar API must still equal frame draw for draw.
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    const auto frame =
        make_simulator(SimBackend::kFrame, h.code, h.rc, np, 99);
    const auto batch = make_simulator(SimBackend::kBatchFrame, h.code,
                                      h.rc, np, 99, /*batch_words=*/4);
    const LrcSchedule none;
    for (int shot = 0; shot < 4; ++shot) {
        frame->reset_shot();
        batch->reset_shot();
        for (int r = 0; r < 6; ++r) {
            const RoundResult a = frame->run_round(none);
            const RoundResult b = batch->run_round(none);
            EXPECT_EQ(a.meas_flip, b.meas_flip);
            EXPECT_EQ(a.detector, b.detector);
            EXPECT_EQ(a.mlr_flag, b.mlr_flag);
        }
        EXPECT_EQ(frame->final_data_measure(),
                  batch->final_data_measure());
    }
}


// --- The one-lane batch contract of the scalar backends. ---

constexpr SimBackend kScalarBackends[] = {SimBackend::kFrame,
                                          SimBackend::kTableau};

TEST(OneLaneBatch, RefusesAnyLaneButZero)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kScalarBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 1, 4);
        EXPECT_EQ(sim->batch_width(), 1);
        EXPECT_EQ(sim->batch_n_words(), 1);
        for (int n : {0, 2, 64})
            EXPECT_THROW(sim->reset_shot_batch(n), std::invalid_argument);
        EXPECT_THROW(sim->inject_data_leak_lane(1, 0),
                     std::invalid_argument);
        sim->reset_shot_batch(1);
        sim->inject_data_leak_lane(0, 2);
        EXPECT_TRUE(sim->data_leaked(2));
        EXPECT_EQ(sim->leaked_words()[2], 1u);
        EXPECT_EQ(sim->leaked_words()[0], 0u);
    }
}

TEST(OneLaneBatch, WordsMatchTheScalarCallsOfASameSeedTwin)
{
    // Same seed, same schedules: the one-lane words of run_round_masks
    // (even rounds) and run_round_batch (odd rounds) must equal the
    // bytes run_round hands a twin, and likewise the final readout.
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    const int n_data = h.code.n_data();
    const int n_checks = h.code.n_checks();
    for (SimBackend b : kScalarBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto words = make_simulator(b, h.code, h.rc, np, 31);
        const auto bytes = make_simulator(b, h.code, h.rc, np, 31);
        // The round words exist, zeroed, before the first round.
        for (int c = 0; c < n_checks; ++c) {
            EXPECT_EQ(words->detector_words()[c], 0u);
            EXPECT_EQ(words->meas_flip_words()[c], 0u);
            EXPECT_EQ(words->mlr_flag_words()[c], 0u);
        }
        LrcMasks masks;
        std::vector<LrcSchedule> lane_scheds(1);
        std::vector<RoundResult> lane_rounds;
        for (int shot = 0; shot < 4; ++shot) {
            words->reset_shot_batch(1);
            bytes->reset_shot();
            words->inject_data_leak_lane(0, shot);
            bytes->inject_data_leak(shot);
            LrcSchedule sched;
            for (int r = 0; r < 6; ++r) {
                if (r % 2 == 0) {
                    masks.reset(n_data, n_checks, 1);
                    masks.add_lane(0, sched);
                    words->run_round_masks(masks);
                } else {
                    lane_scheds[0] = sched;
                    words->run_round_batch(lane_scheds, &lane_rounds);
                }
                const RoundResult rr = bytes->run_round(sched);
                if (r % 2 == 1) {
                    EXPECT_EQ(lane_rounds.at(0).detector, rr.detector);
                    EXPECT_EQ(lane_rounds.at(0).meas_flip, rr.meas_flip);
                    EXPECT_EQ(lane_rounds.at(0).mlr_flag, rr.mlr_flag);
                }
                for (int c = 0; c < n_checks; ++c) {
                    const size_t ci = static_cast<size_t>(c);
                    EXPECT_EQ(words->detector_words()[c], rr.detector[ci]);
                    EXPECT_EQ(words->meas_flip_words()[c],
                              rr.meas_flip[ci]);
                    EXPECT_EQ(words->mlr_flag_words()[c], rr.mlr_flag[ci]);
                    EXPECT_EQ(words->leaked_words()[h.code.ancilla_of(c)],
                              bytes->check_leaked(c) ? 1u : 0u);
                }
                for (int q = 0; q < n_data; ++q)
                    EXPECT_EQ(words->leaked_words()[q],
                              bytes->data_leaked(q) ? 1u : 0u);
                // Next round: LRC the leaked data qubits and the checks
                // whose detector fired.
                sched.clear();
                for (int q = 0; q < n_data; ++q) {
                    if (bytes->data_leaked(q))
                        sched.data_qubits.push_back(q);
                }
                for (int c = 0; c < n_checks; ++c) {
                    if (rr.detector[static_cast<size_t>(c)])
                        sched.checks.push_back(c);
                }
            }
            const std::vector<uint8_t> want = bytes->final_data_measure();
            const LaneMask* got = words->final_data_measure_words();
            for (int q = 0; q < n_data; ++q)
                EXPECT_EQ(got[q], want[static_cast<size_t>(q)]);
        }
    }
}

// --- The lane-0 adapter: the scalar calls over the batch entry points. ---

TEST(LaneZeroAdapter, UnorderedScalarSchedulesAreRefusedOnEveryBackend)
{
    // Every backend's scalar run_round packs lane 0 with
    // LrcMasks::add_lane, so a descending, repeated or out-of-range list
    // is refused the same way everywhere — before any draw, so a twin
    // that never saw the refused calls stays in lockstep.
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    std::vector<LrcSchedule> bad(5);
    bad[0].data_qubits = {3, 1};
    bad[1].data_qubits = {2, 2};
    bad[2].checks = {4, 0};
    bad[3].checks = {1, 1};
    bad[4].data_qubits = {h.code.n_data()};
    LrcSchedule ok;
    ok.data_qubits = {1, 3};
    ok.checks = {0, 4};
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, np, 5);
        const auto twin = make_simulator(b, h.code, h.rc, np, 5);
        sim->reset_shot();
        twin->reset_shot();
        std::vector<RoundResult> out;
        for (const LrcSchedule& s : bad) {
            EXPECT_THROW(sim->run_round(s), std::invalid_argument);
            EXPECT_THROW(sim->run_round_batch({s}, &out),
                         std::invalid_argument);
        }
        EXPECT_THROW(sim->run_round_batch({}, &out), std::invalid_argument);
        for (int r = 0; r < 3; ++r) {
            const RoundResult got = sim->run_round(ok);
            const RoundResult want = twin->run_round(ok);
            EXPECT_EQ(got.detector, want.detector);
            EXPECT_EQ(got.meas_flip, want.meas_flip);
            EXPECT_EQ(got.mlr_flag, want.mlr_flag);
        }
    }
}

TEST(LaneZeroAdapter, LeakageOracleMatchesLeakWordPopcountsAtK2)
{
    // LeakageOracle over batch_frame's K = 2 leak words must count what
    // popcounts of the words count, at both edges of both words.
    const Harness h(SurfaceCode::make(5));
    const NoiseParams np = NoiseParams::standard(1e-2, 1.0);
    const auto sim =
        make_simulator(SimBackend::kBatchFrame, h.code, h.rc, np, 11, 2);
    const int K = sim->batch_n_words();
    ASSERT_EQ(K, 2);
    const int n_data = h.code.n_data();
    const int n_checks = h.code.n_checks();
    const int lanes[] = {0, 63, 64, 127};
    sim->reset_shot_batch(128);
    for (int i = 0; i < 4; ++i)
        sim->inject_data_leak_lane(lanes[i], 2 * i);
    LrcMasks none;
    none.reset(n_data, n_checks, K);
    for (int r = 0; r < 5; ++r)
        sim->run_round_masks(none);
    const LaneMask* words = sim->leaked_words();
    int total = 0;
    for (int lane : lanes) {
        SCOPED_TRACE(lane);
        const LeakageOracle oracle(h.code, words, K, lane);
        const size_t w = static_cast<size_t>(lane >> 6);
        const LaneMask bit = 1ull << (lane & 63);
        const auto count = [&](int q) {
            return __builtin_popcountll(
                words[static_cast<size_t>(q) * static_cast<size_t>(K) + w] &
                bit);
        };
        int want_data = 0;
        for (int q = 0; q < n_data; ++q) {
            EXPECT_EQ(oracle.data_leaked(q), count(q) == 1) << q;
            want_data += count(q);
        }
        int want_check = 0;
        for (int c = 0; c < n_checks; ++c) {
            EXPECT_EQ(oracle.check_leaked(c),
                      count(h.code.ancilla_of(c)) == 1)
                << c;
            want_check += count(h.code.ancilla_of(c));
        }
        EXPECT_EQ(oracle.n_data_leaked(), want_data);
        EXPECT_EQ(oracle.n_check_leaked(), want_check);
        if (lane == 0) {
            EXPECT_EQ(sim->n_data_leaked(), want_data);
            EXPECT_EQ(sim->n_check_leaked(), want_check);
        }
        total += want_data + want_check;
    }
    EXPECT_GT(total, 0);  // the injected leaks are still visible
}

// --- Scalar-backend golden digest. ---
//
// frame is pinned to batch_frame by the bit-equality gates above, but
// tableau shares its RNG contract with no other engine, so nothing else
// pins what the runner makes of it.  Every registry policy runs on
// frame and tableau over two codes in three modes (leakage sampling,
// LER, DLP series), with three streams, three threads and a partial
// trailing block in every stream.  Each run's metrics_to_json, and its
// merged telemetry record with the wall-clock timers zeroed (leak
// histogram, heatmap, shot and round counts), feed one FNV-1a hash per
// (backend, code).  Pinned while frame and tableau still ran the
// runner's scalar shot loop; the one-lane batch path must match it.

uint64_t
fnv1a(uint64_t h, const std::string& bytes)
{
    for (const char ch : bytes) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

struct ScalarDigest {
    uint64_t metrics = 0xcbf29ce484222325ull;
    uint64_t telemetry = 0xcbf29ce484222325ull;
};

ScalarDigest
scalar_digest(SimBackend backend, const char* code)
{
    const auto inst = campaign::make_code(code);
    ScalarDigest d;
    for (const std::string& policy : campaign::known_policies()) {
        for (int mode = 0; mode < 3; ++mode) {
            ExperimentConfig cfg;
            cfg.np = NoiseParams::standard(2e-3, 0.5);
            cfg.rounds = 3;
            cfg.rng_streams = 3;
            cfg.threads = 3;
            cfg.shots = 3 * (ExperimentRunner::shot_block(cfg) + 5);
            cfg.seed = 0x5CA1A2D16E57ull;
            cfg.backend = backend;
            cfg.leakage_sampling = mode == 0;
            cfg.compute_ler = mode == 1;
            cfg.record_dlp_series = mode == 2;
            ExperimentRunner runner(inst->ctx, cfg);
            telemetry::Collector::Options opt;
            opt.heatmap = true;
            telemetry::Collector col(std::move(opt));
            runner.set_telemetry(&col);
            const Metrics m =
                runner.run(campaign::make_policy(policy, cfg.np));
            telemetry::Record rec = col.merged();
            std::fill(std::begin(rec.stage_ns), std::end(rec.stage_ns), 0);
            d.metrics = fnv1a(d.metrics, io::metrics_to_json(m).dump());
            d.telemetry = fnv1a(d.telemetry, rec.to_json().dump());
        }
    }
    return d;
}

TEST(ScalarBackendGolden, MetricsAndTelemetryDigestIsPinned)
{
    struct Pin {
        SimBackend backend;
        const char* code;
        uint64_t metrics;
        uint64_t telemetry;
    };
    const Pin pins[] = {
        {SimBackend::kFrame, "surface:3", 0x91a8b62b1b27d2c3ull,
         0xe3c28d5ef19d7c48ull},
        {SimBackend::kFrame, "color:5", 0x0dcf15d12bb0a98aull,
         0x7a590dade1caa225ull},
        {SimBackend::kTableau, "surface:3", 0x1761375831c69dd2ull,
         0xbf9d1b2bc2e92439ull},
        {SimBackend::kTableau, "color:5", 0x8c2ebd6f504d889aull,
         0xd348f0d941fb13a0ull},
    };
    for (const Pin& pin : pins) {
        SCOPED_TRACE(std::string(backend_name(pin.backend)) + "/" +
                     pin.code);
        const ScalarDigest d = scalar_digest(pin.backend, pin.code);
        EXPECT_EQ(d.metrics, pin.metrics);
        EXPECT_EQ(d.telemetry, pin.telemetry);
    }
}

// --- Sparse-mode golden digest. ---
//
// Sparse sampling draws its own event sequence, which no other engine
// replays, so no bit-equality gate pins what batch_frame + sparse
// produces; only the statistical referee and the run-to-run determinism
// tests see it.  This digest pins it: four policies run on batch_frame
// with sparse sampling, two streams of one full block plus a 19-shot
// partial trailing block each, in two modes (leakage sampling with the
// DLP series, and LER).  Every run's metrics_to_json feeds one FNV-1a
// hash per (code, K).  The digest also pins the libm `log` behind the
// sparse geometric skips on whatever host runs it.

uint64_t
sparse_digest(const char* code, int batch_words)
{
    const auto inst = campaign::make_code(code);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char* policy :
         {"no_lrc", "eraser_m", "gladiator_m", "gladiator_d_m"}) {
        for (int mode = 0; mode < 2; ++mode) {
            ExperimentConfig cfg;
            cfg.np = NoiseParams::standard(2e-3, 0.5);
            cfg.rounds = 4;
            cfg.rng_streams = 2;
            cfg.threads = 2;
            cfg.batch_words = batch_words;
            cfg.backend = SimBackend::kBatchFrame;
            cfg.noise_sampling = NoiseSampling::kSparse;
            cfg.shots = 2 * (ExperimentRunner::shot_block(cfg) + 19);
            cfg.seed = 0x5BA25E601Dull;
            cfg.leakage_sampling = mode == 0;
            cfg.record_dlp_series = mode == 0;
            cfg.compute_ler = mode == 1;
            ExperimentRunner runner(inst->ctx, cfg);
            const Metrics m =
                runner.run(campaign::make_policy(policy, cfg.np));
            h = fnv1a(h, io::metrics_to_json(m).dump());
        }
    }
    return h;
}

TEST(SparseGolden, BatchFrameMetricsDigestIsPinned)
{
    struct Pin {
        const char* code;
        int batch_words;
        uint64_t metrics;
    };
    const Pin pins[] = {
        {"surface:5", 1, 0xbc0caccd02f13f09ull},
        {"surface:5", 2, 0x0a62a0713d59fb17ull},
        {"surface:7", 1, 0x9efcae81a9b6a2ceull},
        {"surface:7", 2, 0x2001a54e303f2fdbull},
        {"color:7", 1, 0xefebad2d486fb251ull},
        {"color:7", 2, 0x0c3c0a57fc455677ull},
        {"hgp_hamming", 1, 0xc1ae028942590959ull},
        {"hgp_hamming", 2, 0x100fe75e25af9916ull},
    };
    for (const Pin& pin : pins) {
        SCOPED_TRACE(std::string(pin.code) + " K=" +
                     std::to_string(pin.batch_words));
        EXPECT_EQ(sparse_digest(pin.code, pin.batch_words), pin.metrics);
    }
}

}  // namespace
}  // namespace gld
