// Adaptive recalibration scenario (paper §4.3): device noise drifts over
// time; GLADIATOR rebuilds only the edge weights of its error-propagation
// graph and relabels the pattern tables, adapting the flagged set without
// touching the graph structure or the hardware datapath.

#include <cstdio>

#include "codes/surface_code.h"
#include "core/mobility.h"
#include "core/pattern_table.h"
#include "core/policy_gladiator.h"
#include "runtime/experiment.h"
#include "sim/frame_sim.h"
#include "util/config.h"

using namespace gld;

int
main()
{
    const CssCode code = SurfaceCode::make(7);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, PatternScope::kBothTypes);

    std::printf("Device drift scenario: leakage ratio lr sweeps from 0.01 "
                "to 1.0.\n\n");
    std::printf("%-8s %-22s %-22s\n", "lr", "stale table (lr=0.1)",
                "recalibrated table");
    std::printf("%-8s %-10s %-10s %-10s %-10s\n", "", "FP/shot", "FN/shot",
                "FP/shot", "FN/shot");

    const NoiseParams calib_np = NoiseParams::standard(1e-3, 0.1);
    for (double lr : {0.01, 0.1, 1.0}) {
        const NoiseParams true_np = NoiseParams::standard(1e-3, lr);
        ExperimentConfig cfg;
        cfg.np = true_np;
        cfg.rounds = 70;
        cfg.shots = BenchConfig::shots(200);
        cfg.threads = BenchConfig::threads();
        engine_from_env(&cfg);
        cfg.leakage_sampling = true;
        ExperimentRunner runner(ctx, cfg);
        // Stale: tables built for the old calibration point.
        const Metrics stale =
            runner.run(PolicyZoo::gladiator(true, calib_np));
        // Recalibrated: tables rebuilt for the current noise.
        const Metrics fresh =
            runner.run(PolicyZoo::gladiator(true, true_np));
        std::printf("%-8.2f %-10.2f %-10.2f %-10.2f %-10.2f\n", lr,
                    stale.fp_per_shot(), stale.fn_per_shot(),
                    fresh.fp_per_shot(), fresh.fn_per_shot());
    }

    // Mobility probing decides open- vs closed-loop deployment (§7.6).
    std::printf("\nMobility probe (decides open- vs closed-loop "
                "deployment):\n");
    for (double mob : {0.01, 0.2}) {
        NoiseParams np = NoiseParams::standard(1e-3, 1.0);
        np.mobility = mob;
        auto tables = std::make_shared<const PatternTableSet>(
            PatternTableSet::build(ctx, np, {}, false));
        GladiatorPolicy policy(ctx, tables, true);
        MobilityEstimator est(ctx);
        LeakFrameSim sim(code, rc, np, 11);
        Rng shot_rng(3);
        LrcSchedule sched;
        for (int shot = 0; shot < 50; ++shot) {
            sim.reset_shot();
            policy.begin_shot();
            sched.clear();
            sim.inject_data_leak(
                static_cast<int>(shot_rng.uniform_int(code.n_data())));
            for (int r = 0; r < 40; ++r) {
                const RoundResult rr = sim.run_round(sched);
                policy.observe(r, rr, &sched);
                est.observe(sched.data_qubits, rr);
            }
        }
        std::printf("  mobility %.0f%%: conditional co-leak rate %.4f over "
                    "%ld flags\n",
                    mob * 100, est.conditional_rate(), est.samples());
    }
    std::printf("\nRecalibration = rebuild weights + relabel; the graph "
                "structure and the FPGA checker stay fixed.\n");
    return 0;
}
