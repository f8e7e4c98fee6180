// qLDPC scenario: leakage speculation on irregular Tanner graphs (HGP and
// BPC codes, paper §5.1 / Table 5) — the regime where hand-crafted
// heuristics break down and the code-aware graph model shines.

#include <cstdio>

#include "codes/bpc_code.h"
#include "codes/hgp_code.h"
#include "runtime/experiment.h"
#include "util/config.h"

using namespace gld;

namespace {

void
run_code(const CssCode& code)
{
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    std::printf("\n== %s: n=%d, checks=%d, k=%d, pattern widths up to %d "
                "bits ==\n",
                code.name().c_str(), code.n_data(), code.n_checks(),
                code.k_logical(), ctx.max_degree());

    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    ExperimentConfig cfg;
    cfg.np = np;
    cfg.rounds = 100;
    cfg.shots = BenchConfig::shots(200);
    cfg.threads = BenchConfig::threads();
    engine_from_env(&cfg);
    cfg.leakage_sampling = true;
    ExperimentRunner runner(ctx, cfg);

    const Metrics er = runner.run(PolicyZoo::eraser(true));
    const Metrics gl = runner.run(PolicyZoo::gladiator(true, np));
    std::printf("%-14s FP/shot %8.2f  LRC/shot %8.1f  DLP %.2e\n",
                "ERASER+M", er.fp_per_shot(), er.lrc_per_shot(),
                er.dlp_mean());
    std::printf("%-14s FP/shot %8.2f  LRC/shot %8.1f  DLP %.2e\n",
                "GLADIATOR+M", gl.fp_per_shot(), gl.lrc_per_shot(),
                gl.dlp_mean());
    std::printf("reduction: %.2fx fewer LRCs, %.2fx lower DLP\n",
                er.lrc_per_shot() / gl.lrc_per_shot(),
                er.dlp_mean() / gl.dlp_mean());
}

}  // namespace

int
main()
{
    run_code(HgpCode::make_hamming());
    run_code(BpcCode::make_default());
    std::printf("\nGLADIATOR derives each data qubit's pattern table from "
                "its own local circuit structure, so irregular degrees "
                "(3-8 checks per qubit) need no code-specific tuning.\n");
    return 0;
}
