// Color-code scenario: the paper's generalizability workload (§5).  On the
// triangular 6.6.6 color code, syndrome information per data qubit is
// sparse (1-3 bits), so ERASER's half-flip heuristic over-triggers while
// GLADIATOR-D's two-round deferral keeps LRCs targeted.
//
// The policy sweep runs through the campaign API — the same path
// `gld_campaign` drives across machines — split into two in-process
// "shards" and merged back, which is bit-identical to one monolithic
// ExperimentRunner::run() per policy.  Results checkpoint to
// ./color_code_campaign: re-running this example resumes instead of
// recomputing, and deleting the directory forces a fresh run.

#include <cstdio>
#include <cstdlib>

#include "campaign/campaign.h"
#include "campaign/registry.h"
#include "codes/color_code.h"
#include "core/pattern_table.h"
#include "core/policy_eraser.h"
#include "runtime/experiment.h"
#include "util/config.h"

using namespace gld;

int
main()
{
    const CssCode code = ColorCode::make(7);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    std::printf("Code: %s — %d data qubits (vs %d for a d=7 surface "
                "code), %d faces\n",
                code.name().c_str(), code.n_data(), 97, code.n_checks() / 2);

    // Show the per-class speculation tables GLADIATOR builds offline.
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const PatternTableSet single = PatternTableSet::build(ctx, np, {}, false);
    const PatternTableSet two = PatternTableSet::build(ctx, np, {}, true);
    std::printf("\nPer-class flagged patterns (leakage-dominated):\n");
    for (int c = 0; c < ctx.n_classes(); ++c) {
        const int k = ctx.classes()[c].k_obs;
        std::printf("  %d-bit class: ERASER %d/%d, GLADIATOR %d/%d, "
                    "GLADIATOR-D %d/%d\n",
                    k, EraserPolicy::flagged_count(k), 1 << k,
                    single.flagged_count(c), 1 << k, two.flagged_count(c),
                    1 << (2 * k));
    }

    // The online sweep as a 1x1x3 campaign grid.  Registry and display
    // names are paired so the table labels cannot drift from the jobs.
    const std::vector<std::pair<std::string, std::string>> lineup = {
        {"eraser_m", "ERASER+M"},
        {"gladiator_m", "GLADIATOR+M"},
        {"gladiator_d_m", "GLADIATOR-D+M"},
    };
    campaign::CampaignSpec spec;
    spec.name = "color7";
    spec.shots = BenchConfig::shots(200);
    spec.rounds = 100;
    spec.leakage_sampling = true;
    spec.backend = backend_from_env();
    spec.batch_words = batch_words_from_env();
    spec.codes = {"color:7"};
    spec.noise = {np};
    for (const auto& entry : lineup)
        spec.policies.push_back(entry.first);

    const std::string out_dir = "color_code_campaign";
    const int n_shards = 2;  // pretend-distributed: both run here
    // GLD_CAMPAIGN_FRESH=1 (the CTest smoke environment) discards
    // checkpoints: they fingerprint the configuration, not the binary.
    const char* fresh = std::getenv("GLD_CAMPAIGN_FRESH");
    if (fresh != nullptr && fresh[0] == '1')
        campaign::remove_results(spec, n_shards, out_dir);
    campaign::RunShardOptions opt;
    opt.threads = BenchConfig::threads();
    opt.telemetry = false;
    for (int shard = 0; shard < n_shards; ++shard) {
        const campaign::RunShardStats stats =
            campaign::run_shard(spec, shard, n_shards, out_dir, opt);
        std::printf("%s shard %d/%d: %d job(s) run, %d resumed\n",
                    shard == 0 ? "\n" : "", shard, n_shards, stats.jobs_run,
                    stats.jobs_resumed);
    }
    const std::vector<Metrics> results =
        campaign::merge_campaign(spec, n_shards, out_dir);

    std::printf("\n%-16s %10s %10s %10s %10s\n", "policy", "FP/shot",
                "FN/shot", "LRC/shot", "DLP");
    for (size_t i = 0; i < lineup.size(); ++i) {
        const Metrics& m = results[i];
        std::printf("%-16s %10.2f %10.2f %10.1f %10.2e\n",
                    lineup[i].second.c_str(), m.fp_per_shot(),
                    m.fn_per_shot(), m.lrc_per_shot(), m.dlp_mean());
    }
    return 0;
}
