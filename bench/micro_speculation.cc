// Microbenchmarks (google-benchmark): online classification latency, table
// construction, simulator round throughput, and union-find decoding — the
// performance claims behind §4.4's "a few nanoseconds per syndrome".

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/pattern_table.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "sim/frame_sim.h"

using namespace gld;
using namespace gld::bench;

namespace {

const campaign::CodeInstance&
surface7()
{
    static campaign::CodeInstance bundle(SurfaceCode::make(7));
    return bundle;
}

void
BM_PatternLookup(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    const NoiseParams np = NoiseParams::standard();
    const PatternTableSet tables =
        PatternTableSet::build(b.ctx, np, {}, false);
    std::vector<uint8_t> detector(b.code.n_checks(), 0);
    detector[3] = 1;
    detector[7] = 1;
    int q = 0;
    for (auto _ : state) {
        q = (q + 1) % b.code.n_data();
        const uint32_t pat = b.ctx.pattern_of(q, detector);
        benchmark::DoNotOptimize(
            tables.is_leak(b.ctx.class_of(q), pat));
    }
}
BENCHMARK(BM_PatternLookup);

void
BM_TableBuildSingleRound(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    const NoiseParams np = NoiseParams::standard();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            PatternTableSet::build(b.ctx, np, {}, false));
    }
}
BENCHMARK(BM_TableBuildSingleRound);

void
BM_TableBuildTwoRound(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    const NoiseParams np = NoiseParams::standard();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            PatternTableSet::build(b.ctx, np, {}, true));
    }
}
BENCHMARK(BM_TableBuildTwoRound);

void
BM_SimulatorRound(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    LeakFrameSim sim(b.code, b.rc, NoiseParams::standard(), 1);
    LrcSchedule none;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run_round(none));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorRound);

void
BM_BackendThroughput(benchmark::State& state)
{
    // Shots/second per (backend, batch width K, threads, noise sampling,
    // decode) on a d=5 surface-code memory config — a developer's view
    // of the backends' campaign cost factors and of the batch width K.
    // Args: (backend enum, batch_words, threads, noise_sampling enum,
    // compute_ler).  K>1 and threads>1 rows scale shots/streams so every
    // scheduler block is a FULL K*64-lane batch (a partial tail block
    // would understate wide-K throughput) and every thread has work.  The
    // @sparse rows measure the event-driven sampler against the lockstep
    // rows of the SAME run; the @ler row turns the union-find decoder on
    // so the decode stage is visible in the stage split instead of
    // rounding to zero.  Run with --benchmark_filter=BackendThroughput.
    static campaign::CodeInstance bundle5(SurfaceCode::make(5));
    const campaign::CodeInstance& b = bundle5;
    const int batch_words = static_cast<int>(state.range(1));
    const int threads = static_cast<int>(state.range(2));
    const auto sampling = static_cast<NoiseSampling>(state.range(3));
    const bool with_ler = state.range(4) != 0;
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 10;
    cfg.shots = 1024 * threads;
    cfg.batch_words = batch_words;
    cfg.rng_streams = cfg.shots / ExperimentRunner::shot_block(cfg);
    cfg.leakage_sampling = false;  // natural leakage, as a memory run
    cfg.threads = threads;
    cfg.backend = static_cast<SimBackend>(state.range(0));
    cfg.noise_sampling = sampling;
    cfg.compute_ler = with_ler;
    ExperimentRunner runner(b.ctx, cfg);
    // Telemetry rides along (pure side channel — the drift gate pins that
    // the measured Metrics are bit-identical with it attached) so each
    // row reports the sim/policy/decode/accounting wall split, not just
    // one shots/s number.
    telemetry::Collector collector;
    runner.set_telemetry(&collector);
    const PolicyFactory factory = PolicyZoo::no_lrc();
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(factory));
    state.SetItemsProcessed(state.iterations() * cfg.shots);
    // Plain backend name at K=1/T=1/lockstep; decorated otherwise.
    std::string label = backend_name(cfg.backend);
    if (batch_words > 1)
        label += "@w" + std::to_string(batch_words);
    if (threads > 1)
        label += "@t" + std::to_string(threads);
    if (sampling != NoiseSampling::kLockstep)
        label += std::string("@") + noise_sampling_name(sampling);
    if (with_ler)
        label += "@ler";
    state.SetLabel(label);
    const telemetry::Record rec = collector.merged();
    const double total = static_cast<double>(rec.total_stage_ns());
    if (total > 0.0) {
        for (int s = 0; s < telemetry::kStageCount; ++s)
            state.counters[std::string("frac_") + telemetry::stage_name(s)] =
                benchmark::Counter(
                    static_cast<double>(rec.stage_ns[s]) / total);
    }
}
BENCHMARK(BM_BackendThroughput)
    ->Args({static_cast<int>(SimBackend::kFrame), 1, 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kFrame), 1, 8, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 2, 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 4, 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 8, 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 8, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 4, 8, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 8, 8, 0, 0})
    // The sparse event sampler vs its own lockstep rows (same run,
    // same host): K=1 is the sampler's qualification ratio; K=8 shows
    // how much of the wide-K cache penalty the quiet-site fast path
    // sidesteps.
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 1,
            static_cast<int>(NoiseSampling::kSparse), 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 8, 1,
            static_cast<int>(NoiseSampling::kSparse), 0})
    // Decode on (union-find per shot): the decode stage's wall share is
    // real in campaign configs with compute_ler, and this row keeps it
    // visible in the stage split.
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 1, 0, 1})
    ->Args({static_cast<int>(SimBackend::kTableau), 1, 1, 0, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_RunnerThreadScaling(benchmark::State& state)
{
    // The chunked (stream x shot-block) scheduler's wall-clock vs thread
    // count at the default 32-stream config: items/s should keep rising
    // well past 8 threads (the old one-unit-per-stream scheduler's
    // plateau).  Run with --benchmark_filter=RunnerThreadScaling.
    const campaign::CodeInstance& b = surface7();
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 10;
    cfg.shots = 512;
    cfg.leakage_sampling = true;
    cfg.threads = static_cast<int>(state.range(0));
    const ExperimentRunner runner(b.ctx, cfg);
    const PolicyFactory factory = PolicyZoo::eraser(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(factory));
    state.SetItemsProcessed(state.iterations() * cfg.shots);
}
BENCHMARK(BM_RunnerThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

void
BM_UnionFindDecode(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    const int rounds = 21;
    DemBuilder dem(b.code, b.rc, NoiseParams::standard(), rounds);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(5);
    std::vector<uint8_t> syndrome(g.n_nodes());
    for (int v = 0; v < g.n_nodes(); ++v)
        syndrome[v] = rng.bernoulli(0.02);
    for (auto _ : state)
        benchmark::DoNotOptimize(uf.decode(syndrome));
}
BENCHMARK(BM_UnionFindDecode);

void
BM_DemBuild(benchmark::State& state)
{
    const campaign::CodeInstance& b = surface7();
    for (auto _ : state) {
        DemBuilder dem(b.code, b.rc, NoiseParams::standard(), 21);
        benchmark::DoNotOptimize(dem.build());
    }
}
BENCHMARK(BM_DemBuild);

}  // namespace

BENCHMARK_MAIN();
