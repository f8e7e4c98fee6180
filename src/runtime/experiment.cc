#include <cstddef>
#include "runtime/experiment.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "decode/dem_builder.h"
#include "sim/batch_driver.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gld {

/**
 * One executor slot's reusable block state.  Everything a block used to
 * construct or allocate per (stream, block) lives here instead, owned by
 * the slot for the whole run_partials loop: the simulator is
 * reset_for_block()-ed per block, the policy is rebuilt never
 * (begin_batch is the per-shot reset), the decoder keeps its arena, and
 * the scratch vectors keep their capacity (assign/resize write the same
 * initial values a fresh vector would hold, so reuse is bit-identical to
 * fresh — the determinism gate's reuse ≡ fresh arm runs with
 * cfg.reuse_worker_state = false, which clears this struct per block).
 * alignas: adjacent slots' vector headers must not share a cache line.
 */
struct alignas(64) ExperimentRunner::BlockResources {
    std::unique_ptr<BatchSimulator> sim;
    /// The slot's policy, always a WordPolicy (a policy without a word
    /// kernel arrives wrapped in PerLanePolicy).
    std::unique_ptr<Policy> policy;
    std::unique_ptr<UnionFindDecoder> decoder;

    LrcMasks masks;
    std::vector<LaneMask> final_det;  ///< final detector span per Z check
    std::vector<int> data_leaked;
    std::vector<int> check_leaked;
    std::vector<std::vector<double>> dlp_buf;
    std::vector<std::vector<double>> chk_buf;
    /// Per-lane decoder input: defect node ids r*nz+zi, collected in
    /// ascending order (round-major, then Z-check index).
    std::vector<std::vector<int>> defects;
};

ExperimentRunner::ExperimentRunner(const CodeContext& ctx,
                                   const ExperimentConfig& cfg)
    : ctx_(&ctx), cfg_(cfg)
{
    if (cfg_.batch_words < 1 || cfg_.batch_words > kMaxBatchWords) {
        throw std::invalid_argument(
            "ExperimentConfig::batch_words " +
            std::to_string(cfg_.batch_words) + " outside [1, " +
            std::to_string(kMaxBatchWords) + "]");
    }
    if (cfg_.rounds < 1) {
        throw std::invalid_argument("ExperimentConfig::rounds " +
                                    std::to_string(cfg_.rounds) +
                                    " must be at least 1");
    }
    if (cfg_.compute_ler) {
        DemBuilder dem(ctx.code(), ctx.rc(), cfg_.np, cfg_.rounds);
        graph_ = std::make_shared<DecodingGraph>(dem.build());
        z_checks_ = ctx.code().checks_of_type(CheckType::kZ);
    }
}

Metrics
ExperimentRunner::run_block(const PolicyFactory& factory, int stream,
                            int block, const DecodingGraph* graph,
                            telemetry::Record* telem,
                            BlockResources* res) const
{
    const CssCode& code = ctx_->code();
    const int n_data = code.n_data();
    const int n_checks = code.n_checks();
    const int shots =
        std::min(shot_block(cfg_),
                 stream_shots(cfg_, stream) - block * shot_block(cfg_));
    const int rounds = cfg_.rounds;

    // The reuse ≡ fresh control arm: discarding the slot's cached state
    // per block reproduces the pre-reuse fresh-construction path exactly.
    if (!cfg_.reuse_worker_state)
        *res = BlockResources{};

    // Telemetry is a pure side channel: the StageClock and the counters
    // below never draw randomness and never feed a result-bearing sum,
    // and every call is a no-op when `telem` is null (no collector
    // attached).  The heatmap and the leak histogram are read off the
    // ground-truth leak words, a read-only view of the backend's flags.
    telemetry::StageClock clock(telem);

    Metrics m;
    m.rounds_per_shot = rounds;
    if (cfg_.record_dlp_series)
        m.dlp_series.assign(static_cast<size_t>(rounds), 0.0);

    // Every (stream, block) work unit owns three independent derived
    // generators — simulator, leakage-sampling shot draws, policy seed —
    // reached by nested splits off the config seed.  The derivation
    // depends only on (seed, stream, block), never on the thread that
    // happens to execute the unit, so any schedule produces the same
    // draws.  Disjoint leaf ids per block keep generators uncorrelated.
    const Rng block_master =
        Rng(cfg_.seed).split(static_cast<uint64_t>(stream))
            .split(static_cast<uint64_t>(block));
    Rng shot_rng = block_master.split(1);
    const uint64_t sim_seed = block_master.split(0).next_u64();
    // The slot's cached simulator, reset to exactly what a fresh
    // make_simulator(..., sim_seed, ...) would be — the steady state
    // allocates nothing here.
    if (res->sim == nullptr)
        res->sim = make_simulator(cfg_.backend, code, ctx_->rc(), cfg_.np,
                                  sim_seed, cfg_.batch_words,
                                  cfg_.noise_sampling);
    else
        res->sim->reset_for_block(sim_seed);
    BatchSimulator& sim = *res->sim;
    const uint64_t policy_seed = block_master.split(2).next_u64();
    // The block runs as lockstep batches of up to batch_width() shots:
    // lane k of a batch is the block's (first + k)-th shot, with the
    // same derived RNG streams on every backend.  The scalar backends
    // are one-lane batches.
    const int width = sim.batch_width();
    const int W = sim.batch_n_words();  ///< words per lane span (K)
    const int max_lanes = std::min(width, shots);
    clock.lap(telemetry::kSim);  // simulator reset/construction

    // One word-parallel policy per slot, decided for all lanes at once.
    // A factory policy without a word kernel runs behind the per-lane
    // fallback adapter, whose lane instances come from the same factory
    // and seed (in-tree policies derive nothing from the seed, and
    // begin_batch resets every lane's shot state, so lane k replays the
    // policy's k-th shot of a one-lane run).
    if (res->policy == nullptr) {
        std::unique_ptr<Policy> p = factory(*ctx_, policy_seed);
        if (dynamic_cast<WordPolicy*>(p.get()) == nullptr) {
            const CodeContext* ctx = ctx_;
            p = std::make_unique<PerLanePolicy>(
                *ctx_,
                [factory, ctx, policy_seed] {
                    return factory(*ctx, policy_seed);
                },
                std::move(p));
        }
        res->policy = std::move(p);
    }
    WordPolicy* policy = static_cast<WordPolicy*>(res->policy.get());
    clock.lap(telemetry::kPolicy);  // policy build

    if (graph != nullptr && res->decoder == nullptr)
        res->decoder = std::make_unique<UnionFindDecoder>(*graph);
    UnionFindDecoder* decoder = res->decoder.get();
    const std::vector<int>& z_checks = z_checks_;
    const int nz = static_cast<int>(z_checks.size());
    clock.lap(telemetry::kDecode);  // decoder construction

    // Per-block scratch out of the slot's cache: resize() writes the
    // same sizes a fresh block's locals had, every element below is
    // written before it is read (the masks are reset per batch, the
    // count scratch is zero-filled per round, the buffers per (lane,
    // round) cell per round), so stale content from the previous block
    // is never observable — reuse stays bit-identical to fresh.
    const size_t Ws = static_cast<size_t>(W);
    LrcMasks& masks = res->masks;
    std::vector<LaneMask>& final_det = res->final_det;
    final_det.resize(static_cast<size_t>(nz) * Ws);
    // Per-lane leak counts, gathered by one sparse pass over the leak
    // words instead of per-lane oracle walks.
    std::vector<int>& data_leaked = res->data_leaked;
    std::vector<int>& check_leaked = res->check_leaked;
    data_leaked.assign(static_cast<size_t>(max_lanes), 0);
    check_leaked.assign(static_cast<size_t>(max_lanes), 0);
    // Float accumulators are buffered per (lane, round) and replayed
    // shot-major below: double addition is order-sensitive, and shot
    // order is what makes every batch width sum identically (frame ≡
    // batch_frame is a BIT-exact gate).  The speculation counts are
    // integer-valued, hence order-insensitive, and are summed straight
    // off the mask words.
    std::vector<std::vector<double>>& dlp_buf = res->dlp_buf;
    std::vector<std::vector<double>>& chk_buf = res->chk_buf;
    if (static_cast<int>(dlp_buf.size()) < max_lanes) {
        dlp_buf.resize(static_cast<size_t>(max_lanes));
        chk_buf.resize(static_cast<size_t>(max_lanes));
    }
    for (int l = 0; l < max_lanes; ++l) {
        dlp_buf[static_cast<size_t>(l)].resize(
            static_cast<size_t>(rounds));
        chk_buf[static_cast<size_t>(l)].resize(
            static_cast<size_t>(rounds));
    }
    std::vector<std::vector<int>>& defects = res->defects;
    if (static_cast<int>(defects.size()) < max_lanes)
        defects.resize(static_cast<size_t>(max_lanes));

    // Zero words are skipped before every popcount below: the Release
    // build has no -mpopcnt, so each popcount is a library call, and at
    // one lane per word most words are zero.  The skip is exact — the
    // totals only ever add non-negative integer-valued doubles, and
    // x + 0.0 == x.
    const auto popcount = [](LaneMask x) {
        return static_cast<double>(__builtin_popcountll(x));
    };

    for (int first = 0; first < shots; first += width) {
        const int lanes = std::min(width, shots - first);
        // Active-lane span of this batch: full words below the lane
        // boundary, a partial word at it, empty words above (a partial
        // trailing batch's boundary may fall mid-span).
        LaneMask lanes_mask[kMaxBatchWords];
        for (int w = 0; w < W; ++w) {
            const int base = w * kBatchLanes;
            if (lanes - base >= kBatchLanes)
                lanes_mask[w] = ~0ull;
            else if (lanes - base > 0)
                lanes_mask[w] = (1ull << (lanes - base)) - 1;
            else
                lanes_mask[w] = 0;
        }
        sim.reset_shot_batch(lanes);
        policy->begin_batch(lanes_mask, W);
        masks.reset(n_data, n_checks, W);
        for (int l = 0; l < lanes; ++l) {
            // One leakage-sampling draw per shot, in lane (= shot)
            // order, from the block-level stream.
            if (cfg_.leakage_sampling)
                sim.inject_data_leak_lane(
                    l, static_cast<int>(shot_rng.uniform_int(
                           static_cast<uint32_t>(n_data))));
            defects[static_cast<size_t>(l)].clear();
        }
        clock.lap(telemetry::kSim);  // batch reset + leak injection

        for (int r = 0; r < rounds; ++r) {
            // Account the LRCs about to be applied against each lane's
            // ground truth: popcounts of mask AND leak AND active.
            // Most rounds schedule nothing and leak nothing, so one OR
            // over a whole word array skips a loop that would add zero.
            const LaneMask* leak_words = sim.leaked_words();
            if (lanes_any(masks.data.data(), n_data * W) != 0) {
                for (int q = 0; q < n_data; ++q) {
                    const size_t qb = static_cast<size_t>(q) * Ws;
                    for (int w = 0; w < W; ++w) {
                        const size_t i = qb + static_cast<size_t>(w);
                        const LaneMask lrc = masks.data[i] & lanes_mask[w];
                        if (lrc == 0)
                            continue;
                        m.tp_total += popcount(lrc & leak_words[i]);
                        m.fp_total += popcount(lrc & ~leak_words[i]);
                        m.lrc_data_total += popcount(lrc);
                    }
                }
            }
            if (lanes_any(masks.checks.data(), n_checks * W) != 0) {
                for (int c = 0; c < n_checks; ++c) {
                    for (int w = 0; w < W; ++w) {
                        const LaneMask lrc =
                            masks.checks[static_cast<size_t>(c) * Ws +
                                         static_cast<size_t>(w)] &
                            lanes_mask[w];
                        if (lrc != 0)
                            m.lrc_check_total += popcount(lrc);
                    }
                }
            }
            clock.lap(telemetry::kAccounting);

            sim.run_round_masks(masks);
            clock.lap(telemetry::kSim);

            RoundWords in;
            in.n_words = W;
            in.active = lanes_mask;
            in.detector = sim.detector_words();
            in.mlr_flag = sim.mlr_flag_words();
            in.meas_flip = sim.meas_flip_words();
            in.leaked = leak_words;
            policy->observe_words(r, in, &masks);
            clock.lap(telemetry::kPolicy);

            // False negatives (leaked data qubits the policy did not
            // schedule), leak populations and the heatmap row, in one
            // pass over the end-of-round leak words.
            uint64_t* row = telem != nullptr && telem->heatmap.enabled()
                                ? telem->heatmap.row(r)
                                : nullptr;
            std::fill(data_leaked.begin(), data_leaked.end(), 0);
            std::fill(check_leaked.begin(), check_leaked.end(), 0);
            if (lanes_any(leak_words, code.n_qubits() * W) != 0) {
                for (int q = 0; q < n_data; ++q) {
                    const size_t qb = static_cast<size_t>(q) * Ws;
                    for (int w = 0; w < W; ++w) {
                        const LaneMask lk =
                            leak_words[qb + static_cast<size_t>(w)] &
                            lanes_mask[w];
                        if (lk == 0)
                            continue;
                        m.fn_total += popcount(
                            lk & ~masks.data[qb + static_cast<size_t>(w)]);
                        if (row != nullptr)
                            row[q] += static_cast<uint64_t>(
                                __builtin_popcountll(lk));
                        const int base = w * kBatchLanes;
                        for_each_lane(lk, [&](int b) {
                            ++data_leaked[static_cast<size_t>(base + b)];
                        });
                    }
                }
                for (int c = 0; c < n_checks; ++c) {
                    const size_t ab =
                        static_cast<size_t>(code.ancilla_of(c)) * Ws;
                    for (int w = 0; w < W; ++w) {
                        const LaneMask lk =
                            leak_words[ab + static_cast<size_t>(w)] &
                            lanes_mask[w];
                        if (lk == 0)
                            continue;
                        if (row != nullptr)
                            row[n_data + c] += static_cast<uint64_t>(
                                __builtin_popcountll(lk));
                        const int base = w * kBatchLanes;
                        for_each_lane(lk, [&](int b) {
                            ++check_leaked[static_cast<size_t>(base + b)];
                        });
                    }
                }
            }
            for (int l = 0; l < lanes; ++l) {
                const size_t li = static_cast<size_t>(l);
                if (telem != nullptr)
                    ++telem->leak_hist[static_cast<size_t>(
                        data_leaked[li])];
                dlp_buf[li][static_cast<size_t>(r)] =
                    static_cast<double>(data_leaked[li]) / n_data;
                chk_buf[li][static_cast<size_t>(r)] =
                    static_cast<double>(check_leaked[li]) / n_checks;
            }
            // Decoder input straight off the detector words: one pass
            // per Z check touches only the lanes that fired, in
            // ascending zi, so every lane's list stays ascending.
            if (graph != nullptr) {
                for (int zi = 0; zi < nz; ++zi) {
                    const size_t cb =
                        static_cast<size_t>(
                            z_checks[static_cast<size_t>(zi)]) *
                        Ws;
                    const int node = r * nz + zi;
                    for (int w = 0; w < W; ++w) {
                        const int base = w * kBatchLanes;
                        for_each_lane(
                            in.detector[cb + static_cast<size_t>(w)] &
                                lanes_mask[w],
                            [&](int b) {
                                defects[static_cast<size_t>(base + b)]
                                    .push_back(node);
                            });
                    }
                }
            }
            clock.lap(telemetry::kAccounting);
        }

        // Final-round detectors (last meas_flip XOR the data readout
        // over each Z check's support) and the logical-Z readout, as
        // lane words.
        LaneMask observed[kMaxBatchWords] = {};
        if (graph != nullptr) {
            const LaneMask* flips = sim.final_data_measure_words();
            clock.lap(telemetry::kSim);
            const LaneMask* meas = sim.meas_flip_words();
            for (int zi = 0; zi < nz; ++zi) {
                const int zc = z_checks[static_cast<size_t>(zi)];
                for (int w = 0; w < W; ++w) {
                    LaneMask d = meas[static_cast<size_t>(zc) * Ws +
                                      static_cast<size_t>(w)];
                    for (int q : code.check(zc).support)
                        d ^= flips[static_cast<size_t>(q) * Ws +
                                   static_cast<size_t>(w)];
                    final_det[static_cast<size_t>(zi) * Ws +
                              static_cast<size_t>(w)] = d;
                }
            }
            for (int q : code.logical_z()) {
                for (int w = 0; w < W; ++w)
                    observed[w] ^= flips[static_cast<size_t>(q) * Ws +
                                         static_cast<size_t>(w)];
            }
        }

        // Shot-major replay of the per-shot tail: the float sums in
        // shot order, then decode + shot counters.
        for (int l = 0; l < lanes; ++l) {
            const size_t li = static_cast<size_t>(l);
            for (int r = 0; r < rounds; ++r) {
                const double dlp = dlp_buf[li][static_cast<size_t>(r)];
                m.dlp_total += dlp;
                if (cfg_.record_dlp_series)
                    m.dlp_series[static_cast<size_t>(r)] += dlp;
                m.check_leak_total += chk_buf[li][static_cast<size_t>(r)];
            }
            if (graph != nullptr) {
                for (int zi = 0; zi < nz; ++zi) {
                    if (lane_bit(&final_det[static_cast<size_t>(zi) * Ws], l))
                        defects[li].push_back(rounds * nz + zi);
                }
                clock.lap(telemetry::kAccounting);
                const bool predicted = decoder->decode_defects(defects[li]);
                clock.lap(telemetry::kDecode);
                if (lane_bit(observed, l) != predicted)
                    ++m.logical_errors;
                ++m.decoded_shots;
            }
            ++m.shots;
        }
    }
    if (telem != nullptr) {
        telem->shots += static_cast<uint64_t>(shots);
        telem->rounds +=
            static_cast<uint64_t>(shots) * static_cast<uint64_t>(rounds);
        telem->blocks += 1;
        clock.lap(telemetry::kAccounting);
    }
    return m;
}

int
ExperimentRunner::n_streams(const ExperimentConfig& cfg)
{
    if (cfg.shots <= 0)
        return 0;
    return std::min(cfg.shots, std::max(1, cfg.rng_streams));
}

int
ExperimentRunner::stream_shots(const ExperimentConfig& cfg, int stream)
{
    const int streams = n_streams(cfg);
    if (stream < 0 || stream >= streams)
        return 0;
    return cfg.shots / streams + (stream < cfg.shots % streams ? 1 : 0);
}

int
ExperimentRunner::stream_blocks(const ExperimentConfig& cfg, int stream)
{
    const int block = shot_block(cfg);
    return (stream_shots(cfg, stream) + block - 1) / block;
}

long
ExperimentRunner::n_work_units(const ExperimentConfig& cfg)
{
    long units = 0;
    for (int s = 0; s < n_streams(cfg); ++s)
        units += stream_blocks(cfg, s);
    return units;
}

std::vector<Metrics>
ExperimentRunner::run_partials(const PolicyFactory& factory,
                               const std::vector<int>& streams) const
{
    const int total_streams = n_streams(cfg_);
    for (int s : streams) {
        if (s < 0 || s >= total_streams)
            throw std::out_of_range(
                "run_partials: stream id " + std::to_string(s) +
                " outside [0, " + std::to_string(total_streams) + ")");
    }

    // Chunked work queue: the schedulable unit is a (stream, shot block),
    // not a whole stream, so the worker count is no longer capped by
    // rng_streams.  The unit list and each unit's RNG derivation depend
    // only on the config; threads pull units off an atomic cursor, park
    // their Metrics in the unit's slot, and the per-stream partial is
    // folded from its blocks in ascending block order afterwards — a
    // fixed left-fold, so the result is schedule-independent and the
    // per-stream partials (the sharding contract) are unchanged by how
    // many threads ran.
    struct WorkUnit {
        size_t request;  ///< index into `streams`
        int stream;
        int block;
    };
    std::vector<WorkUnit> units;
    for (size_t i = 0; i < streams.size(); ++i) {
        const int blocks = stream_blocks(cfg_, streams[i]);
        for (int b = 0; b < blocks; ++b)
            units.push_back({i, streams[i], b});
    }

    // Telemetry rides along per work unit and is merged by the collector
    // in (stream, block) order, so the deterministic aggregates (shot /
    // round counts, leak histogram, heatmap) are as thread-count-
    // independent as the Metrics themselves.
    telemetry::Collector* collector = telemetry_;
    const int n_data = ctx_->code().n_data();
    const int n_checks = ctx_->code().n_checks();

    // Result slot per unit, padded to a cache line: adjacent units
    // finish on different threads back to back, and unpadded Metrics
    // writes would false-share lines across workers at exactly the
    // moment every worker is storing.
    struct alignas(64) PaddedMetrics {
        Metrics m;
    };
    std::vector<PaddedMetrics> unit_parts(units.size());

    // One reusable resource set per executor slot (simulator, policies,
    // decoder, scratch): a slot runs many units but only ever one at a
    // time, so its caches are single-threaded by construction.
    std::vector<BlockResources> slot_res(
        parallel_width(units.size(), cfg_.threads));
    parallel_for_slots(units.size(), cfg_.threads, [&](size_t u, int slot) {
        BlockResources* res = &slot_res[static_cast<size_t>(slot)];
        if (collector != nullptr) {
            telemetry::Record rec;
            rec.leak_hist.assign(static_cast<size_t>(n_data) + 1, 0);
            if (collector->heatmap())
                rec.heatmap.init(cfg_.rounds, n_data, n_checks);
            unit_parts[u].m = run_block(factory, units[u].stream,
                                        units[u].block, graph_.get(), &rec,
                                        res);
            collector->record_unit(units[u].stream, units[u].block,
                                   std::move(rec));
        } else {
            unit_parts[u].m = run_block(factory, units[u].stream,
                                        units[u].block, graph_.get(),
                                        nullptr, res);
        }
    });

    // Fold each stream's block partials in block order (units were built
    // grouped per requested stream, blocks ascending).
    std::vector<Metrics> parts(streams.size());
    std::vector<uint8_t> seeded(streams.size(), 0);
    for (size_t u = 0; u < units.size(); ++u) {
        const size_t i = units[u].request;
        if (!seeded[i]) {
            parts[i] = std::move(unit_parts[u].m);
            seeded[i] = 1;
        } else {
            parts[i].merge(unit_parts[u].m);
        }
    }
    return parts;
}

Metrics
ExperimentRunner::run(const PolicyFactory& factory) const
{
    // Reproducibility contract: shots are partitioned into a fixed number
    // of RNG streams derived only from (shots, rng_streams) — never from
    // the thread count — and per-stream results are merged in stream
    // order.  The same seed therefore yields bit-identical Metrics for
    // any cfg_.threads (the per-stream accumulation order is fixed, and
    // cross-stream sums always happen in the same order).  Sharded runs
    // reproduce this exactly: run_partials() on any partition of the
    // stream set, merged in ascending stream order, is the same sum.
    const int streams = n_streams(cfg_);
    if (streams == 0) {
        Metrics m;
        m.rounds_per_shot = cfg_.rounds;
        return m;
    }
    std::vector<int> all(streams);
    for (int s = 0; s < streams; ++s)
        all[s] = s;
    const std::vector<Metrics> parts = run_partials(factory, all);
    Metrics m;
    for (const Metrics& part : parts)
        m.merge(part);
    return m;
}

// --- PolicyZoo ---

PolicyFactory
PolicyZoo::no_lrc()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<NoLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::always_lrc()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<AlwaysLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::staggered()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<StaggeredLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::mlr_only()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<MlrOnlyPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::ideal()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<IdealPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::eraser(bool use_mlr)
{
    return [use_mlr](const CodeContext& ctx, uint64_t) {
        return std::make_unique<EraserPolicy>(ctx, use_mlr);
    };
}

namespace {

/**
 * Immutable-table cache shared by every policy a factory builds.
 *
 * PatternTableSet::build() depends only on the context's pattern classes
 * (plus the np/opt/two_round baked into the factory), so the cache is
 * keyed on the CLASS STRUCTURE itself — never on the CodeContext address,
 * which would alias recreated contexts.  Two contexts with equal class
 * vectors get identical tables by construction, so sharing is exact: the
 * rng_streams policies of one run() now share one build instead of
 * re-deriving it per stream (ROADMAP: "Gladiator table builds are
 * repeated per stream").
 *
 * Lookup and build run under one mutex: when all streams of a run()
 * start at once, the first builds and the rest wait and share, instead
 * of racing into rng_streams redundant builds.
 */
struct GladiatorTableCache {
    struct Entry {
        std::vector<PatternClass> classes;
        std::shared_ptr<const PatternTableSet> tables;
    };

    std::shared_ptr<const PatternTableSet> get(const CodeContext& ctx,
                                               const NoiseParams& np,
                                               const SpecModelOptions& opt,
                                               bool two_round)
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const Entry& e : entries) {
            if (e.classes == ctx.classes())
                return e.tables;
        }
        auto built = std::make_shared<const PatternTableSet>(
            PatternTableSet::build(ctx, np, opt, two_round));
        entries.push_back({ctx.classes(), built});
        return built;
    }

    std::mutex mu;
    std::vector<Entry> entries;
};

PolicyFactory
make_gladiator_factory(bool use_mlr, const NoiseParams& np,
                       const SpecModelOptions& opt, bool two_round)
{
    auto cache = std::make_shared<GladiatorTableCache>();
    return [use_mlr, np, opt, two_round, cache](
               const CodeContext& ctx, uint64_t) -> std::unique_ptr<Policy> {
        std::shared_ptr<const PatternTableSet> tables =
            cache->get(ctx, np, opt, two_round);
        if (two_round)
            return std::make_unique<GladiatorDPolicy>(ctx, tables, use_mlr);
        return std::make_unique<GladiatorPolicy>(ctx, tables, use_mlr);
    };
}

}  // namespace

PolicyFactory
PolicyZoo::gladiator(bool use_mlr, const NoiseParams& np,
                     SpecModelOptions opt)
{
    return make_gladiator_factory(use_mlr, np, opt, /*two_round=*/false);
}

PolicyFactory
PolicyZoo::gladiator_d(bool use_mlr, const NoiseParams& np,
                       SpecModelOptions opt)
{
    return make_gladiator_factory(use_mlr, np, opt, /*two_round=*/true);
}

}  // namespace gld
