#include "decode/union_find.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "campaign/registry.h"
#include "codes/surface_code.h"
#include "decode/dem_builder.h"
#include "util/rng.h"

namespace {

/** Global operator new calls in this binary (the allocation-free gate). */
std::atomic<long> g_news{0};

}  // namespace

// Out of line: inlined into a caller, GCC would pair the free() below
// with the caller's operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace gld {
namespace {

TEST(UnionFindDecoder, EmptySyndromeIsTrivial)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    EXPECT_FALSE(uf.decode(syndrome));
    EXPECT_EQ(uf.last_residual(), 0);
}

class SingleFaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(SingleFaultSweep, EverySingleGraphFaultDecodesCorrectly)
{
    // The defining property of a distance-respecting decoder: for every
    // edge in the detector error model (a single fault), decoding that
    // fault's syndrome must reproduce its logical flip.
    const int d = GetParam();
    const CssCode code = SurfaceCode::make(d);
    const RoundCircuit rc(code);
    const int rounds = d;
    DemBuilder dem(code, rc, NoiseParams::standard(), rounds);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    for (const GraphEdge& e : g.edges()) {
        syndrome[e.u] ^= 1;
        if (e.v != GraphEdge::kBoundary)
            syndrome[e.v] ^= 1;
        const bool predicted = uf.decode(syndrome);
        EXPECT_EQ(predicted, e.logical)
            << "edge " << e.u << "-" << e.v;
        EXPECT_EQ(uf.last_residual(), 0);
        syndrome[e.u] ^= 1;
        if (e.v != GraphEdge::kBoundary)
            syndrome[e.v] ^= 1;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SingleFaultSweep,
                         ::testing::Values(3, 5));

TEST(UnionFindDecoder, RandomPairsOfFaultsMostlyDecode)
{
    // Weight-2 errors are correctable at d = 5 by a matching decoder; UF
    // with unweighted growth should succeed on the vast majority.
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 5);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(31);
    const auto& edges = g.edges();
    int ok = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        bool logical = false;
        for (int j = 0; j < 2; ++j) {
            const GraphEdge& e =
                edges[rng.uniform_int(static_cast<uint32_t>(edges.size()))];
            syndrome[e.u] ^= 1;
            if (e.v != GraphEdge::kBoundary)
                syndrome[e.v] ^= 1;
            logical ^= e.logical;
        }
        ok += uf.decode(syndrome) == logical;
    }
    EXPECT_GT(ok, trials * 95 / 100);
}

TEST(UnionFindDecoder, ResidualIsZeroOnRandomSyndromes)
{
    // Whatever the syndrome, peeling must consume every defect (boundary
    // absorbs odd clusters).
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(8);
    for (int t = 0; t < 100; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        for (int v = 0; v < g.n_nodes(); ++v)
            syndrome[v] = rng.bernoulli(0.05);
        uf.decode(syndrome);
        EXPECT_EQ(uf.last_residual(), 0);
    }
}

TEST(UnionFindDecoder, ReusableAcrossCalls)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    const GraphEdge& e = g.edges().front();
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    syndrome[e.u] ^= 1;
    if (e.v != GraphEdge::kBoundary)
        syndrome[e.v] ^= 1;
    const bool first = uf.decode(syndrome);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(uf.decode(syndrome), first);
}

/**
 * A fixed-seed corpus of decoder inputs: `frame` syndromes for the
 * Fig 12 LER points (surface:5 @ 50 rounds, surface:7 @ 70 rounds,
 * p = 1e-3, lr = 0.1) with a policy in the loop.  `no_lrc` lets leakage
 * pile up, so its d=7 shots carry the largest defect counts the decoder
 * sees (well over a hundred); `eraser_m` gives the mitigated regime.
 */
struct CorpusPoint {
    std::unique_ptr<campaign::CodeInstance> code;
    std::unique_ptr<DecodingGraph> graph;
    std::vector<std::vector<uint8_t>> syndromes;
};

std::vector<CorpusPoint>
build_corpus()
{
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const int kShots = 96;
    struct Spec {
        const char* code;
        int rounds;
        const char* policy;
    };
    const Spec specs[] = {{"surface:5", 50, "no_lrc"},
                          {"surface:5", 50, "eraser_m"},
                          {"surface:7", 70, "no_lrc"},
                          {"surface:7", 70, "eraser_m"}};
    std::vector<CorpusPoint> corpus;
    uint64_t seed = 1000;
    for (const Spec& spec : specs) {
        CorpusPoint pt;
        pt.code = campaign::make_code(spec.code);
        const CssCode& code = pt.code->code;
        DemBuilder dem(code, pt.code->rc, np, spec.rounds);
        pt.graph = std::make_unique<DecodingGraph>(dem.build());
        const std::vector<int> z_checks = code.checks_of_type(CheckType::kZ);
        const size_t nz = z_checks.size();
        std::unique_ptr<Simulator> sim = make_simulator(
            SimBackend::kFrame, code, pt.code->rc, np, seed++);
        std::unique_ptr<Policy> policy =
            campaign::make_policy(spec.policy, np)(pt.code->ctx, 0);
        policy->set_oracle(sim.get());
        for (int shot = 0; shot < kShots; ++shot) {
            sim->reset_shot();
            policy->begin_shot();
            std::vector<uint8_t> syn(
                (static_cast<size_t>(spec.rounds) + 1) * nz, 0);
            LrcSchedule sched;
            RoundResult rr;
            for (int r = 0; r < spec.rounds; ++r) {
                rr = sim->run_round(sched);
                policy->observe(r, rr, &sched);
                for (size_t zi = 0; zi < nz; ++zi)
                    syn[static_cast<size_t>(r) * nz + zi] =
                        rr.detector[static_cast<size_t>(z_checks[zi])];
            }
            const std::vector<uint8_t> flips = sim->final_data_measure();
            for (size_t zi = 0; zi < nz; ++zi) {
                uint8_t det =
                    rr.meas_flip[static_cast<size_t>(z_checks[zi])];
                for (int q : code.check(z_checks[zi]).support)
                    det ^= flips[static_cast<size_t>(q)];
                syn[static_cast<size_t>(spec.rounds) * nz + zi] = det;
            }
            pt.syndromes.push_back(std::move(syn));
        }
        corpus.push_back(std::move(pt));
    }
    return corpus;
}

const std::vector<CorpusPoint>&
corpus()
{
    static const std::vector<CorpusPoint> c = build_corpus();
    return c;
}

/** FNV-1a over the (logical, residual) pair of one decode. */
void
mix_decode(uint64_t* hash, bool logical, int residual)
{
    const uint64_t word =
        (static_cast<uint64_t>(residual) << 1) | (logical ? 1u : 0u);
    for (int k = 0; k < 8; ++k) {
        *hash ^= (word >> (8 * k)) & 0xffu;
        *hash *= 1099511628211ull;
    }
}

TEST(UnionFindGolden, CorpusDecodesToPinnedDigest)
{
    // Pins the decoder's exact output on the corpus: any change to the
    // growth order, the peeling forest or the residual shows up here.
    // The defect total pins the corpus itself, so a failure there points
    // at the simulator, not the decoder.
    long defects = 0;
    int max_defects = 0;
    long flips = 0;
    long residual = 0;
    uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
    for (const CorpusPoint& pt : corpus()) {
        UnionFindDecoder uf(*pt.graph);
        for (const std::vector<uint8_t>& syn : pt.syndromes) {
            int ones = 0;
            for (uint8_t b : syn)
                ones += b;
            defects += ones;
            max_defects = std::max(max_defects, ones);
            const bool logical = uf.decode(syn);
            flips += logical ? 1 : 0;
            residual += uf.last_residual();
            mix_decode(&hash, logical, uf.last_residual());
        }
    }
    EXPECT_EQ(defects, 25505);
    EXPECT_EQ(max_defects, 439);
    EXPECT_EQ(flips, 157);
    EXPECT_EQ(residual, 0);
    EXPECT_EQ(hash, 17542116252427568194ull);
}

TEST(UnionFindGolden, RandomSyndromesDecodeToPinnedDigest)
{
    // Uniform random syndromes from sparse to saturated: large merged
    // clusters, frontier-length ties and unmatched odd clusters that the
    // circuit-level corpus rarely produces.
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 10);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(2024);
    long flips = 0;
    long residual = 0;
    uint64_t hash = 1469598103934665603ull;
    for (double density : {0.01, 0.05, 0.2, 0.5}) {
        for (int t = 0; t < 64; ++t) {
            std::vector<uint8_t> syndrome(g.n_nodes(), 0);
            for (int v = 0; v < g.n_nodes(); ++v)
                syndrome[v] = rng.bernoulli(density);
            const bool logical = uf.decode(syndrome);
            flips += logical ? 1 : 0;
            residual += uf.last_residual();
            mix_decode(&hash, logical, uf.last_residual());
        }
    }
    EXPECT_EQ(flips, 110);
    EXPECT_EQ(residual, 0);
    EXPECT_EQ(hash, 3657363139386063491ull);
}

std::vector<int>
defect_list(const std::vector<uint8_t>& syndrome)
{
    std::vector<int> out;
    for (size_t v = 0; v < syndrome.size(); ++v) {
        if (syndrome[v])
            out.push_back(static_cast<int>(v));
    }
    return out;
}

TEST(UnionFindGolden, DenseAdapterMatchesDefectListEntry)
{
    for (const CorpusPoint& pt : corpus()) {
        UnionFindDecoder dense(*pt.graph);
        UnionFindDecoder sparse(*pt.graph);
        for (const std::vector<uint8_t>& syn : pt.syndromes) {
            const bool a = dense.decode(syn);
            const bool b = sparse.decode_defects(defect_list(syn));
            ASSERT_EQ(a, b);
            ASSERT_EQ(dense.last_residual(), sparse.last_residual());
        }
    }
}

TEST(UnionFindGolden, SteadyStateDecodeAllocatesNothing)
{
    // The arena contract: once a decoder exists, decoding performs no
    // heap allocation on either entry point.  The arena is sized at
    // construction, so the first pass over the corpus is checked as
    // well as the warm second one.
    for (const CorpusPoint& pt : corpus()) {
        std::vector<std::vector<int>> lists;
        for (const std::vector<uint8_t>& syn : pt.syndromes)
            lists.push_back(defect_list(syn));
        UnionFindDecoder uf(*pt.graph);
        for (int pass = 0; pass < 2; ++pass) {
            const long before = g_news.load();
            for (size_t i = 0; i < lists.size(); ++i) {
                uf.decode(pt.syndromes[i]);
                uf.decode_defects(lists[i]);
            }
            const long allocations = g_news.load() - before;
            EXPECT_EQ(allocations, 0) << "pass " << pass;
        }
    }
}

}  // namespace
}  // namespace gld
