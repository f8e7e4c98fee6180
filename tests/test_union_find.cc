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

TEST(UnionFindDecoder, OddComponentWithoutBoundaryIsResidual)
{
    // bpc's DEM splits into components with no boundary edge.  An odd
    // cluster there grows over its whole component and stops: it counts
    // one residual defect instead of growing forever.
    const std::unique_ptr<campaign::CodeInstance> code =
        campaign::make_code("bpc");
    DemBuilder dem(code->code, code->rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    std::vector<int> comp(g.n_nodes(), -1);
    int n_comps = 0;
    for (int s = 0; s < g.n_nodes(); ++s) {
        if (comp[s] >= 0)
            continue;
        std::vector<int> queue{s};
        comp[s] = n_comps;
        for (size_t head = 0; head < queue.size(); ++head) {
            for (int e : g.incidence()[queue[head]]) {
                const GraphEdge& ge = g.edges()[e];
                ASSERT_NE(ge.v, GraphEdge::kBoundary);
                const int y = ge.u == queue[head] ? ge.v : ge.u;
                if (comp[y] < 0) {
                    comp[y] = n_comps;
                    queue.push_back(y);
                }
            }
        }
        ++n_comps;
    }
    ASSERT_GT(n_comps, 1);

    UnionFindDecoder uf(g);
    Rng rng(9);
    int residual = 0;
    for (int t = 0; t < 64; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        std::vector<int> odd(n_comps, 0);
        for (int v = 0; v < g.n_nodes(); ++v) {
            syndrome[v] = rng.bernoulli(0.1);
            odd[comp[v]] ^= syndrome[v];
        }
        uf.decode(syndrome);
        int expected = 0;
        for (int o : odd)
            expected += o;
        EXPECT_EQ(uf.last_residual(), expected);
        residual += uf.last_residual();
    }
    EXPECT_GT(residual, 0);
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
    std::string policy;
    std::unique_ptr<campaign::CodeInstance> code;
    std::unique_ptr<DecodingGraph> graph;
    std::vector<std::vector<uint8_t>> syndromes;
};

struct CorpusSpec {
    const char* code;
    int rounds;
    const char* policy;
};

/** kShots `frame` syndromes of one Fig 12 point, simulated from `seed`. */
CorpusPoint
build_point(const CorpusSpec& spec, uint64_t seed)
{
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const int kShots = 96;
    CorpusPoint pt;
    pt.policy = spec.policy;
    pt.code = campaign::make_code(spec.code);
    const CssCode& code = pt.code->code;
    DemBuilder dem(code, pt.code->rc, np, spec.rounds);
    pt.graph = std::make_unique<DecodingGraph>(dem.build());
    const std::vector<int> z_checks = code.checks_of_type(CheckType::kZ);
    const size_t nz = z_checks.size();
    std::unique_ptr<Simulator> sim =
        make_simulator(SimBackend::kFrame, code, pt.code->rc, np, seed);
    std::unique_ptr<Policy> policy =
        campaign::make_policy(spec.policy, np)(pt.code->ctx, 0);
    policy->set_oracle(sim.get());
    for (int shot = 0; shot < kShots; ++shot) {
        sim->reset_shot();
        policy->begin_shot();
        std::vector<uint8_t> syn((static_cast<size_t>(spec.rounds) + 1) * nz,
                                 0);
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
            uint8_t det = rr.meas_flip[static_cast<size_t>(z_checks[zi])];
            for (int q : code.check(z_checks[zi]).support)
                det ^= flips[static_cast<size_t>(q)];
            syn[static_cast<size_t>(spec.rounds) * nz + zi] = det;
        }
        pt.syndromes.push_back(std::move(syn));
    }
    return pt;
}

std::vector<CorpusPoint>
build_corpus()
{
    const CorpusSpec specs[] = {{"surface:5", 50, "no_lrc"},
                                {"surface:5", 50, "eraser_m"},
                                {"surface:7", 70, "no_lrc"},
                                {"surface:7", 70, "eraser_m"}};
    std::vector<CorpusPoint> corpus;
    uint64_t seed = 1000;
    for (const CorpusSpec& spec : specs)
        corpus.push_back(build_point(spec, seed++));
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

/** FNV-1a digest of one decoder's output over a syndrome sequence. */
struct DecodeDigest {
    long flips = 0;
    long residual = 0;
    uint64_t hash = 1469598103934665603ull;

    void add(const UnionFindDecoder& uf, bool logical)
    {
        flips += logical ? 1 : 0;
        residual += uf.last_residual();
        mix_decode(&hash, logical, uf.last_residual());
    }
};

/** 64 uniform random syndromes of `g` at each density from 0.01 to 0.5. */
DecodeDigest
random_digest(const DecodingGraph& g, uint64_t seed)
{
    UnionFindDecoder uf(g);
    Rng rng(seed);
    DecodeDigest digest;
    for (double density : {0.01, 0.05, 0.2, 0.5}) {
        for (int t = 0; t < 64; ++t) {
            std::vector<uint8_t> syndrome(g.n_nodes(), 0);
            for (int v = 0; v < g.n_nodes(); ++v)
                syndrome[v] = rng.bernoulli(density);
            digest.add(uf, uf.decode(syndrome));
        }
    }
    return digest;
}

DecodingGraph
graph_of(const std::string& code_spec, int rounds)
{
    const std::unique_ptr<campaign::CodeInstance> code =
        campaign::make_code(code_spec);
    DemBuilder dem(code->code, code->rc, NoiseParams::standard(), rounds);
    return dem.build();
}

TEST(UnionFindGolden, SurfaceThreeAndSevenRandomSyndromesDecodeToPinnedDigest)
{
    // The smallest and the largest surface code of the sweep, from one
    // isolated defect per cluster to clusters spanning both boundaries.
    const DecodeDigest d3 = random_digest(graph_of("surface:3", 3), 303);
    EXPECT_EQ(d3.flips, 95);
    EXPECT_EQ(d3.residual, 0);
    EXPECT_EQ(d3.hash, 5248932833797730018ull);
    const DecodeDigest d7 = random_digest(graph_of("surface:7", 7), 707);
    EXPECT_EQ(d7.flips, 131);
    EXPECT_EQ(d7.residual, 0);
    EXPECT_EQ(d7.hash, 8933709249005261346ull);
}

TEST(UnionFindGolden, ColorSevenRandomSyndromesDecodeToPinnedDigest)
{
    // color:7's logical edge set is no coboundary of its decoding graph,
    // so every cluster of every syndrome goes through the peel.
    const DecodeDigest d = random_digest(graph_of("color:7", 7), 777);
    EXPECT_EQ(d.flips, 125);
    EXPECT_EQ(d.residual, 0);
    EXPECT_EQ(d.hash, 5430813430023247970ull);
}

TEST(UnionFindGolden, GladiatorCorpusPointDecodesToPinnedDigest)
{
    // The Fig 12 surface:7 point under gladiator_m, outside the shared
    // corpus so that corpus's digest stays as pinned.
    const CorpusPoint pt =
        build_point({"surface:7", 70, "gladiator_m"}, 1004);
    UnionFindDecoder uf(*pt.graph);
    long defects = 0;
    DecodeDigest digest;
    for (const std::vector<uint8_t>& syn : pt.syndromes) {
        for (uint8_t b : syn)
            defects += b;
        digest.add(uf, uf.decode(syn));
    }
    EXPECT_EQ(defects, 3004);
    EXPECT_EQ(digest.flips, 47);
    EXPECT_EQ(digest.residual, 0);
    EXPECT_EQ(digest.hash, 8208607443805162146ull);
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

TEST(UnionFindCounters, EraserCorpusMostlyPeelsNothing)
{
    // Under an LRC policy almost no cluster reaches both boundaries, so
    // the parity formula decides almost every syndrome outright.  A DEM
    // change that broke the node labelling would peel everything again
    // and still pass every digest; it fails here.
    int syndromes = 0;
    int unpeeled = 0;
    for (const CorpusPoint& pt : corpus()) {
        if (pt.policy != "eraser_m")
            continue;
        UnionFindDecoder uf(*pt.graph);
        for (const std::vector<uint8_t>& syn : pt.syndromes) {
            uf.decode(syn);
            ASSERT_LE(uf.last_peeled_edges(), uf.last_grown_edges());
            ++syndromes;
            unpeeled += uf.last_peeled_edges() == 0;
        }
    }
    EXPECT_GE(unpeeled * 10, syndromes * 9)
        << unpeeled << " of " << syndromes << " syndromes peeled nothing";
}

TEST(UnionFindCounters, ColorSevenPeelsEveryGrownEdge)
{
    // No labelling exists on color:7's graph: every cluster is peeled.
    const DecodingGraph g = graph_of("color:7", 7);
    UnionFindDecoder uf(g);
    Rng rng(7);
    long grown = 0;
    for (int t = 0; t < 64; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        for (int v = 0; v < g.n_nodes(); ++v)
            syndrome[v] = rng.bernoulli(0.05);
        uf.decode(syndrome);
        ASSERT_EQ(uf.last_peeled_edges(), uf.last_grown_edges());
        grown += uf.last_grown_edges();
    }
    EXPECT_GT(grown, 0);
}

TEST(UnionFindCounters, QuietSyndromeGrowsAndPeelsNothing)
{
    const DecodingGraph g = graph_of("surface:3", 3);
    UnionFindDecoder uf(g);
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    syndrome[0] = 1;
    uf.decode(syndrome);
    EXPECT_GT(uf.last_grown_edges(), 0);
    syndrome[0] = 0;
    uf.decode(syndrome);
    EXPECT_EQ(uf.last_grown_edges(), 0);
    EXPECT_EQ(uf.last_peeled_edges(), 0);
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
