#include "decode/dem_builder.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "codes/surface_code.h"

namespace gld {
namespace {

TEST(DemBuilder, NodeLayout)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 5);
    EXPECT_EQ(dem.nz(), 4);             // (d^2-1)/2 Z checks
    EXPECT_EQ(dem.n_nodes(), 6 * 4);    // 5 syndrome layers + final
    EXPECT_EQ(dem.node_id(2, 3), 11);
}

TEST(DemBuilder, TemplateFaultsAreGraphlike)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    int hyper = 0;
    for (const auto& tf : dem.template_faults()) {
        EXPECT_LE(tf.dets.size(), 6u);
        for (const auto& [layer, zi] : tf.dets) {
            EXPECT_GE(layer, 0);
            EXPECT_LE(layer, 1);
            EXPECT_GE(zi, 0);
            EXPECT_LT(zi, dem.nz());
        }
        hyper += tf.dets.size() > 2;
    }
    // Hooks exist but are a small minority of fault locations.
    EXPECT_LT(hyper, static_cast<int>(dem.template_faults().size()) / 4);
}

TEST(DemBuilder, DataXFaultFootprint)
{
    // A round-start X fault on a bulk data qubit flips its adjacent
    // Z checks across layers r/r+1 with total multiplicity 2.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    // The first 3 template faults are X/Z/Y on data qubit 0 at round start.
    const auto& faults = dem.template_faults();
    const auto& x0 = faults[0];
    // Data qubit 0 is a corner: exactly one adjacent Z check -> the X
    // fault flips that column once across the two layers (boundary edge).
    size_t nz_flips = x0.dets.size();
    EXPECT_GE(nz_flips, 1u);
    EXPECT_LE(nz_flips, 2u);
}

TEST(DemBuilder, GraphEdgesAreDeduplicatedAndValid)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    EXPECT_GT(static_cast<int>(g.edges().size()), 0);
    std::set<std::pair<int, int>> seen;
    for (const GraphEdge& e : g.edges()) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, g.n_nodes());
        if (e.v != GraphEdge::kBoundary) {
            EXPECT_LT(e.v, g.n_nodes());
            EXPECT_LT(e.u, e.v);  // canonical order
        }
        EXPECT_GT(e.prob, 0.0);
        EXPECT_TRUE(seen.insert({e.u, e.v}).second) << "duplicate edge";
    }
}

TEST(DemBuilder, EveryNodeHasEdges)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 6);
    const DecodingGraph g = dem.build();
    for (int v = 0; v < g.n_nodes(); ++v)
        EXPECT_FALSE(g.incidence()[v].empty()) << "isolated node " << v;
}

TEST(DemBuilder, TimeEdgesFromMeasurementFlips)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    // Every Z column must have a time-like edge (r, zi)-(r+1, zi).
    for (int zi = 0; zi < dem.nz(); ++zi) {
        bool found = false;
        for (const GraphEdge& e : g.edges()) {
            if (e.u == dem.node_id(1, zi) && e.v == dem.node_id(2, zi))
                found = true;
        }
        EXPECT_TRUE(found) << "no time edge for column " << zi;
    }
}

TEST(DemBuilder, LogicalEdgesExist)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    int logical_edges = 0;
    for (const GraphEdge& e : g.edges())
        logical_edges += e.logical;
    // X faults on the logical-Z row produce logical boundary edges.
    EXPECT_GT(logical_edges, 0);
}

TEST(DemBuilder, SurfaceFiveEdgeOrderIsPinned)
{
    // build() emits edges in std::unordered_map iteration order, which
    // the C++ standard leaves to the library.  The decoder grows and
    // peels in edge-id order, so that order reaches every LER: another
    // standard library fails here, at the graph, rather than as an
    // unexplained decoder or Metrics golden mismatch.  The digest is
    // FNV-1a over (u, v, logical) in emission order.
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 5);
    const DecodingGraph g = dem.build();
    uint64_t hash = 1469598103934665603ull;
    const auto mix = [&hash](uint32_t word) {
        for (int k = 0; k < 4; ++k) {
            hash ^= (word >> (8 * k)) & 0xffu;
            hash *= 1099511628211ull;
        }
    };
    for (const GraphEdge& e : g.edges()) {
        mix(static_cast<uint32_t>(e.u));
        mix(static_cast<uint32_t>(e.v));
        mix(e.logical ? 1u : 0u);
    }
    EXPECT_EQ(g.edges().size(), 301u);
    EXPECT_EQ(hash, 15897152755275701876ull);
}

}  // namespace
}  // namespace gld
