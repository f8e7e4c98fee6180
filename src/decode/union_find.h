#ifndef GLD_DECODE_UNION_FIND_H_
#define GLD_DECODE_UNION_FIND_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "decode/decoding_graph.h"

namespace gld {

/**
 * Union-find decoder (Delfosse-Nickerson style, unweighted growth):
 * odd-parity clusters grow by absorbing their frontier edges until every
 * cluster has even defect parity, touches the boundary or fills a
 * connected component that has no boundary edge (each of bpc's DEM
 * components is one; its odd clusters are residual); the decoder then
 * returns the logical parity of a correction inside the grown clusters.
 *
 * Most clusters need no correction to be built.  At construction one BFS
 * labels the nodes with a bit phi such that logical(e) = phi(u) ^ phi(v)
 * on every bulk edge, and gives each boundary edge the side bit
 * logical(e) ^ phi(u).  Clusters carry a two-bit mask of the sides their
 * grown boundary edges reach.  Every correction inside a cluster that
 * reaches at most one side s then has the same logical parity: the XOR of
 * its defects' phi, plus s if the cluster is odd.  Only the clusters that
 * reach both sides, odd clusters that reach neither (residual defects),
 * and every cluster when no such labelling exists (e.g. color codes) go
 * through a spanning-forest peel (Delfosse-Zemor), which selects one
 * correction edge by edge.
 *
 * Near-matching accuracy at a fraction of MWPM's cost — and the paper's
 * LER comparisons are relative across leakage policies, which this
 * preserves.
 *
 * The decoder is an ARENA sized once from the graph: one decode costs
 * time proportional to the nodes and edges it touches and performs no
 * heap allocation, not even on the first call.
 *  - The graph's incidence is flattened into one CSR array.  A cluster's
 *    frontier is an intrusive list of nodes linked through the node
 *    state, each contributing its whole CSR incidence range, so merging
 *    two frontiers is an O(1) splice.
 *  - Per-node state sits at its between-decode defaults; a decode resets
 *    exactly the nodes, edges and forest entries it touched (tracked in
 *    touched_, added_edges_, forest_nodes_ and order_), never O(n).
 *  - The peeling forest is a CSR built from the peeled clusters' edges,
 *    in the order they were grown.
 * The splice order is part of the output contract: frontiers join longer
 * list first, and on a tie the surviving root's list first.  It fixes the
 * order in which edges are grown, hence the peeling forest and the
 * predicted flip of a cluster that reaches both sides; the golden corpus
 * in tests/test_union_find.cc pins the decoder's exact output.  Peeling a
 * subset of the clusters builds each of them the same tree as peeling all
 * of them would: the BFS from the boundary, then from the roots in growth
 * order, dequeues each cluster's nodes in the same relative order either
 * way, since clusters share no node but the boundary.  Not thread-safe;
 * one instance per thread.
 */
class UnionFindDecoder {
  public:
    explicit UnionFindDecoder(const DecodingGraph& graph);

    /**
     * Decodes one syndrome given as its defect node ids, strictly
     * ascending, each in [0, n_nodes) — node (r, zc) = r * n_z + zc, so a
     * round-major scan produces the list in order.  An empty list returns
     * false with no work, but that path is rare: on the Fig 12 LER sweep
     * (p = 1e-3, lr = 0.1) fewer than 0.3% of syndromes are quiet.  The
     * cost is growth, proportional to the edges grown, plus the peel of
     * the clusters that reach both boundaries; under the LRC policies most
     * syndromes have none (see last_peeled_edges()).
     * @return the predicted logical-observable flip.
     */
    bool decode_defects(const std::vector<int>& defects);

    /**
     * Dense adapter: one byte per node (nonzero = defect).  Collects the
     * defect list into reused scratch and calls decode_defects().
     */
    bool decode(const std::vector<uint8_t>& syndrome);

    /** Number of defects left unmatched by the last decode (0 = clean). */
    int last_residual() const { return residual_; }
    /** Edges the last decode's growth added to its clusters. */
    int last_grown_edges() const { return grown_edges_; }
    /** Of those, the edges of the clusters the last decode peeled. */
    int last_peeled_edges() const { return peeled_edges_; }

  private:
    /** Union-find state of one node; defaults hold between decodes. */
    struct Node {
        int parent;
        int size;
        // Frontier list, meaningful at roots: the first and last member
        // node and the total edge count (the splice-order key).
        int fr_head;
        int fr_tail;
        int fr_len;
        int fr_next;  ///< next node of the list this node's range is in
        uint8_t parity;
        uint8_t boundary;  ///< sides reached: bit 0 and/or bit 1
        uint8_t in_cluster;
        uint8_t phi;  ///< coboundary label; immutable
    };
    /** Peeling-forest state of one node (index n is the boundary). */
    struct Tree {
        int adj_begin;  ///< this node's range in forest_adj_
        int adj_deg;    ///< forest degree; 0 between decodes
        int parent_edge;
        int parent_node;
        uint8_t visited;
        uint8_t defect;
    };
    /** A graph edge, boundary edges pointing at node n. */
    struct Edge {
        int u;
        int v;
        bool logical;
        uint8_t side;  ///< boundary edges: 1 << (logical ^ phi(u))
    };

    int find(int v);
    void join(int v);
    void unite(int a, int b);
    void bfs(int root);
    bool must_peel(int root) const;
    /**
     * Builds the forest over `edges` (the grown edges of the clusters to
     * peel, in growth order; their defects flagged in tree_), peels it,
     * adds the visited nodes' unmatched defects to residual_ and resets
     * the forest state.  Returns the correction's logical parity.
     */
    bool peel(const std::vector<int>& edges);

    int n_;
    bool labelled_;  ///< phi satisfies every edge
    // Immutable flattened graph.
    std::vector<Edge> edges_;
    std::vector<int> inc_begin_;  ///< n + 1 offsets into inc_edges_
    std::vector<int> inc_edges_;
    // Per-node / per-edge state at its defaults between decodes.
    std::vector<Node> node_;
    std::vector<Tree> tree_;
    std::vector<uint8_t> edge_added_;
    // Touched lists and scratch, reserved to their worst case up front.
    std::vector<int> touched_;
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> added_edges_;
    std::vector<int> forest_nodes_;
    std::vector<std::pair<int, int>> forest_adj_;  ///< (neighbour, edge)
    std::vector<int> order_;  ///< BFS visit order; doubles as the queue
    std::vector<int> dense_defects_;
    int residual_ = 0;
    int grown_edges_ = 0;
    int peeled_edges_ = 0;
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
