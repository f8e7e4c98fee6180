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
 * cluster has even defect parity or touches the boundary; a spanning-forest
 * peeling pass then selects a correction and returns its logical parity.
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
 *  - The peeling forest is a CSR built from added_edges_ in insertion
 *    order.
 * The splice order is part of the output contract: frontiers join longer
 * list first, and on a tie the surviving root's list first.  It fixes the
 * order in which edges are grown, hence the peeling forest and the
 * predicted flip; the golden corpus in tests/test_union_find.cc pins the
 * decoder's exact output.  Not thread-safe; one instance per thread.
 */
class UnionFindDecoder {
  public:
    explicit UnionFindDecoder(const DecodingGraph& graph);

    /**
     * Decodes one syndrome given as its defect node ids, strictly
     * ascending, each in [0, n_nodes) — node (r, zc) = r * n_z + zc, so a
     * round-major scan produces the list in order.  An empty list returns
     * false with no work (no defects means no growth and an empty forest),
     * but that path is rare: on the Fig 12 LER sweep (p = 1e-3, lr = 0.1)
     * fewer than 0.3% of syndromes are quiet and the mean is ~50 defects,
     * so the decoder's cost is the per-defect growth and peeling below.
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
        uint8_t boundary;
        uint8_t in_cluster;
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
    };

    int find(int v);
    void join(int v);
    void unite(int a, int b);
    void bfs(int root);

    int n_;
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
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
