#include <cstddef>
#include "decode/union_find.h"

#include <algorithm>
#include <cassert>

namespace gld {

UnionFindDecoder::UnionFindDecoder(const DecodingGraph& graph)
    : n_(graph.n_nodes())
{
    const size_t n = static_cast<size_t>(n_);
    const size_t n_edges = graph.edges().size();
    edges_.reserve(n_edges);
    for (const GraphEdge& ge : graph.edges())
        edges_.push_back(
            {ge.u, ge.v == GraphEdge::kBoundary ? n_ : ge.v, ge.logical});
    inc_begin_.reserve(n + 1);
    inc_begin_.push_back(0);
    for (const std::vector<int>& inc : graph.incidence()) {
        inc_edges_.insert(inc_edges_.end(), inc.begin(), inc.end());
        inc_begin_.push_back(static_cast<int>(inc_edges_.size()));
    }

    node_.resize(n);
    for (int v = 0; v < n_; ++v)
        node_[static_cast<size_t>(v)] = {v, 1, -1, -1, 0, -1, 0, 0, 0};
    // The boundary node n exists only in the peeling forest.
    tree_.assign(n + 1, {0, 0, -1, -1, 0, 0});
    edge_added_.assign(n_edges, 0);

    touched_.reserve(n);
    odd_.reserve(n);
    next_.reserve(n);
    added_edges_.reserve(n_edges);
    forest_nodes_.reserve(n + 1);
    forest_adj_.resize(2 * n_edges);
    order_.reserve(n + 1);
    dense_defects_.reserve(n);
}

int
UnionFindDecoder::find(int v)
{
    while (node_[static_cast<size_t>(v)].parent != v) {
        Node& nv = node_[static_cast<size_t>(v)];
        nv.parent = node_[static_cast<size_t>(nv.parent)].parent;
        v = nv.parent;
    }
    return v;
}

void
UnionFindDecoder::join(int v)
{
    // v becomes a one-node cluster whose frontier is its own incidence.
    Node& nv = node_[static_cast<size_t>(v)];
    nv.in_cluster = 1;
    nv.fr_head = v;
    nv.fr_tail = v;
    nv.fr_next = -1;
    nv.fr_len = inc_begin_[static_cast<size_t>(v) + 1] -
                inc_begin_[static_cast<size_t>(v)];
    touched_.push_back(v);
}

void
UnionFindDecoder::unite(int a, int b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return;
    if (node_[static_cast<size_t>(a)].size <
        node_[static_cast<size_t>(b)].size)
        std::swap(a, b);
    Node& na = node_[static_cast<size_t>(a)];
    Node& nb = node_[static_cast<size_t>(b)];
    nb.parent = a;
    na.size += nb.size;
    na.parity ^= nb.parity;
    na.boundary |= nb.boundary;
    // Splice the frontiers, the longer list first and a's first on a tie.
    const Node& first = na.fr_len < nb.fr_len ? nb : na;
    const Node& second = na.fr_len < nb.fr_len ? na : nb;
    int head = first.fr_head;
    int tail = first.fr_tail;
    if (head < 0) {
        head = second.fr_head;
        tail = second.fr_tail;
    } else if (second.fr_head >= 0) {
        node_[static_cast<size_t>(tail)].fr_next = second.fr_head;
        tail = second.fr_tail;
    }
    na.fr_len += nb.fr_len;
    na.fr_head = head;
    na.fr_tail = tail;
}

void
UnionFindDecoder::bfs(int root)
{
    // order_ is the queue: every queued node is popped in push order, so
    // the queue of one search is exactly the tail it appends to order_.
    tree_[static_cast<size_t>(root)].visited = 1;
    size_t head = order_.size();
    order_.push_back(root);
    while (head < order_.size()) {
        const int v = order_[head++];
        const Tree& tv = tree_[static_cast<size_t>(v)];
        const size_t begin = static_cast<size_t>(tv.adj_begin);
        const size_t end = begin + static_cast<size_t>(tv.adj_deg);
        for (size_t k = begin; k < end; ++k) {
            const auto [w, e] = forest_adj_[k];
            Tree& tw = tree_[static_cast<size_t>(w)];
            if (!tw.visited) {
                tw.visited = 1;
                tw.parent_edge = e;
                tw.parent_node = v;
                order_.push_back(w);
            }
        }
    }
}

bool
UnionFindDecoder::decode(const std::vector<uint8_t>& syndrome)
{
    assert(static_cast<int>(syndrome.size()) == n_);
    dense_defects_.clear();
    for (int v = 0; v < n_; ++v) {
        if (syndrome[static_cast<size_t>(v)] != 0)
            dense_defects_.push_back(v);
    }
    return decode_defects(dense_defects_);
}

bool
UnionFindDecoder::decode_defects(const std::vector<int>& defects)
{
    if (defects.empty()) {
        residual_ = 0;
        return false;
    }
    touched_.clear();
    added_edges_.clear();
    for (size_t i = 0; i < defects.size(); ++i) {
        const int v = defects[i];
        assert(v >= 0 && v < n_ && (i == 0 || defects[i - 1] < v));
        join(v);
        node_[static_cast<size_t>(v)].parity = 1;
        tree_[static_cast<size_t>(v)].defect = 1;
    }

    // --- Growth. ---
    odd_.assign(defects.begin(), defects.end());
    while (!odd_.empty()) {
        next_.clear();
        for (int r : odd_) {
            r = find(r);
            Node& nr = node_[static_cast<size_t>(r)];
            if (!nr.parity || nr.boundary)
                continue;
            // Detach r's frontier and walk it: the nodes on it never join
            // another list (a node is listed once per decode, when it
            // joins), so their fr_next links stay valid while unite()
            // splices new lists onto whichever root r merges into.
            int seg = nr.fr_head;
            nr.fr_head = -1;
            nr.fr_tail = -1;
            nr.fr_len = 0;
            for (; seg >= 0; seg = node_[static_cast<size_t>(seg)].fr_next) {
                const int k_end = inc_begin_[static_cast<size_t>(seg) + 1];
                for (int k = inc_begin_[static_cast<size_t>(seg)]; k < k_end;
                     ++k) {
                    const int e = inc_edges_[static_cast<size_t>(k)];
                    if (edge_added_[static_cast<size_t>(e)])
                        continue;
                    edge_added_[static_cast<size_t>(e)] = 1;
                    added_edges_.push_back(e);
                    const Edge& ge = edges_[static_cast<size_t>(e)];
                    if (ge.v == n_) {
                        node_[static_cast<size_t>(find(ge.u))].boundary = 1;
                        continue;
                    }
                    if (!node_[static_cast<size_t>(ge.u)].in_cluster)
                        join(ge.u);
                    if (!node_[static_cast<size_t>(ge.v)].in_cluster)
                        join(ge.v);
                    unite(ge.u, ge.v);
                }
            }
            const int r2 = find(r);
            const Node& n2 = node_[static_cast<size_t>(r2)];
            if (n2.parity && !n2.boundary)
                next_.push_back(r2);
        }
        std::sort(next_.begin(), next_.end());
        next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
        // Remove entries that merged into satisfied clusters.
        const auto settled = [this](int r) {
            const Node& nr = node_[static_cast<size_t>(r)];
            return nr.parent != r || !nr.parity || nr.boundary;
        };
        next_.erase(std::remove_if(next_.begin(), next_.end(), settled),
                    next_.end());
        odd_.swap(next_);
    }

    // --- Peeling forest: a CSR over the added edges' endpoints, each
    // node's neighbours in added_edges_ order. ---
    forest_nodes_.clear();
    for (int e : added_edges_) {
        const Edge& ge = edges_[static_cast<size_t>(e)];
        for (int x : {ge.u, ge.v}) {
            if (tree_[static_cast<size_t>(x)].adj_deg++ == 0)
                forest_nodes_.push_back(x);
        }
    }
    int offset = 0;
    for (int x : forest_nodes_) {
        Tree& tx = tree_[static_cast<size_t>(x)];
        tx.adj_begin = offset;
        offset += tx.adj_deg;
        tx.adj_deg = 0;  // refilled below as the insertion cursor
    }
    for (int e : added_edges_) {
        const Edge& ge = edges_[static_cast<size_t>(e)];
        Tree& tu = tree_[static_cast<size_t>(ge.u)];
        Tree& tv = tree_[static_cast<size_t>(ge.v)];
        forest_adj_[static_cast<size_t>(tu.adj_begin + tu.adj_deg++)] = {ge.v,
                                                                         e};
        forest_adj_[static_cast<size_t>(tv.adj_begin + tv.adj_deg++)] = {ge.u,
                                                                         e};
    }
    order_.clear();
    bfs(n_);  // clusters touching the boundary root at the boundary
    for (int e : added_edges_) {
        const Edge& ge = edges_[static_cast<size_t>(e)];
        if (!tree_[static_cast<size_t>(ge.u)].visited)
            bfs(ge.u);
        if (ge.v != n_ && !tree_[static_cast<size_t>(ge.v)].visited)
            bfs(ge.v);
    }

    // --- Peeling. ---
    bool logical = false;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const int v = *it;
        Tree& tv = tree_[static_cast<size_t>(v)];
        if (v == n_ || !tv.defect)
            continue;
        const int e = tv.parent_edge;
        if (e < 0)
            continue;  // unmatched defect (counted as residual below)
        tv.defect = 0;
        tree_[static_cast<size_t>(tv.parent_node)].defect ^= 1;
        if (edges_[static_cast<size_t>(e)].logical)
            logical = !logical;
    }

    // Residual + cleanup: a defect flag can only be set on an input
    // defect or on a visited node (peeling flips parents, which are
    // visited); the boundary's flag is not a defect.  Every other piece
    // of state goes back to its default through the touched lists.
    residual_ = 0;
    for (int v : defects) {
        residual_ += tree_[static_cast<size_t>(v)].defect;
        tree_[static_cast<size_t>(v)].defect = 0;
    }
    for (int v : order_) {
        Tree& tv = tree_[static_cast<size_t>(v)];
        if (v != n_)
            residual_ += tv.defect;
        tv.defect = 0;
        tv.visited = 0;
        tv.parent_edge = -1;
        tv.parent_node = -1;
    }
    for (int x : forest_nodes_)
        tree_[static_cast<size_t>(x)].adj_deg = 0;
    for (int e : added_edges_)
        edge_added_[static_cast<size_t>(e)] = 0;
    for (int v : touched_) {
        Node& nv = node_[static_cast<size_t>(v)];
        nv.parent = v;
        nv.size = 1;
        nv.parity = 0;
        nv.boundary = 0;
        nv.in_cluster = 0;
    }
    return logical;
}

}  // namespace gld
