#include "core/policy_static.h"

#include <algorithm>

#include "circuit/schedule.h"

namespace gld {

namespace {

/** Every span of `words` (K words each) := active if pick(i), else 0. */
template <typename Pick>
void
fill_spans(std::vector<LaneMask>* words, const RoundWords& in, Pick pick)
{
    const size_t K = static_cast<size_t>(in.n_words);
    const size_t n = words->size() / K;
    for (size_t i = 0; i < n; ++i) {
        const bool on = pick(static_cast<int>(i));
        for (size_t w = 0; w < K; ++w)
            (*words)[i * K + w] = on ? in.active[w] : 0;
    }
}

}  // namespace

void
NoLrcPolicy::observe_words(int, const RoundWords&, LrcMasks* out)
{
    std::fill(out->data.begin(), out->data.end(), 0);
    std::fill(out->checks.begin(), out->checks.end(), 0);
}

void
AlwaysLrcPolicy::observe_words(int, const RoundWords& in, LrcMasks* out)
{
    const auto all = [](int) { return true; };
    fill_spans(&out->data, in, all);
    fill_spans(&out->checks, in, all);
}

StaggeredLrcPolicy::StaggeredLrcPolicy(const CodeContext& ctx)
    : WordPolicy(ctx)
{
    const CssCode& code = ctx.code();
    const int n = code.n_qubits();
    // Conflict graph: qubits interacting through a common check — the
    // check's ancilla with each of its data qubits, and the data qubits of
    // a check pairwise ("adjacent or diagonally neighbouring", §3.5).
    std::vector<std::pair<int, int>> edges;
    for (int c = 0; c < code.n_checks(); ++c) {
        const auto& sup = code.check(c).support;
        const int anc = code.ancilla_of(c);
        for (size_t i = 0; i < sup.size(); ++i) {
            edges.emplace_back(anc, sup[i]);
            for (size_t j = i + 1; j < sup.size(); ++j)
                edges.emplace_back(sup[i], sup[j]);
        }
    }
    colors_ = GreedyVertexColoring::color(n, edges, &n_colors_);
}

void
StaggeredLrcPolicy::observe_words(int round, const RoundWords& in,
                                  LrcMasks* out)
{
    // The group LRC'd at the START of round (round + 1).
    const int group = (round + 1) % n_colors_;
    const CssCode& code = ctx().code();
    fill_spans(&out->data, in, [&](int q) {
        return colors_[static_cast<size_t>(q)] == group;
    });
    fill_spans(&out->checks, in, [&](int c) {
        return colors_[static_cast<size_t>(code.ancilla_of(c))] == group;
    });
}

}  // namespace gld
