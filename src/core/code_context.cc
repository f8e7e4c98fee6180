#include "core/code_context.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace gld {

void
check_pattern_width(int bits, bool two_round)
{
    const int cap = two_round ? 2 * kMaxPatternBits : kMaxPatternBits;
    if (bits > cap)
        throw PatternWidthError(
            std::string(two_round ? "two-round" : "single-round") +
            " pattern table of " + std::to_string(bits) +
            " bits exceeds the " + std::to_string(cap) + "-bit cap");
}

CodeContext::CodeContext(const CssCode& code, const RoundCircuit& rc,
                         PatternScope scope)
    : code_(&code), rc_(&rc), scope_(scope)
{
    const int n = code.n_data();
    class_of_.assign(n, -1);
    obs_offsets_.assign(1, 0);
    for (int q = 0; q < n; ++q) {
        PatternClass cls;
        for (const SlotRef& s : rc.slots_of(q)) {
            cls.slot_types.push_back(s.type);
            const bool obs = scope == PatternScope::kBothTypes ||
                             s.type == CheckType::kZ;
            cls.observed.push_back(obs ? 1 : 0);
            cls.check_weights.push_back(
                static_cast<int>(code.check(s.check).support.size()));
            if (obs)
                obs_checks_.push_back(s.check);
        }
        obs_offsets_.push_back(static_cast<int>(obs_checks_.size()));
        const CheckSpan checks = observed_checks(q);
        cls.k_obs = static_cast<int>(checks.size());
        max_degree_ = std::max(max_degree_, cls.k_obs);

        // Neighbour-leakage masks: which of q's observed bits a leaked
        // neighbour (or a leaked slot ancilla) would randomize.  Only
        // the table builders read them, and they refuse patterns wider
        // than kMaxPatternBits, so wider classes skip the 32-bit masks.
        std::map<int, uint32_t> by_neighbor;
        for (size_t i = 0; cls.k_obs <= kMaxPatternBits && i < checks.size();
             ++i) {
            for (int q2 : code.check(checks[i]).support) {
                if (q2 != q)
                    by_neighbor[q2] |= 1u << i;
            }
            cls.neighbor_masks.push_back(1u << i);  // the slot's ancilla
        }
        for (const auto& [q2, mask] : by_neighbor)
            cls.neighbor_masks.push_back(mask);
        std::sort(cls.neighbor_masks.begin(), cls.neighbor_masks.end());

        auto it = std::find(classes_.begin(), classes_.end(), cls);
        if (it == classes_.end()) {
            classes_.push_back(cls);
            class_of_[q] = static_cast<int>(classes_.size()) - 1;
        } else {
            class_of_[q] = static_cast<int>(it - classes_.begin());
        }
    }
}

uint32_t
CodeContext::pattern_of(int q, const std::vector<uint8_t>& detector) const
{
    uint32_t pat = 0;
    const CheckSpan checks = observed_checks(q);
    for (size_t i = 0; i < checks.size(); ++i) {
        if (detector[checks[i]])
            pat |= 1u << i;
    }
    return pat;
}

PatternScope
CodeContext::default_scope(const CssCode& code)
{
    // Self-dual detection: every X-check support appears as a Z-check
    // support (each face measures both types, as in color codes).
    std::set<std::vector<int>> z_supports;
    bool has_x = false;
    for (const auto& c : code.checks()) {
        if (c.type == CheckType::kZ)
            z_supports.insert(c.support);
    }
    for (const auto& c : code.checks()) {
        if (c.type == CheckType::kX) {
            has_x = true;
            if (z_supports.find(c.support) == z_supports.end())
                return PatternScope::kBothTypes;
        }
    }
    return has_x ? PatternScope::kZOnly : PatternScope::kBothTypes;
}

}  // namespace gld
