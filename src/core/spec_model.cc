#include <cstddef>
#include "core/spec_model.h"

#include <cassert>

namespace gld {

namespace {

/** Does a `pauli` (0=X, 1=Z, 2=Y) on the data qubit flip a check of type t? */
bool
flips(int pauli, CheckType t)
{
    // X errors anticommute with Z stabilizers, Z with X, Y with both.
    if (pauli == 0)
        return t == CheckType::kZ;
    if (pauli == 1)
        return t == CheckType::kX;
    return true;
}

/** A deterministic non-leakage event: weight + per-round pattern flips. */
struct NlEvent {
    double w;
    uint32_t s1;  // round-r pattern (observed bits)
    uint32_t s2;  // round-(r+1) pattern; unused for single-round tables
};

/** Shared geometry of a pattern class used by both table flavours. */
struct ClassGeometry {
    int n_slots;
    int k;
    // Observed-bit index per physical slot (-1 if unobserved).
    std::vector<int> obs_index;

    explicit ClassGeometry(const PatternClass& cls)
        : n_slots(static_cast<int>(cls.slot_types.size())), k(cls.k_obs)
    {
        obs_index.assign(n_slots, -1);
        int idx = 0;
        for (int i = 0; i < n_slots; ++i) {
            if (cls.observed[i])
                obs_index[i] = idx++;
        }
        assert(idx == k);
    }

    /** Observed pattern of a Pauli onset at stage j (before slot j). */
    uint32_t
    onset(const PatternClass& cls, int pauli, int j) const
    {
        uint32_t pat = 0;
        for (int i = j; i < n_slots; ++i) {
            if (obs_index[i] >= 0 && flips(pauli, cls.slot_types[i]))
                pat |= 1u << obs_index[i];
        }
        return pat;
    }

    /** Mask of observed bits at slots >= j (leakage randomization zone). */
    uint32_t
    suffix_mask(int j) const
    {
        uint32_t m = 0;
        for (int i = j; i < n_slots; ++i) {
            if (obs_index[i] >= 0)
                m |= 1u << obs_index[i];
        }
        return m;
    }
};

/** Probability that the data qubit suffers the given Pauli at stage j. */
double
pauli_stage_weight(const NoiseParams& np, int j)
{
    if (j == 0)
        return np.p / 3.0;  // round-start depolarization marginal
    // Two-qubit depolarizing after the CNOT at slot j-1: 4 of the 15
    // non-identity pairs put each given Pauli on the data operand.
    return 4.0 * np.p / 15.0;
}

/** Probability that the slot's measurement record m_r flips (one round). */
double
mr_flip_weight(const PatternClass& cls, const NoiseParams& np, int slot)
{
    double w = np.p;  // readout flip
    w += np.p;        // reset/init flip on the ancilla
    // Gate marginals on the ancilla across all of the check's CNOTs: 8 of
    // 15 two-qubit Paulis carry a measurement-flipping component.
    w += (8.0 * np.p / 15.0) * cls.check_weights[slot];
    if (cls.slot_types[slot] == CheckType::kX)
        w += 2.0 * np.p / 3.0;  // Hadamard depolarizing (2 H gates)
    return w;
}

/** Iterates all submasks of `mask`, calling f(sub). */
template <typename F>
void
for_each_submask(uint32_t mask, F&& f)
{
    uint32_t sub = mask;
    while (true) {
        f(sub);
        if (sub == 0)
            break;
        sub = (sub - 1) & mask;
    }
}

void
add_second_order(const std::vector<NlEvent>& events, int shift,
                 std::vector<double>* w_nonleak)
{
    for (size_t a = 0; a < events.size(); ++a) {
        for (size_t b = a + 1; b < events.size(); ++b) {
            const uint32_t key = ((events[a].s1 ^ events[b].s1) << shift) |
                                 (events[a].s2 ^ events[b].s2);
            (*w_nonleak)[key] += events[a].w * events[b].w;
        }
    }
}

}  // namespace

PatternWeights
SpecModel::single_round(const PatternClass& cls, const NoiseParams& np,
                        const SpecModelOptions& opt)
{
    check_pattern_width(cls.k_obs, /*two_round=*/false);
    const ClassGeometry g(cls);
    PatternWeights out;
    out.bits = g.k;
    out.w_leak.assign(1u << g.k, 0.0);
    out.w_nonleak.assign(1u << g.k, 0.0);

    // --- First-order non-leakage events. ---
    std::vector<NlEvent> events;
    for (int pauli = 0; pauli < 3; ++pauli) {
        const uint32_t full = g.onset(cls, pauli, 0);
        for (int j = 0; j <= g.n_slots; ++j) {
            const double w = pauli_stage_weight(np, j);
            const uint32_t o = g.onset(cls, pauli, j);
            if (o != 0)
                events.push_back({w, o, 0});
            if (opt.include_prior_tails) {
                // The residue a round-(r-1) stage-j error leaves in this
                // round's detectors.
                const uint32_t tail = full ^ o;
                if (tail != 0)
                    events.push_back({w, tail, 0});
            }
        }
    }
    for (int i = 0; i < g.n_slots; ++i) {
        if (g.obs_index[i] < 0)
            continue;
        // Current-round record flip + previous-round readout flip both
        // toggle exactly this detector bit.
        const double w = mr_flip_weight(cls, np, i) + np.p;
        events.push_back({w, 1u << g.obs_index[i], 0});
    }
    for (const NlEvent& e : events)
        out.w_nonleak[e.s1] += e.w;
    if (opt.max_order >= 2)
        add_second_order(events, 0, &out.w_nonleak);

    // Not-my-leakage: a leaked neighbour (or slot ancilla) randomizes only
    // the shared bits; those patterns belong to the neighbour's (or the
    // MLR's) mitigation path, so they weight the non-leakage super-edge.
    const double pi_n = np.pl() * opt.neighbor_leak_lifetime;
    for (uint32_t mask : cls.neighbor_masks) {
        const double share =
            pi_n / static_cast<double>(1u << __builtin_popcount(mask));
        for_each_submask(mask,
                         [&](uint32_t sub) { out.w_nonleak[sub] += share; });
    }

    // --- Leakage events. ---
    const double pl = np.pl();
    for (int j = 0; j <= g.n_slots; ++j) {
        // Onset before slot j (environment at j = 0, gate-induced later):
        // every later slot's CNOT malfunctions, flipping its bit with
        // probability 1/2 -> uniform over the suffix submasks.
        const uint32_t zone = g.suffix_mask(j);
        const int m = __builtin_popcount(zone);
        const double share = pl / static_cast<double>(1u << m);
        for_each_submask(zone,
                         [&](uint32_t sub) { out.w_leak[sub] += share; });
    }
    // Persistent leakage carried in from earlier rounds randomizes every
    // observed bit.
    const double pi = pl * opt.persist_lifetime;
    const double share = pi / static_cast<double>(1u << g.k);
    for (uint32_t s = 0; s < (1u << g.k); ++s)
        out.w_leak[s] += share;
    return out;
}

PatternWeights
SpecModel::two_round(const PatternClass& cls, const NoiseParams& np,
                     const SpecModelOptions& opt)
{
    check_pattern_width(2 * cls.k_obs, /*two_round=*/true);
    const ClassGeometry g(cls);
    const int k = g.k;
    PatternWeights out;
    out.bits = 2 * k;
    out.w_leak.assign(1u << (2 * k), 0.0);
    out.w_nonleak.assign(1u << (2 * k), 0.0);
    auto key = [k](uint32_t s1, uint32_t s2) { return (s1 << k) | s2; };

    // --- First-order non-leakage events. ---
    std::vector<NlEvent> events;
    for (int pauli = 0; pauli < 3; ++pauli) {
        const uint32_t full = g.onset(cls, pauli, 0);
        for (int j = 0; j <= g.n_slots; ++j) {
            const double w = pauli_stage_weight(np, j);
            const uint32_t o = g.onset(cls, pauli, j);
            // Onset in round r: partial pattern now, complement next round.
            if ((o | (full ^ o)) != 0)
                events.push_back({w, o, full ^ o});
            // Onset in round r+1: partial pattern in the second half.
            if (o != 0)
                events.push_back({w, 0, o});
            // Tail of a round-(r-1) onset sliding into the window.
            if ((full ^ o) != 0)
                events.push_back({w, full ^ o, 0});
        }
    }
    for (int i = 0; i < g.n_slots; ++i) {
        if (g.obs_index[i] < 0)
            continue;
        const uint32_t e = 1u << g.obs_index[i];
        const double w_mr = mr_flip_weight(cls, np, i);
        events.push_back({w_mr, e, e});  // record flip in round r
        events.push_back({np.p, e, 0});  // round-(r-1) readout flip
        events.push_back({w_mr, 0, e});  // record flip in round r+1
    }
    for (const NlEvent& e : events)
        out.w_nonleak[key(e.s1, e.s2)] += e.w;
    if (opt.max_order >= 2)
        add_second_order(events, k, &out.w_nonleak);

    // Not-my-leakage (see single_round): a persistently leaked neighbour
    // randomizes its shared bits in BOTH rounds of the window.
    const double pi_n = np.pl() * opt.neighbor_leak_lifetime;
    for (uint32_t mask : cls.neighbor_masks) {
        const int pc = __builtin_popcount(mask);
        const double share = pi_n / static_cast<double>(1u << (2 * pc));
        for_each_submask(mask, [&](uint32_t s1) {
            for_each_submask(mask, [&](uint32_t s2) {
                out.w_nonleak[key(s1, s2)] += share;
            });
        });
    }

    // --- Leakage events. ---
    const double pl = np.pl();
    const uint32_t all = (1u << k) - 1;
    for (int j = 0; j <= g.n_slots; ++j) {
        const uint32_t zone = g.suffix_mask(j);
        const int m = __builtin_popcount(zone);
        // Onset in round r: suffix-random now, fully random next round
        // (the qubit is still leaked).
        const double share_r = pl / static_cast<double>(1u << (m + k));
        for_each_submask(zone, [&](uint32_t s1) {
            for (uint32_t s2 = 0; s2 <= all; ++s2)
                out.w_leak[key(s1, s2)] += share_r;
        });
        // Onset in round r+1: quiet first half, suffix-random second half.
        const double share_n = pl / static_cast<double>(1u << m);
        for_each_submask(zone, [&](uint32_t s2) {
            out.w_leak[key(0, s2)] += share_n;
        });
    }
    const double pi = pl * opt.persist_lifetime;
    const double share = pi / static_cast<double>(1u << (2 * k));
    for (uint32_t s = 0; s < (1u << (2 * k)); ++s)
        out.w_leak[s] += share;
    return out;
}

std::vector<uint8_t>
SpecModel::label(const PatternWeights& w, double threshold)
{
    std::vector<uint8_t> flags(w.w_leak.size(), 0);
    for (size_t s = 1; s < w.w_leak.size(); ++s)
        flags[s] = w.w_leak[s] > threshold * w.w_nonleak[s] ? 1 : 0;
    return flags;
}

}  // namespace gld
