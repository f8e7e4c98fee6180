#ifndef GLD_CORE_CODE_CONTEXT_H_
#define GLD_CORE_CODE_CONTEXT_H_

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"

namespace gld {

/**
 * Widest pattern a lookup table is built for: 2^12 entries per
 * single-round table.  Two-round (GLADIATOR-D) keys concatenate two
 * patterns, so their cap is 2 * kMaxPatternBits = 24 bits (2^24 entries).
 * A high-degree qLDPC qubit beyond the cap is refused, not tabulated.
 */
constexpr int kMaxPatternBits = 12;

/** A pattern table wider than kMaxPatternBits (per round) was requested. */
class PatternWidthError : public std::invalid_argument {
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Throws PatternWidthError unless a table keyed by `bits` bits (2k for a
 * two-round table) fits the cap for its kind.
 */
void check_pattern_width(int bits, bool two_round);

/** Which adjacent checks contribute bits to a data qubit's pattern. */
enum class PatternScope : uint8_t {
    kBothTypes,  ///< all adjacent checks (surface/HGP/BPC: 4/var/6-bit)
    kZOnly,      ///< Z-type checks only (self-dual codes: color, 1-3 bit)
};

/**
 * A class of data qubits sharing the same local circuit structure: the
 * time-ordered types of their CNOT slots, the observation mask (which slots'
 * checks contribute pattern bits) and the weights of the involved checks.
 * All qubits of a class share one speculation table (paper §4.4: "a single
 * sequence checker can be shared across multiple data qubits").
 */
struct PatternClass {
    std::vector<CheckType> slot_types;  ///< physical slots, time order
    std::vector<uint8_t> observed;      ///< 1 if the slot's bit is observed
    std::vector<int> check_weights;     ///< stabilizer weight per slot
    int k_obs = 0;                      ///< number of observed bits
    /**
     * Observed-bit masks randomized by the leakage of someone ELSE: one
     * mask per neighbouring data qubit (the bits of the checks it shares
     * with this qubit) and one single-bit mask per slot (the slot's own
     * ancilla).  These feed the non-leakage side of the graph — such
     * patterns should trigger the neighbour's (or the MLR's) mitigation,
     * not this qubit's.
     */
    std::vector<uint32_t> neighbor_masks;

    bool operator==(const PatternClass& o) const
    {
        return slot_types == o.slot_types && observed == o.observed &&
               check_weights == o.check_weights &&
               neighbor_masks == o.neighbor_masks;
    }
};

/**
 * Shared per-code context for speculation policies: the data-qubit pattern
 * classes, pattern extraction from detector vectors, and the ERASER
 * popcount thresholds.
 */
class CodeContext {
  public:
    CodeContext(const CssCode& code, const RoundCircuit& rc,
                PatternScope scope);

    const CssCode& code() const { return *code_; }
    const RoundCircuit& rc() const { return *rc_; }
    PatternScope scope() const { return scope_; }

    int n_classes() const { return static_cast<int>(classes_.size()); }
    const std::vector<PatternClass>& classes() const { return classes_; }
    int class_of(int data_qubit) const { return class_of_[data_qubit]; }

    /** Observed pattern width for a data qubit. */
    int degree_of(int data_qubit) const
    {
        return classes_[class_of_[data_qubit]].k_obs;
    }
    /** Widest observed pattern in the code. */
    int max_degree() const { return max_degree_; }

    /**
     * Extracts data qubit q's pattern from this round's detector bits.
     * Bit i of the result is the detector of the i-th observed slot in
     * time order (q's degree must be at most 32).
     */
    uint32_t pattern_of(int q, const std::vector<uint8_t>& detector) const;

    /** A read-only view of one qubit's run of the observed-check CSR. */
    struct CheckSpan {
        const int* first;
        const int* last;
        const int* begin() const { return first; }
        const int* end() const { return last; }
        size_t size() const { return static_cast<size_t>(last - first); }
        int operator[](size_t i) const { return first[i]; }
    };

    /** Observed adjacent checks of q, in slot (time) order. */
    CheckSpan observed_checks(int q) const
    {
        return {obs_checks_.data() + obs_offsets_[q],
                obs_checks_.data() + obs_offsets_[q + 1]};
    }

    /**
     * The observed checks of every data qubit as one CSR: qubit q's run
     * is obs_checks()[obs_offsets()[q] .. obs_offsets()[q+1]), in slot
     * order; obs_offsets() has n_data + 1 entries.
     */
    const std::vector<int>& obs_offsets() const { return obs_offsets_; }
    const std::vector<int>& obs_checks() const { return obs_checks_; }

    /**
     * Default pattern scope for a code: kZOnly for self-dual codes (every
     * X-check support equals some Z-check support, e.g. color codes),
     * kBothTypes otherwise.
     */
    static PatternScope default_scope(const CssCode& code);

  private:
    const CssCode* code_;
    const RoundCircuit* rc_;
    PatternScope scope_;
    std::vector<PatternClass> classes_;
    std::vector<int> class_of_;
    std::vector<int> obs_offsets_;
    std::vector<int> obs_checks_;
    int max_degree_ = 0;
};

}  // namespace gld

#endif  // GLD_CORE_CODE_CONTEXT_H_
