#ifndef GLD_SIM_SIMULATOR_H_
#define GLD_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"

namespace gld {

/**
 * Upper bound on the batch width multiplier K
 * (ExperimentConfig::batch_words): batch_frame packs up to
 * kMaxBatchWords * 64 shots per scheduler block.  8 words = 512 lanes
 * keeps the lane-RNG bank (4 SoA rows) at 16 KiB — L1-resident.
 */
constexpr int kMaxBatchWords = 8;

/** Lanes per batch word: 64 Monte-Carlo shots packed one per bit. */
constexpr int kBatchLanes = 64;

/** Max lanes of one batch (kMaxBatchWords words of kBatchLanes shots). */
constexpr int kMaxBatchLanes = kMaxBatchWords * kBatchLanes;

/**
 * One bit per lane; bit l of word w set means "lane w*64+l participates".
 * A batch of K words addresses lanes through K-word spans
 * (`const LaneMask*` of K words); K == 1 is the classic one-word batch.
 */
using LaneMask = uint64_t;

/** Pauli encoding shared by the driver and every backend: bit0 = X,
 *  bit1 = Z (both = Y up to the global phase, which no stabilizer
 *  statistic observes).  0 is the identity. */
constexpr uint32_t kPauliI = 0;
constexpr uint32_t kPauliX = 1;
constexpr uint32_t kPauliZ = 2;
constexpr uint32_t kPauliY = 3;

/** Outcome of one QEC round, as seen by the controller. */
struct RoundResult {
    /** Measurement flip (vs the noiseless reference) per check. */
    std::vector<uint8_t> meas_flip;
    /** Detector bits: meas_flip XOR previous round's meas_flip. */
    std::vector<uint8_t> detector;
    /** Noisy multi-level-readout leak flags per check ancilla. */
    std::vector<uint8_t> mlr_flag;
};

/** LRCs requested by a policy, applied at the start of the next round. */
struct LrcSchedule {
    std::vector<int> data_qubits;
    std::vector<int> checks;  ///< ancillas, identified by check index
    void clear()
    {
        data_qubits.clear();
        checks.clear();
    }
    bool empty() const { return data_qubits.empty() && checks.empty(); }
};

/**
 * LRCs requested for every lane of a K-word batch, as lane masks: bit l of
 * word w in qubit q's span asks for an LRC on q in lane w*64+l.  Entry
 * data[q*K+w] is word w of data qubit q, checks[c*K+w] word w of check
 * c's ancilla.
 *
 * Within a lane, the gadgets apply in ascending data-qubit index, then in
 * ascending check index — the order an ascending LrcSchedule lists them,
 * and therefore the order of that lane's LRC draws.
 */
struct LrcMasks {
    int n_words = 1;
    std::vector<LaneMask> data;
    std::vector<LaneMask> checks;

    /** Sizes the spans for n_data / n_checks qubits at K words, zeroed. */
    void reset(int n_data, int n_checks, int k);

    /**
     * ORs lane `lane`'s schedule into the masks.  Each list must be
     * strictly ascending and in range: an unordered or repeated entry
     * would silently reorder the lane's LRC draws, so it is refused with
     * std::invalid_argument.
     */
    void add_lane(int lane, const LrcSchedule& sched);

    /** Writes lane `lane`'s LRCs to `out` as an ascending schedule. */
    void lane_schedule(int lane, LrcSchedule* out) const;
};

/**
 * The partner ancilla (check index) of an LRC on data qubit q: its first
 * adjacent check, or -1 for a qubit in no check.  A data-qubit LRC
 * swaps leakage with this partner (sim/leakage_driver.h), so the
 * LRC-induced leak flow is the same in every engine that reads it.
 */
inline int
lrc_partner(const CssCode& code, int q)
{
    const std::vector<int>& adj =
        code.data_adjacency()[static_cast<size_t>(q)];
    return adj.empty() ? -1 : adj.front();
}

/**
 * One round's observables for every lane of a K-word batch: the words a
 * word-parallel policy decides from.  Spans are K words per check
 * (detector, mlr_flag: entry c*K+w) or per qubit (leaked: entry q*K+w,
 * data qubits first, then ancillas).  Bits of lanes outside `active`
 * are unspecified.
 */
struct RoundWords {
    int n_words = 1;
    const LaneMask* active = nullptr;    ///< lanes in the batch
    const LaneMask* detector = nullptr;  ///< detector bits per check
    const LaneMask* mlr_flag = nullptr;  ///< MLR leak flags per check
    /** Measurement flips per check (no in-tree kernel reads them). */
    const LaneMask* meas_flip = nullptr;
    /** Ground-truth leak flags (oracle policies only); may be null. */
    const LaneMask* leaked = nullptr;
};

/**
 * Copies lane `lane`'s bits of the n_checks check spans of `in` into
 * `out` (meas_flip reads as zero when in.meas_flip is null).
 */
void unpack_lane(const RoundWords& in, int n_checks, int lane,
                 RoundResult* out);

/**
 * Ground-truth view of one lane of a K-word leak-word span, as the
 * per-shot policy interface reads it: the layout of
 * BatchSimulator::leaked_words(), where entry q*K+w is word w of qubit q
 * (data qubits first, then ancillas) and bit l of word w is lane
 * w*64+l.  It keeps no flags of its own: it reads the state the
 * backend's round dynamics wrote.  A null span reads as nothing leaked.
 */
class LeakageOracle {
  public:
    LeakageOracle(const CssCode& code, const LaneMask* words, int n_words,
                  int lane)
        : code_(&code), words_(words), n_words_(n_words), lane_(lane)
    {
    }

    /** Points the view at another span of the same layout. */
    void bind(const LaneMask* words, int n_words)
    {
        words_ = words;
        n_words_ = n_words;
    }

    bool data_leaked(int q) const { return leaked(q); }
    bool check_leaked(int c) const { return leaked(code_->ancilla_of(c)); }
    /** Number of currently-leaked data qubits. */
    int n_data_leaked() const;
    /** Number of currently-leaked ancilla qubits. */
    int n_check_leaked() const;

  private:
    bool leaked(int q) const
    {
        if (words_ == nullptr)
            return false;
        const LaneMask* span =
            words_ + static_cast<size_t>(q) * static_cast<size_t>(n_words_);
        return (span[lane_ >> 6] >> (lane_ & 63)) & 1u;
    }

    const CssCode* code_;
    const LaneMask* words_;
    int n_words_;
    int lane_;
};

/**
 * Abstract simulation backend for the closed-loop memory experiment.
 *
 * A backend executes the scheduled syndrome-extraction circuit of one code
 * round by round.  The classical leakage dynamics — gate malfunction,
 * mobility transport, MLR, LRC gadgets — are NOT the backend's to define:
 * they live in the shared LeakageDriver (sim/leakage_driver.h), and a
 * backend only provides the quantum-state primitives the driver runs over.
 *
 * Contract shared by every backend:
 *  - run_round() applies the scheduled LRCs first (start-of-round
 *    semantics), then one noisy extraction round; detector bits are
 *    meas-XOR-previous with round-0 X-check detectors forced to 0.
 *  - All randomness comes from the constructor seed: the same seed gives
 *    a bit-identical shot sequence (per backend — different backends draw
 *    differently and agree only statistically / on noiseless semantics).
 *  - Fault injection (inject_*) is exact and deterministic, so noiseless
 *    detector signatures are comparable ACROSS backends.
 */
class Simulator {
  public:
    virtual ~Simulator() = default;

    /** Human-readable backend name ("frame", "tableau", "batch_frame"). */
    virtual std::string name() const = 0;

    /** Clears all per-shot state for a new shot. */
    virtual void reset_shot() = 0;

    /**
     * Re-seeds and fully resets this simulator so everything it does from
     * here on is BIT-identical to a freshly constructed
     * make_simulator(backend, code, rc, np, seed, batch_words) with the
     * same shape arguments (code/circuit/noise/batch_words) and this
     * seed.  This is the per-worker reuse hook of the scheduler's
     * zero-allocation steady state: a worker keeps one simulator per
     * config shape and resets it per (stream, block) instead of
     * reconstructing — no observable difference is permitted (the
     * reuse ≡ fresh determinism gate pins this per backend).
     */
    virtual void reset_for_block(uint64_t seed) = 0;

    /** Forces a data qubit into the leaked state (leakage sampling, §6). */
    virtual void inject_data_leak(int q) = 0;
    /** Forces an ancilla (by check index) into the leaked state. */
    virtual void inject_check_leak(int c) = 0;
    /** Injects an X (bit-flip) error on a qubit (tests / fault studies). */
    virtual void inject_x(int q) = 0;
    /** Injects a Z (phase-flip) error on a qubit. */
    virtual void inject_z(int q) = 0;
    /** Clears a qubit's leak flag (tests). */
    virtual void clear_leak(int q) = 0;

    /**
     * The ground-truth leak oracle: the same object for the simulator's
     * lifetime (Policy::set_oracle keeps the pointer), always reading
     * the backend's current leak state.
     */
    virtual const LeakageOracle& leak_oracle() const = 0;

    // Convenience pass-throughs so oracle reads stay one call deep at
    // every existing call site.
    bool data_leaked(int q) const { return leak_oracle().data_leaked(q); }
    bool check_leaked(int c) const { return leak_oracle().check_leaked(c); }
    /** Number of currently-leaked data qubits. */
    int n_data_leaked() const { return leak_oracle().n_data_leaked(); }
    /** Number of currently-leaked ancilla qubits. */
    int n_check_leaked() const { return leak_oracle().n_check_leaked(); }

    /**
     * Applies the scheduled LRC gadgets, then executes one noisy
     * syndrome-extraction round.
     */
    virtual RoundResult run_round(const LrcSchedule& lrcs) = 0;

    /**
     * Transversal Z-basis readout of all data qubits at the end of the
     * memory experiment.  Returns the per-qubit outcome flip (leaked
     * qubits read out randomly).
     */
    virtual std::vector<uint8_t> final_data_measure() = 0;
};

/**
 * Every backend is a BatchSimulator: the lockstep batch entry points the
 * runner drives a whole shot block through, plus the scalar Simulator
 * API implemented once on top of them (scalar calls address lane 0).
 * The packed batch_frame backend holds batch_words*64 lanes; the scalar
 * frame and tableau engines are one-lane batches (width 1, K = 1), so
 * the runner has a single block loop for every backend and a backend
 * implements only the batch entry points.  The ground truth is
 * leaked_words() alone: leak_oracle() is one LeakageOracle over lane 0
 * of those words, for every backend.
 */
class BatchSimulator : public Simulator {
  public:
    /** Max shots one batch holds (batch_words*64 for packed backends). */
    virtual int batch_width() const = 0;

    /**
     * Starts a batch of n_lanes shots (1 <= n_lanes <= batch_width();
     * a one-lane backend refuses any other count with
     * std::invalid_argument).
     */
    virtual void reset_shot_batch(int n_lanes) = 0;

    /** Lanes of the current batch (1 before the first reset_shot_batch). */
    virtual int batch_lanes() const = 0;

    /**
     * Forces lane `lane`'s data qubit q into the leaked state (a
     * one-lane backend refuses lane != 0 with std::invalid_argument).
     */
    virtual void inject_data_leak_lane(int lane, int q) = 0;

    /** Words per lane span (K); leaked_words() strides by this. */
    virtual int batch_n_words() const = 0;

    /**
     * Ground-truth leak-flag words, one span per qubit (bit l of word w
     * = lane w*64+l) — the whole batch's truth in one read, so the
     * runner's per-round speculation accounting is popcounts over words
     * instead of per-lane oracle walks.  Entry q*batch_n_words()+w is
     * word w of qubit q (data qubits first, then ancillas).  The span's
     * address is fixed for the simulator's lifetime.
     */
    virtual const LaneMask* leaked_words() const = 0;

    /**
     * Round words of the last round, one span per check (entry
     * c*batch_n_words()+w; bit l of word w = lane w*64+l) — the bits
     * run_round_batch unpacks into each lane's RoundResult.  Bits of
     * lanes outside the batch are unspecified; mask them.  A freshly
     * constructed backend's words are zero.
     */
    virtual const LaneMask* detector_words() const = 0;
    virtual const LaneMask* meas_flip_words() const = 0;
    virtual const LaneMask* mlr_flag_words() const = 0;

    /**
     * One lockstep round over every active lane, LRCs given as lane
     * masks (see LrcMasks for the per-lane apply order); the outcome is
     * read from the round words.
     */
    virtual void run_round_masks(const LrcMasks& lrcs) = 0;

    /**
     * Lockstep final transversal readout of every active lane: outcome
     * flip words, one span per data qubit, valid until the next call.
     */
    virtual const LaneMask* final_data_measure_words() = 0;

    /**
     * One lockstep round over every active lane, LRCs given as per-lane
     * schedules (one per lane of the batch, each strictly ascending —
     * see LrcMasks::add_lane): packs them, runs run_round_masks and
     * unpacks every lane's RoundResult from the round words.
     */
    void run_round_batch(const std::vector<LrcSchedule>& lane_lrcs,
                         std::vector<RoundResult>* out);

    // --- Scalar Simulator API: lane 0 of the batch entry points. ---
    void reset_shot() final { reset_shot_batch(1); }
    void inject_data_leak(int q) final { inject_data_leak_lane(0, q); }
    /** Lane 0 of leaked_words(). */
    const LeakageOracle& leak_oracle() const final
    {
        oracle_.bind(leaked_words(), batch_n_words());
        return oracle_;
    }
    /**
     * Runs lrcs (strictly ascending, see LrcMasks::add_lane) as lane 0's
     * schedule; any other active lane gets no LRCs.
     */
    RoundResult run_round(const LrcSchedule& lrcs) final;
    std::vector<uint8_t> final_data_measure() final;

  protected:
    explicit BatchSimulator(const CssCode& code)
        : code_(&code), oracle_(code, nullptr, 1, 0)
    {
    }

    const CssCode* code_;

  private:
    /** The last round's words (no active mask, no leak words). */
    RoundWords last_round() const;

    LrcMasks masks_;  ///< the scalar and per-lane schedules, packed
    /// leak_oracle()'s lane-0 view, bound to leaked_words() per call.
    mutable LeakageOracle oracle_;
};

/**
 * The available backends.  kFrame is the paper's Pauli-frame engine (fast,
 * samples Pauli noise exactly); kTableau drives the exact CHP stabilizer
 * tableau through the same round circuit (slower by O(n^2) per
 * measurement; exact-stabilizer states), the statistical referee of the
 * frame engines; kBatchFrame packs K*64 shots (K = batch_words) into K
 * words per qubit and runs them in lockstep — bit-identical Metrics to
 * kFrame under lockstep sampling.  All share the LeakageDriver semantics
 * for every classical-leakage decision.
 */
enum class SimBackend : uint8_t {
    kFrame = 0,
    kTableau = 1,
    kBatchFrame = 2,
};

/** Canonical backend name ("frame" / "tableau" / "batch_frame"). */
const char* backend_name(SimBackend backend);

/** Every known backend, in enum order (the factory's dispatch set). */
const std::vector<SimBackend>& known_backends();

/** Comma-separated canonical names, for error messages and --help text. */
std::string known_backend_names();

/**
 * Inverse of backend_name; throws std::runtime_error naming the unknown
 * input AND listing every known backend.
 */
SimBackend backend_from_name(const std::string& name);

/**
 * The backend selected by the GLD_BACKEND environment variable — the one
 * resolution point benches and examples share.  Unset/empty means kFrame;
 * an unknown name throws, naming the variable and the known backends.
 */
SimBackend backend_from_env();

/**
 * The batch width multiplier K selected by the GLD_BATCH_WORDS
 * environment variable — the one resolution point benches, tests and
 * the demo share.  Unset/empty means 1; anything outside
 * [1, kMaxBatchWords] (or non-numeric) throws, naming the variable and
 * the valid range.  K is RESULT-AFFECTING: it sets the scheduler block
 * size (64*K shots) and therefore the (seed, stream, block) RNG
 * derivation, so it is part of the config hash when != 1.
 */
int batch_words_from_env();

/**
 * How batch_frame samples its Bernoulli noise sites.
 *
 * kLockstep (the default) is the classic draw contract: every lane of a
 * batch owns a per-lane RNG stream and draws once at EVERY noise site,
 * so lane k replays the scalar backend's shot k draw for draw — the
 * basis of the frame/batch_frame bit-equality gate.
 *
 * kSparse is event-driven: one dedicated scalar event stream per
 * (stream, block) work unit draws geometric skips over the flattened
 * (site x lane) position space of a round and touches only the lanes
 * that actually fire — quiet sites cost zero RNG work.  The draw
 * sequence legitimately differs from the scalar backends', so sparse
 * batch_frame registers its own backend_rng_contract value and is
 * qualified STATISTICALLY by `gld_campaign verify` (pooled z-tests),
 * not by bit-diff.  Scalar backends ignore the knob entirely (like
 * batch_words).  RESULT-AFFECTING on batch_frame: serialized and
 * config-hashed when != kLockstep.
 */
enum class NoiseSampling : uint8_t {
    kLockstep = 0,
    kSparse = 1,
};

/** Canonical mode name ("lockstep" / "sparse"). */
const char* noise_sampling_name(NoiseSampling sampling);

/** Comma-separated canonical names, for error messages and --help text. */
std::string known_noise_sampling_names();

/**
 * Inverse of noise_sampling_name; throws std::runtime_error naming the
 * unknown input AND listing every known mode.
 */
NoiseSampling noise_sampling_from_name(const std::string& name);

/**
 * The noise sampling mode selected by the GLD_NOISE_SAMPLING environment
 * variable — the one resolution point benches, tests and the demo share.
 * Unset/empty means kLockstep; an unknown name throws, naming the
 * variable and the known modes.
 */
NoiseSampling noise_sampling_from_env();

/**
 * Sets a config's engine from the environment: the backend from
 * GLD_BACKEND, the batch width from GLD_BATCH_WORDS and the noise
 * sampling from GLD_NOISE_SAMPLING (the three functions above).  The
 * example and bench binaries take their engine through this one call,
 * so every CI env lane reaches all of them.  `Config` is
 * ExperimentConfig or campaign::CampaignSpec.
 */
template <typename Config>
void
engine_from_env(Config* cfg)
{
    cfg->backend = backend_from_env();
    cfg->batch_words = batch_words_from_env();
    cfg->noise_sampling = noise_sampling_from_env();
}

/**
 * RNG contract group of `backend` running under `sampling` (from the
 * one backend table).  Two runs with the SAME contract id replay
 * identical (seed, stream, block) draw sequences, so any config's
 * Metrics must be BIT-identical between them — the contract behind
 * frame/batch_frame equality and the verify referee's bit-exact mode.
 * Different ids draw independent randomness and agree only
 * statistically.  At kSparse batch_frame moves to its own contract id
 * (its event-driven draw sequence matches no lockstep engine), while
 * the scalar backends — which ignore the knob — keep their lockstep ids.
 */
int backend_rng_contract(SimBackend backend, NoiseSampling sampling);

/**
 * Relative per-shot simulation cost of a backend on an n-qubit code,
 * normalized to the frame engine (= 1).  The tableau backend pays
 * O(n^2/64) bit-plane words per measurement where the frame engine pays
 * O(1) per frame bit, so its factor grows quadratically with code size.
 * Used by campaign planning to print honest per-shard loads for
 * mixed-backend sweeps; it is a throughput model, never result-affecting.
 */
double backend_cost_factor(SimBackend backend, int n_qubits);

/**
 * Builds a backend over a code's scheduled round circuit.  `batch_words`
 * is batch_frame's lane-span width K: one batch holds 64*K shots.
 * Scalar backends ignore it (they are one-lane batches); out-of-range
 * values throw for every backend.  `noise_sampling` selects
 * batch_frame's Bernoulli draw contract (lockstep or event-driven
 * sparse); scalar backends ignore it.
 */
std::unique_ptr<BatchSimulator> make_simulator(
    SimBackend backend, const CssCode& code, const RoundCircuit& rc,
    const NoiseParams& np, uint64_t seed, int batch_words = 1,
    NoiseSampling noise_sampling = NoiseSampling::kLockstep);

}  // namespace gld

#endif  // GLD_SIM_SIMULATOR_H_
