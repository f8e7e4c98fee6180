#include "sim/simulator.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/batch_driver.h"
#include "sim/frame_sim.h"
#include "sim/tableau_leak_sim.h"

namespace gld {

namespace {

/**
 * The one backend table: enum value + canonical name + RNG contract id.
 * backend_name, backend_from_name, known_backends, backend_rng_contract
 * and make_simulator all derive from it, so a new backend registers
 * exactly once and every error message lists it automatically.
 *
 * rng_contract groups backends that replay the SAME (seed, stream,
 * block) draw sequence: frame and batch_frame share contract 0 (lane k
 * of a batch is scalar shot k draw for draw, at every batch width), so
 * their Metrics are bit-identical by construction and the verify referee
 * compares them bit-exactly.  The tableau engine draws its own
 * measurement-collapse randomness (contract 1) and agrees with them only
 * statistically.
 *
 * sparse_rng_contract is the contract id the backend moves to under
 * NoiseSampling::kSparse: batch_frame switches to an event-driven scalar
 * stream per (stream, block) work unit (contract 3 — a draw sequence no
 * lockstep engine replays), while the scalar engines ignore the knob and
 * keep their lockstep ids.
 */
struct BackendEntry {
    SimBackend backend;
    const char* name;
    int rng_contract;
    int sparse_rng_contract;
};

constexpr BackendEntry kBackendTable[] = {
    {SimBackend::kFrame, "frame", 0, 0},
    {SimBackend::kTableau, "tableau", 1, 1},
    {SimBackend::kBatchFrame, "batch_frame", 0, 3},
};

/**
 * The one noise-sampling table, mirroring kBackendTable: enum value +
 * canonical name.  noise_sampling_name / _from_name / _from_env all
 * derive from it.
 */
struct NoiseSamplingEntry {
    NoiseSampling sampling;
    const char* name;
};

constexpr NoiseSamplingEntry kNoiseSamplingTable[] = {
    {NoiseSampling::kLockstep, "lockstep"},
    {NoiseSampling::kSparse, "sparse"},
};

[[noreturn]] void
throw_unknown_backend(const std::string& what)
{
    throw std::runtime_error(what + " (known backends: " +
                             known_backend_names() + ")");
}

[[noreturn]] void
throw_unknown_sampling(const std::string& what)
{
    throw std::runtime_error(what + " (known noise sampling modes: " +
                             known_noise_sampling_names() + ")");
}

}  // namespace

void
LrcMasks::reset(int n_data, int n_checks, int k)
{
    n_words = k;
    data.assign(static_cast<size_t>(n_data) * static_cast<size_t>(k), 0);
    checks.assign(static_cast<size_t>(n_checks) * static_cast<size_t>(k),
                  0);
}

namespace {

void
add_lane_list(const std::vector<int>& list, int lane, int k,
              std::vector<LaneMask>* words, const char* what)
{
    const int n = static_cast<int>(words->size()) / k;
    int prev = -1;
    for (int v : list) {
        if (v <= prev || v >= n)
            throw std::invalid_argument(
                std::string("LrcMasks: ") + what + " list of lane " +
                std::to_string(lane) +
                " must be strictly ascending indices in [0, " +
                std::to_string(n) + "), got " + std::to_string(v) +
                " after " + std::to_string(prev));
        (*words)[static_cast<size_t>(v) * static_cast<size_t>(k) +
                 static_cast<size_t>(lane >> 6)] |= 1ull << (lane & 63);
        prev = v;
    }
}

void
lane_list(const std::vector<LaneMask>& words, int lane, int k,
          std::vector<int>* out)
{
    out->clear();
    const size_t K = static_cast<size_t>(k);
    const int b = lane & 63;
    const size_t n = words.size() / K;
    const LaneMask* span = words.data() + (lane >> 6);
    for (size_t v = 0; v < n; ++v, span += K) {
        if ((*span >> b) & 1u)
            out->push_back(static_cast<int>(v));
    }
}

}  // namespace

void
LrcMasks::add_lane(int lane, const LrcSchedule& sched)
{
    add_lane_list(sched.data_qubits, lane, n_words, &data, "data");
    add_lane_list(sched.checks, lane, n_words, &checks, "check");
}

void
LrcMasks::lane_schedule(int lane, LrcSchedule* out) const
{
    lane_list(data, lane, n_words, &out->data_qubits);
    lane_list(checks, lane, n_words, &out->checks);
}

int
LeakageOracle::n_data_leaked() const
{
    int n = 0;
    for (int q = 0; q < code_->n_data(); ++q)
        n += data_leaked(q) ? 1 : 0;
    return n;
}

int
LeakageOracle::n_check_leaked() const
{
    int n = 0;
    for (int c = 0; c < code_->n_checks(); ++c)
        n += check_leaked(c) ? 1 : 0;
    return n;
}

void
unpack_lane(const RoundWords& in, int n_checks, int lane, RoundResult* out)
{
    const size_t n = static_cast<size_t>(n_checks);
    const size_t K = static_cast<size_t>(in.n_words);
    const size_t w = static_cast<size_t>(lane >> 6);
    const int b = lane & 63;
    const auto bit = [&](const LaneMask* words, size_t c) {
        return static_cast<uint8_t>((words[c * K + w] >> b) & 1u);
    };
    out->detector.resize(n);
    out->meas_flip.resize(n);
    out->mlr_flag.resize(n);
    for (size_t c = 0; c < n; ++c) {
        out->detector[c] = bit(in.detector, c);
        out->mlr_flag[c] = bit(in.mlr_flag, c);
        out->meas_flip[c] = in.meas_flip != nullptr ? bit(in.meas_flip, c)
                                                    : 0;
    }
}

RoundWords
BatchSimulator::last_round() const
{
    RoundWords in;
    in.n_words = batch_n_words();
    in.detector = detector_words();
    in.mlr_flag = mlr_flag_words();
    in.meas_flip = meas_flip_words();
    return in;
}

void
BatchSimulator::run_round_batch(const std::vector<LrcSchedule>& lane_lrcs,
                                std::vector<RoundResult>* out)
{
    const int n_lanes = batch_lanes();
    if (lane_lrcs.size() < static_cast<size_t>(n_lanes))
        throw std::invalid_argument(
            "run_round_batch: " + std::to_string(lane_lrcs.size()) +
            " schedules for " + std::to_string(n_lanes) + " lanes");
    masks_.reset(code_->n_data(), code_->n_checks(), batch_n_words());
    for (int l = 0; l < n_lanes; ++l)
        masks_.add_lane(l, lane_lrcs[static_cast<size_t>(l)]);
    run_round_masks(masks_);
    const RoundWords words = last_round();
    out->resize(static_cast<size_t>(n_lanes));
    for (int l = 0; l < n_lanes; ++l)
        unpack_lane(words, code_->n_checks(), l,
                    &(*out)[static_cast<size_t>(l)]);
}

RoundResult
BatchSimulator::run_round(const LrcSchedule& lrcs)
{
    masks_.reset(code_->n_data(), code_->n_checks(), batch_n_words());
    masks_.add_lane(0, lrcs);
    run_round_masks(masks_);
    RoundResult rr;
    unpack_lane(last_round(), code_->n_checks(), 0, &rr);
    return rr;
}

std::vector<uint8_t>
BatchSimulator::final_data_measure()
{
    const LaneMask* flips = final_data_measure_words();
    const size_t K = static_cast<size_t>(batch_n_words());
    std::vector<uint8_t> out(static_cast<size_t>(code_->n_data()));
    for (size_t q = 0; q < out.size(); ++q)
        out[q] = static_cast<uint8_t>(flips[q * K] & 1u);
    return out;
}

const char*
backend_name(SimBackend backend)
{
    for (const BackendEntry& e : kBackendTable) {
        if (e.backend == backend)
            return e.name;
    }
    throw_unknown_backend("invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

const std::vector<SimBackend>&
known_backends()
{
    static const std::vector<SimBackend> all = [] {
        std::vector<SimBackend> v;
        for (const BackendEntry& e : kBackendTable)
            v.push_back(e.backend);
        return v;
    }();
    return all;
}

std::string
known_backend_names()
{
    std::string names;
    for (const BackendEntry& e : kBackendTable) {
        if (!names.empty())
            names += ", ";
        names += e.name;
    }
    return names;
}

SimBackend
backend_from_name(const std::string& name)
{
    for (const BackendEntry& e : kBackendTable) {
        if (name == e.name)
            return e.backend;
    }
    throw_unknown_backend("unknown simulation backend \"" + name + "\"");
}

int
backend_rng_contract(SimBackend backend, NoiseSampling sampling)
{
    for (const BackendEntry& e : kBackendTable) {
        if (e.backend == backend) {
            return sampling == NoiseSampling::kSparse ? e.sparse_rng_contract
                                                      : e.rng_contract;
        }
    }
    throw_unknown_backend("invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

const char*
noise_sampling_name(NoiseSampling sampling)
{
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (e.sampling == sampling)
            return e.name;
    }
    throw_unknown_sampling("invalid NoiseSampling value " +
                           std::to_string(static_cast<int>(sampling)));
}

std::string
known_noise_sampling_names()
{
    std::string names;
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (!names.empty())
            names += ", ";
        names += e.name;
    }
    return names;
}

NoiseSampling
noise_sampling_from_name(const std::string& name)
{
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (name == e.name)
            return e.sampling;
    }
    throw_unknown_sampling("unknown noise sampling mode \"" + name + "\"");
}

NoiseSampling
noise_sampling_from_env()
{
    const char* s = std::getenv("GLD_NOISE_SAMPLING");
    if (s == nullptr || s[0] == '\0')
        return NoiseSampling::kLockstep;
    try {
        return noise_sampling_from_name(s);
    } catch (const std::runtime_error&) {
        throw_unknown_sampling("GLD_NOISE_SAMPLING=\"" + std::string(s) +
                               "\" names no noise sampling mode");
    }
}

SimBackend
backend_from_env()
{
    const char* s = std::getenv("GLD_BACKEND");
    if (s == nullptr || s[0] == '\0')
        return SimBackend::kFrame;
    try {
        return backend_from_name(s);
    } catch (const std::runtime_error&) {
        throw_unknown_backend("GLD_BACKEND=\"" + std::string(s) +
                              "\" names no simulation backend");
    }
}

double
backend_cost_factor(SimBackend backend, int n_qubits)
{
    switch (backend) {
      case SimBackend::kFrame:
        return 1.0;
      case SimBackend::kTableau: {
        // CHP measurement cost: 2n tableau rows x n/64 bit-plane words,
        // against the frame engine's O(1) per measured bit.  Floor at 1:
        // tiny codes are never cheaper than the frame engine.
        const double n = static_cast<double>(n_qubits);
        const double factor = n * n / 64.0;
        return factor < 1.0 ? 1.0 : factor;
      }
      case SimBackend::kBatchFrame:
        // 64 shots per word: one lockstep pass serves a whole shot
        // block, so a shot costs ~1/64 of a scalar frame shot (the
        // per-lane noise draws keep it from being exactly 1/64).
        return 1.0 / 64.0;
    }
    throw_unknown_backend("invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

int
batch_words_from_env()
{
    const char* s = std::getenv("GLD_BATCH_WORDS");
    if (s == nullptr || s[0] == '\0')
        return 1;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 1 ||
        v > static_cast<long>(kMaxBatchWords)) {
        throw std::runtime_error(
            "GLD_BATCH_WORDS=\"" + std::string(s) +
            "\" is not a batch width in [1, " +
            std::to_string(kMaxBatchWords) + "]");
    }
    return static_cast<int>(v);
}

std::unique_ptr<BatchSimulator>
make_simulator(SimBackend backend, const CssCode& code,
               const RoundCircuit& rc, const NoiseParams& np, uint64_t seed,
               int batch_words, NoiseSampling noise_sampling)
{
    // Out-of-range widths throw for every backend (not just the batch
    // ones), so a bad config fails identically no matter the backend.
    if (batch_words < 1 || batch_words > kMaxBatchWords) {
        throw std::invalid_argument("make_simulator: batch_words " +
                                    std::to_string(batch_words) +
                                    " outside [1, " +
                                    std::to_string(kMaxBatchWords) + "]");
    }
    switch (backend) {
      case SimBackend::kFrame:
        return std::make_unique<LeakFrameSim>(code, rc, np, seed);
      case SimBackend::kTableau:
        return std::make_unique<TableauLeakSim>(code, rc, np, seed);
      case SimBackend::kBatchFrame:
        return std::make_unique<BatchFrameSim>(code, rc, np, seed,
                                               batch_words, noise_sampling);
    }
    throw_unknown_backend("make_simulator: invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

}  // namespace gld
