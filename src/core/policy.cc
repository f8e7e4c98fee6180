#include "core/policy.h"

#include <algorithm>

namespace gld {

// --- WordPolicy: the per-shot interface as a one-lane kernel call. ---

namespace {

constexpr LaneMask kLaneZero = 1;

}  // namespace

void
WordPolicy::begin_shot()
{
    begin_batch(&kLaneZero, 1);
}

void
WordPolicy::observe(int round, const RoundResult& rr, LrcSchedule* out)
{
    const CssCode& code = ctx_->code();
    const size_t n_checks = static_cast<size_t>(code.n_checks());
    det_.resize(n_checks);
    mlr_.resize(n_checks);
    for (size_t c = 0; c < n_checks; ++c) {
        det_[c] = rr.detector[c];
        mlr_[c] = rr.mlr_flag[c];
    }
    RoundWords in;
    in.active = &kLaneZero;
    in.detector = det_.data();
    in.mlr_flag = mlr_.data();
    if (whole_round_) {
        meas_.assign(rr.meas_flip.begin(), rr.meas_flip.end());
        in.meas_flip = meas_.data();
    }
    if (whole_round_ && oracle_ != nullptr) {
        leaked_.assign(static_cast<size_t>(code.n_qubits()), 0);
        for (int q = 0; q < code.n_data(); ++q)
            leaked_[static_cast<size_t>(q)] = oracle_->data_leaked(q);
        for (int c = 0; c < code.n_checks(); ++c)
            leaked_[static_cast<size_t>(code.ancilla_of(c))] =
                oracle_->check_leaked(c);
        in.leaked = leaked_.data();
    }
    // observe_words overwrites every word: size once, never re-zero.
    if (masks_.data.size() != static_cast<size_t>(code.n_data()) ||
        masks_.checks.size() != n_checks || masks_.n_words != 1)
        masks_.reset(code.n_data(), code.n_checks(), 1);
    observe_words(round, in, &masks_);
    masks_.lane_schedule(0, out);
}

// --- PerLanePolicy: the fallback adapter. ---

/** One lane: its policy instance and the oracle view it reads. */
struct PerLanePolicy::Lane final : LeakageOracle {
    std::unique_ptr<Policy> policy;
    const CssCode* code = nullptr;
    int lane = 0;
    int n_words = 1;
    const LaneMask* leaked = nullptr;  ///< the current round's words

    bool bit(int q) const
    {
        return leaked != nullptr &&
               lane_bit_of(&leaked[static_cast<size_t>(q) *
                                   static_cast<size_t>(n_words)]);
    }
    bool lane_bit_of(const LaneMask* span) const
    {
        return (span[lane >> 6] >> (lane & 63)) & 1u;
    }
    bool data_leaked(int q) const override { return bit(q); }
    bool check_leaked(int c) const override
    {
        return bit(code->ancilla_of(c));
    }
    int n_data_leaked() const override
    {
        int n = 0;
        for (int q = 0; q < code->n_data(); ++q)
            n += bit(q) ? 1 : 0;
        return n;
    }
    int n_check_leaked() const override
    {
        int n = 0;
        for (int c = 0; c < code->n_checks(); ++c)
            n += check_leaked(c) ? 1 : 0;
        return n;
    }
};

PerLanePolicy::PerLanePolicy(const CodeContext& ctx, Maker make,
                             std::unique_ptr<Policy> first)
    : WordPolicy(ctx, /*whole_round=*/true), make_(std::move(make))
{
    if (first != nullptr) {
        lanes_.push_back(std::make_unique<Lane>());
        lanes_.back()->policy = std::move(first);
        lanes_.back()->code = &ctx.code();
        lanes_.back()->policy->set_leak_oracle(lanes_.back().get());
    }
    lane(0);
}

PerLanePolicy::~PerLanePolicy() = default;

PerLanePolicy::Lane&
PerLanePolicy::lane(int l)
{
    while (static_cast<int>(lanes_.size()) <= l) {
        auto ln = std::make_unique<Lane>();
        ln->policy = make_();
        ln->code = &ctx().code();
        ln->lane = static_cast<int>(lanes_.size());
        ln->policy->set_leak_oracle(ln.get());
        lanes_.push_back(std::move(ln));
    }
    return *lanes_[static_cast<size_t>(l)];
}

std::string
PerLanePolicy::name() const
{
    return lanes_.front()->policy->name();
}

void
PerLanePolicy::begin_batch(const LaneMask* active, int n_words)
{
    for (int w = 0; w < n_words; ++w) {
        for (LaneMask m = active[w]; m != 0; m &= m - 1) {
            Lane& ln = lane(w * kBatchLanes + __builtin_ctzll(m));
            ln.n_words = n_words;
            ln.policy->begin_shot();
        }
    }
}

void
PerLanePolicy::observe_words(int round, const RoundWords& in, LrcMasks* out)
{
    const int K = in.n_words;
    const size_t n_checks = static_cast<size_t>(ctx().code().n_checks());
    std::fill(out->data.begin(), out->data.end(), 0);
    std::fill(out->checks.begin(), out->checks.end(), 0);
    rr_.meas_flip.assign(n_checks, 0);
    rr_.detector.resize(n_checks);
    rr_.mlr_flag.resize(n_checks);
    for (int w = 0; w < K; ++w) {
        for (LaneMask m = in.active[w]; m != 0; m &= m - 1) {
            const int b = __builtin_ctzll(m);
            const int l = w * kBatchLanes + b;
            for (size_t c = 0; c < n_checks; ++c) {
                const size_t i = c * static_cast<size_t>(K) +
                                 static_cast<size_t>(w);
                rr_.detector[c] =
                    static_cast<uint8_t>((in.detector[i] >> b) & 1u);
                rr_.mlr_flag[c] =
                    static_cast<uint8_t>((in.mlr_flag[i] >> b) & 1u);
                if (in.meas_flip != nullptr)
                    rr_.meas_flip[c] =
                        static_cast<uint8_t>((in.meas_flip[i] >> b) & 1u);
            }
            Lane& ln = lane(l);
            ln.n_words = K;
            ln.leaked = in.leaked;
            ln.policy->observe(round, rr_, &sched_);
            out->add_lane(l, sched_);
        }
    }
}

// --- The oracle and MLR-only kernels. ---

void
mlr_check_masks(const RoundWords& in, LrcMasks* out)
{
    const size_t K = static_cast<size_t>(in.n_words);
    const size_t n = out->checks.size() / K;
    for (size_t c = 0; c < n; ++c) {
        for (size_t w = 0; w < K; ++w)
            out->checks[c * K + w] = in.mlr_flag[c * K + w] & in.active[w];
    }
}

void
IdealPolicy::observe_words(int round, const RoundWords& in, LrcMasks* out)
{
    (void)round;
    std::fill(out->data.begin(), out->data.end(), 0);
    std::fill(out->checks.begin(), out->checks.end(), 0);
    if (in.leaked == nullptr)
        return;
    const CssCode& code = ctx().code();
    const size_t K = static_cast<size_t>(in.n_words);
    for (int q = 0; q < code.n_data(); ++q) {
        for (size_t w = 0; w < K; ++w)
            out->data[static_cast<size_t>(q) * K + w] =
                in.leaked[static_cast<size_t>(q) * K + w] & in.active[w];
    }
    for (int c = 0; c < code.n_checks(); ++c) {
        const size_t a = static_cast<size_t>(code.ancilla_of(c));
        for (size_t w = 0; w < K; ++w)
            out->checks[static_cast<size_t>(c) * K + w] =
                in.leaked[a * K + w] & in.active[w];
    }
}

void
MlrOnlyPolicy::observe_words(int round, const RoundWords& in, LrcMasks* out)
{
    (void)round;
    std::fill(out->data.begin(), out->data.end(), 0);
    mlr_check_masks(in, out);
}

}  // namespace gld
