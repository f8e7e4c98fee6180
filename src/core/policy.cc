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
struct PerLanePolicy::Lane {
    Lane(std::unique_ptr<Policy> p, const CssCode& code, int lane)
        : policy(std::move(p)), oracle(code, nullptr, 1, lane)
    {
        policy->set_leak_oracle(&oracle);
    }

    std::unique_ptr<Policy> policy;
    LaneLeakOracle oracle;  ///< bound to each round's leak words
};

PerLanePolicy::PerLanePolicy(const CodeContext& ctx, Maker make,
                             std::unique_ptr<Policy> first)
    : WordPolicy(ctx, /*whole_round=*/true), make_(std::move(make))
{
    if (first != nullptr)
        lanes_.push_back(
            std::make_unique<Lane>(std::move(first), ctx.code(), 0));
    lane(0);
}

PerLanePolicy::~PerLanePolicy() = default;

PerLanePolicy::Lane&
PerLanePolicy::lane(int l)
{
    while (static_cast<int>(lanes_.size()) <= l)
        lanes_.push_back(std::make_unique<Lane>(
            make_(), ctx().code(), static_cast<int>(lanes_.size())));
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
        for (LaneMask m = active[w]; m != 0; m &= m - 1)
            lane(w * kBatchLanes + __builtin_ctzll(m)).policy->begin_shot();
    }
}

void
PerLanePolicy::observe_words(int round, const RoundWords& in, LrcMasks* out)
{
    const int K = in.n_words;
    const int n_checks = ctx().code().n_checks();
    std::fill(out->data.begin(), out->data.end(), 0);
    std::fill(out->checks.begin(), out->checks.end(), 0);
    for (int w = 0; w < K; ++w) {
        for (LaneMask m = in.active[w]; m != 0; m &= m - 1) {
            const int l = w * kBatchLanes + __builtin_ctzll(m);
            unpack_lane(in, n_checks, l, &rr_);
            Lane& ln = lane(l);
            ln.oracle.bind(in.leaked, K);
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
