#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>

#include "campaign/registry.h"
#include "codes/color_code.h"
#include "codes/surface_code.h"
#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "sim/frame_sim.h"
#include "util/rng.h"

namespace gld {
namespace {

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(CssCode c, PatternScope scope)
        : code(std::move(c)), rc(code), ctx(code, rc, scope)
    {
    }
};

RoundResult
quiet_round(const CssCode& code)
{
    RoundResult rr;
    rr.meas_flip.assign(code.n_checks(), 0);
    rr.detector.assign(code.n_checks(), 0);
    rr.mlr_flag.assign(code.n_checks(), 0);
    return rr;
}

TEST(EraserPolicy, FlaggedCountsMatchPaper)
{
    EXPECT_EQ(EraserPolicy::flagged_count(4), 11);  // §1: 11/16
    EXPECT_EQ(EraserPolicy::flagged_count(3), 4);   // §5.2: 4/8
    EXPECT_EQ(EraserPolicy::flagged_count(2), 3);   // any flip fires
    EXPECT_EQ(EraserPolicy::flagged_count(8), 163);  // sum C(8,4..8)
}

TEST(EraserPolicy, TriggersOnHalfFlips)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    const int q = SurfaceCode::data_index(5, 2, 2);
    const auto& checks = h.ctx.observed_checks(q);
    ASSERT_EQ(checks.size(), 4u);
    rr.detector[checks[0]] = 1;
    rr.detector[checks[3]] = 1;  // 2/4 flips: at threshold
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
    EXPECT_TRUE(out.checks.empty());  // no MLR
}

TEST(EraserPolicy, SingleFlipDoesNotTriggerBulk)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    const int q = SurfaceCode::data_index(5, 2, 2);
    rr.detector[h.ctx.observed_checks(q)[1]] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_EQ(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
}

TEST(EraserPolicy, DegeneratesOnColorCodeCorners)
{
    // §3.3: on 1-2 bit patterns ERASER fires on any flip — nearly
    // Always-LRC behaviour.
    Harness h(ColorCode::make(5), PatternScope::kZOnly);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    int corner = -1;
    for (int q = 0; q < h.code.n_data(); ++q) {
        if (h.ctx.degree_of(q) == 1)
            corner = q;
    }
    ASSERT_GE(corner, 0);
    rr.detector[h.ctx.observed_checks(corner)[0]] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(),
                        corner),
              out.data_qubits.end());
}

TEST(EraserPolicy, MlrVariantSchedulesAncillas)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, true);
    RoundResult rr = quiet_round(h.code);
    rr.mlr_flag[3] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 3);
}

TEST(GladiatorPolicy, MatchesTableLookup)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    const NoiseParams np = NoiseParams::standard();
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, false));
    GladiatorPolicy policy(h.ctx, tables, false);

    // Construct a detector vector and verify per-qubit agreement.
    RoundResult rr = quiet_round(h.code);
    for (int c = 0; c < h.code.n_checks(); c += 3)
        rr.detector[c] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    for (int q = 0; q < h.code.n_data(); ++q) {
        const bool scheduled =
            std::find(out.data_qubits.begin(), out.data_qubits.end(), q) !=
            out.data_qubits.end();
        const bool expected = tables->is_leak(
            h.ctx.class_of(q), h.ctx.pattern_of(q, rr.detector));
        EXPECT_EQ(scheduled, expected) << "qubit " << q;
    }
}

TEST(GladiatorPolicy, QuietSyndromeSchedulesNothing)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, NoiseParams::standard(), {}, false));
    GladiatorPolicy policy(h.ctx, tables, true);
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    EXPECT_TRUE(out.empty());
}

TEST(GladiatorDPolicy, NeedsTwoRoundsBeforeFiring)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, NoiseParams::standard(), {}, true));
    GladiatorDPolicy policy(h.ctx, tables, false);
    policy.begin_shot();
    // Find a two-round-flagged key for the bulk class to construct input.
    const int q = SurfaceCode::data_index(5, 2, 2);
    const int cls = h.ctx.class_of(q);
    const int k = h.ctx.degree_of(q);
    uint32_t key = 0;
    for (uint32_t s = 0; s < (1u << (2 * k)); ++s) {
        if (tables->is_leak(cls, s) && (s >> k) != 0 &&
            (s & ((1u << k) - 1)) != 0) {
            key = s;
            break;
        }
    }
    ASSERT_NE(key, 0u);
    const uint32_t s1 = key >> k, s2 = key & ((1u << k) - 1);

    RoundResult rr = quiet_round(h.code);
    const auto& checks = h.ctx.observed_checks(q);
    for (int i = 0; i < k; ++i)
        rr.detector[checks[i]] = (s1 >> i) & 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_TRUE(out.data_qubits.empty());  // first round: only history

    for (int i = 0; i < k; ++i)
        rr.detector[checks[i]] = (s2 >> i) & 1;
    policy.observe(1, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
}

TEST(StaggeredPolicy, ColoringIsProperAndCoversAllQubits)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    StaggeredLrcPolicy policy(h.ctx);
    EXPECT_GE(policy.n_colors(), 2);
    // No two qubits sharing a check share a color.
    for (int c = 0; c < h.code.n_checks(); ++c) {
        const auto& sup = h.code.check(c).support;
        const int anc = h.code.ancilla_of(c);
        for (size_t i = 0; i < sup.size(); ++i) {
            EXPECT_NE(policy.colors()[sup[i]], policy.colors()[anc]);
            for (size_t j = i + 1; j < sup.size(); ++j)
                EXPECT_NE(policy.colors()[sup[i]], policy.colors()[sup[j]]);
        }
    }
    // Round-robin covers every qubit within n_colors rounds.
    std::vector<int> covered(h.code.n_qubits(), 0);
    LrcSchedule out;
    const RoundResult rr = quiet_round(h.code);
    for (int r = 0; r < policy.n_colors(); ++r) {
        policy.observe(r, rr, &out);
        for (int q : out.data_qubits)
            covered[q] += 1;
        for (int c : out.checks)
            covered[h.code.ancilla_of(c)] += 1;
    }
    for (int q = 0; q < h.code.n_qubits(); ++q)
        EXPECT_EQ(covered[q], 1) << "qubit " << q;
}

TEST(AlwaysLrcPolicy, SchedulesEverything)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    AlwaysLrcPolicy policy(h.ctx);
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    EXPECT_EQ(static_cast<int>(out.data_qubits.size()), h.code.n_data());
    EXPECT_EQ(static_cast<int>(out.checks.size()), h.code.n_checks());
}

TEST(IdealPolicy, SchedulesExactlyGroundTruth)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    NoiseParams np;
    np.p = 0;
    np.leak_ratio = 0;
    LeakFrameSim sim(h.code, h.rc, np, 3);
    sim.inject_data_leak(2);
    sim.inject_check_leak(1);
    IdealPolicy policy(h.ctx);
    policy.set_oracle(&sim);
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    ASSERT_EQ(out.data_qubits.size(), 1u);
    EXPECT_EQ(out.data_qubits[0], 2);
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 1);
}

TEST(MlrOnlyPolicy, SchedulesOnlyFlaggedAncillas)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    MlrOnlyPolicy policy(h.ctx);
    RoundResult rr = quiet_round(h.code);
    rr.mlr_flag[5] = 1;
    rr.detector[0] = 1;  // syndrome activity must be ignored
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_TRUE(out.data_qubits.empty());
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 5);
}

TEST(GladiatorFactory, SharesOneTableSetPerContext)
{
    // ROADMAP satellite: every policy a factory builds for the same
    // context shares ONE immutable PatternTableSet (one offline build per
    // run(), not one per RNG stream) — while different codes through the
    // same factory still get their own tables.
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const PolicyFactory factory = PolicyZoo::gladiator(true, np);

    const CssCode surf = SurfaceCode::make(3);
    const RoundCircuit surf_rc(surf);
    const CodeContext surf_ctx(surf, surf_rc,
                               CodeContext::default_scope(surf));
    const auto p1 = factory(surf_ctx, 1);
    const auto p2 = factory(surf_ctx, 2);
    const auto* g1 = dynamic_cast<const GladiatorPolicy*>(p1.get());
    const auto* g2 = dynamic_cast<const GladiatorPolicy*>(p2.get());
    ASSERT_NE(g1, nullptr);
    ASSERT_NE(g2, nullptr);
    EXPECT_EQ(g1->tables().get(), g2->tables().get());

    const CssCode color = ColorCode::make(3);
    const RoundCircuit color_rc(color);
    const CodeContext color_ctx(color, color_rc,
                                CodeContext::default_scope(color));
    const auto p3 = factory(color_ctx, 3);
    const auto* g3 = dynamic_cast<const GladiatorPolicy*>(p3.get());
    ASSERT_NE(g3, nullptr);
    EXPECT_NE(g3->tables().get(), g1->tables().get());

    // A RECREATED context with the same class structure may share the
    // cached tables: they are identical by construction.
    const CodeContext surf_ctx2(surf, surf_rc,
                                CodeContext::default_scope(surf));
    const auto p4 = factory(surf_ctx2, 4);
    const auto* g4 = dynamic_cast<const GladiatorPolicy*>(p4.get());
    ASSERT_NE(g4, nullptr);
    EXPECT_EQ(g4->tables().get(), g1->tables().get());

    // Each factory instance has its own cache (np may differ).
    const PolicyFactory other = PolicyZoo::gladiator(true, np);
    const auto p5 = other(surf_ctx, 5);
    const auto* g5 = dynamic_cast<const GladiatorPolicy*>(p5.get());
    ASSERT_NE(g5, nullptr);
    EXPECT_NE(g5->tables().get(), g1->tables().get());
}

// --- Golden schedule digest. ---
//
// Every registry policy except the oracle one, fed fixed-seed synthetic
// rounds (per-shot detector density in [0.02, 0.5], random MLR flags),
// 30 rounds x 64 shots with begin_shot between shots.  The FNV-1a hash
// of the emitted schedules is pinned: any change to a policy's decisions
// or to the order it lists its LRCs shows up here.

constexpr int kDigestShots = 64;
constexpr int kDigestRounds = 30;

/** The synthetic input of (shot, round): detector and MLR bytes. */
struct DigestInputs {
    std::vector<RoundResult> rounds;  ///< shot-major, kDigestRounds each

    DigestInputs(int n_checks, uint64_t seed)
    {
        Rng rng(seed);
        for (int s = 0; s < kDigestShots; ++s) {
            const double density = 0.02 + 0.48 * rng.uniform();
            for (int r = 0; r < kDigestRounds; ++r) {
                RoundResult rr;
                rr.meas_flip.assign(static_cast<size_t>(n_checks), 0);
                rr.detector.assign(static_cast<size_t>(n_checks), 0);
                rr.mlr_flag.assign(static_cast<size_t>(n_checks), 0);
                for (int c = 0; c < n_checks; ++c) {
                    rr.detector[static_cast<size_t>(c)] =
                        rng.bernoulli(density) ? 1 : 0;
                    rr.mlr_flag[static_cast<size_t>(c)] =
                        rng.bernoulli(0.05) ? 1 : 0;
                    rr.meas_flip[static_cast<size_t>(c)] =
                        rr.detector[static_cast<size_t>(c)];
                }
                rounds.push_back(std::move(rr));
            }
        }
    }
    const RoundResult& at(int shot, int round) const
    {
        return rounds[static_cast<size_t>(shot * kDigestRounds + round)];
    }
};

struct Fnv1a {
    uint64_t h = 0xcbf29ce484222325ull;
    void add(int v)
    {
        const uint32_t u = static_cast<uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (u >> (8 * b)) & 0xFFu;
            h *= 0x100000001b3ull;
        }
    }
    void add(const std::vector<int>& list)
    {
        add(static_cast<int>(list.size()));
        for (int v : list)
            add(v);
    }
};

const char* const kDigestCodes[] = {"surface:5", "color:7", "hgp_hamming",
                                    "bpc"};

std::vector<std::string>
digest_policies()
{
    std::vector<std::string> out;
    for (const std::string& name : campaign::known_policies()) {
        if (name != "ideal")
            out.push_back(name);
    }
    return out;
}

NoiseParams
digest_noise()
{
    return NoiseParams::standard(1e-3, 0.1);
}

uint64_t
schedule_digest(const CodeContext& ctx, const std::string& policy,
                const DigestInputs& in)
{
    const auto p = campaign::make_policy(policy, digest_noise())(ctx, 7);
    Fnv1a fnv;
    LrcSchedule out;
    for (int s = 0; s < kDigestShots; ++s) {
        p->begin_shot();
        for (int r = 0; r < kDigestRounds; ++r) {
            p->observe(r, in.at(s, r), &out);
            fnv.add(r);
            fnv.add(out.data_qubits);
            fnv.add(out.checks);
        }
    }
    return fnv.h;
}

TEST(PolicyGolden, ScheduleDigestIsPinned)
{
    // Pinned from the per-lane policy implementations the word kernels
    // replaced; the word kernels' one-lane path must reproduce them.
    const std::map<std::string, uint64_t> pinned = {
        {"surface:5/no_lrc", 0xdddcaf614ad70b25ull},
        {"surface:5/always_lrc", 0xf68829eee6c63325ull},
        {"surface:5/staggered", 0xae70e8847294cf25ull},
        {"surface:5/mlr_only", 0x435021fc8a06ca45ull},
        {"surface:5/eraser", 0xcc6320d85e8fe4f1ull},
        {"surface:5/eraser_m", 0x15a45c0936965f71ull},
        {"surface:5/gladiator", 0xd5132676465b4906ull},
        {"surface:5/gladiator_m", 0xa4b08f0164e0f726ull},
        {"surface:5/gladiator_d", 0xa52fd505e634c336ull},
        {"surface:5/gladiator_d_m", 0xf578e2785765a0a6ull},
        {"color:7/no_lrc", 0xdddcaf614ad70b25ull},
        {"color:7/always_lrc", 0xea6e1fa46c9cf325ull},
        {"color:7/staggered", 0x7c1f8c21fe708325ull},
        {"color:7/mlr_only", 0x7b745a167f86c592ull},
        {"color:7/eraser", 0x941e9d7dae747776ull},
        {"color:7/eraser_m", 0x54b3d2938ac63701ull},
        {"color:7/gladiator", 0x30a74b989988a2f2ull},
        {"color:7/gladiator_m", 0x385782f44f437c15ull},
        {"color:7/gladiator_d", 0x49b1a9172739142full},
        {"color:7/gladiator_d_m", 0x0caa879afe2e3f98ull},
        {"hgp_hamming/no_lrc", 0xdddcaf614ad70b25ull},
        {"hgp_hamming/always_lrc", 0x2ebcfa0df4033f25ull},
        {"hgp_hamming/staggered", 0x9074973f36071325ull},
        {"hgp_hamming/mlr_only", 0x719c0e73d40a3498ull},
        {"hgp_hamming/eraser", 0x5cdb218db384de82ull},
        {"hgp_hamming/eraser_m", 0xe011f32cea7b7a0full},
        {"hgp_hamming/gladiator", 0x375125ec8c8c8dabull},
        {"hgp_hamming/gladiator_m", 0x04d9b4b3042a8d76ull},
        {"hgp_hamming/gladiator_d", 0x26ade27f829ee431ull},
        {"hgp_hamming/gladiator_d_m", 0x702019bbd9378b8cull},
        {"bpc/no_lrc", 0xdddcaf614ad70b25ull},
        {"bpc/always_lrc", 0x33f0daac3cf1c325ull},
        {"bpc/staggered", 0xe82c3028b79f1325ull},
        {"bpc/mlr_only", 0x6afea2768763a791ull},
        {"bpc/eraser", 0x00bf5a861ad2f9e4ull},
        {"bpc/eraser_m", 0x3bef0a7e90379370ull},
        {"bpc/gladiator", 0xc9ed9c50397dacfeull},
        {"bpc/gladiator_m", 0x3fa8c3382a34139aull},
        {"bpc/gladiator_d", 0x21da486e81f30f7bull},
        {"bpc/gladiator_d_m", 0x5ff03a5af0ec0a5full},
    };
    std::string actual;
    for (const char* code : kDigestCodes) {
        const auto inst = campaign::make_code(code);
        const DigestInputs in(inst->code.n_checks(), 0xD16E57ull);
        for (const std::string& policy : digest_policies()) {
            const std::string key = std::string(code) + "/" + policy;
            const uint64_t h = schedule_digest(inst->ctx, policy, in);
            char line[96];
            std::snprintf(line, sizeof(line),
                          "        {\"%s\", 0x%016llxull},\n", key.c_str(),
                          static_cast<unsigned long long>(h));
            actual += line;
            const auto it = pinned.find(key);
            EXPECT_TRUE(it != pinned.end() && it->second == h)
                << key << " digest changed";
        }
    }
    EXPECT_EQ(pinned.size(), std::size(kDigestCodes) *
                                 digest_policies().size());
    if (HasFailure())
        std::printf("actual digests:\n%s", actual.c_str());
}

// The word kernels on the digest's inputs, K*64 lanes wide: the 64 shots
// are spread over every word of the batch (shot s on lane (s % K) * 64 +
// s / K), the remaining lanes are inactive and carry random detector and
// MLR bits, and each active lane's mask must equal the per-shot schedule
// the pinned digest covers.
TEST(PolicyGolden, WordKernelMatchesPerShotSchedules)
{
    for (const char* code : kDigestCodes) {
        const auto inst = campaign::make_code(code);
        const CssCode& cc = inst->code;
        const size_t n_checks = static_cast<size_t>(cc.n_checks());
        const DigestInputs in(cc.n_checks(), 0xD16E57ull);
        for (const std::string& policy : digest_policies()) {
            const PolicyFactory factory =
                campaign::make_policy(policy, digest_noise());
            // Per-shot schedules through the scalar interface.
            std::vector<LrcSchedule> want;
            {
                const auto p = factory(inst->ctx, 7);
                LrcSchedule out;
                for (int s = 0; s < kDigestShots; ++s) {
                    p->begin_shot();
                    for (int r = 0; r < kDigestRounds; ++r) {
                        p->observe(r, in.at(s, r), &out);
                        want.push_back(out);
                    }
                }
            }
            for (int k : {1, 2, 8}) {
                SCOPED_TRACE(std::string(code) + "/" + policy + " K=" +
                             std::to_string(k));
                const size_t K = static_cast<size_t>(k);
                const auto lane_of = [k](int s) {
                    return (s % k) * kBatchLanes + s / k;
                };
                std::vector<LaneMask> active(K, 0);
                for (int s = 0; s < kDigestShots; ++s)
                    active[static_cast<size_t>(lane_of(s) >> 6)] |=
                        1ull << (lane_of(s) & 63);
                const auto p = factory(inst->ctx, 7);
                auto* wp = dynamic_cast<WordPolicy*>(p.get());
                ASSERT_NE(wp, nullptr);
                wp->begin_batch(active.data(), k);
                Rng noise(0x1A7Eull);
                std::vector<LaneMask> det(n_checks * K), mlr(n_checks * K);
                LrcMasks masks;
                masks.reset(cc.n_data(), cc.n_checks(), k);
                LrcSchedule got;
                for (int r = 0; r < kDigestRounds; ++r) {
                    for (size_t i = 0; i < det.size(); ++i) {
                        det[i] = noise.next_u64() & ~active[i % K];
                        mlr[i] = noise.next_u64() & ~active[i % K];
                    }
                    for (int s = 0; s < kDigestShots; ++s) {
                        const RoundResult& rr = in.at(s, r);
                        const int l = lane_of(s);
                        for (size_t c = 0; c < n_checks; ++c) {
                            const size_t i =
                                c * K + static_cast<size_t>(l >> 6);
                            det[i] |= static_cast<LaneMask>(rr.detector[c])
                                      << (l & 63);
                            mlr[i] |= static_cast<LaneMask>(rr.mlr_flag[c])
                                      << (l & 63);
                        }
                    }
                    RoundWords rw;
                    rw.n_words = k;
                    rw.active = active.data();
                    rw.detector = det.data();
                    rw.mlr_flag = mlr.data();
                    wp->observe_words(r, rw, &masks);
                    for (size_t i = 0; i < masks.data.size(); ++i)
                        ASSERT_EQ(masks.data[i] & ~active[i % K], 0u);
                    for (size_t i = 0; i < masks.checks.size(); ++i)
                        ASSERT_EQ(masks.checks[i] & ~active[i % K], 0u);
                    for (int s = 0; s < kDigestShots; ++s) {
                        masks.lane_schedule(lane_of(s), &got);
                        const LrcSchedule& w = want[static_cast<size_t>(
                            s * kDigestRounds + r)];
                        ASSERT_EQ(got.data_qubits, w.data_qubits)
                            << "shot " << s << " round " << r;
                        ASSERT_EQ(got.checks, w.checks)
                            << "shot " << s << " round " << r;
                    }
                }
            }
        }
    }
}

// --- The per-lane fallback adapter. ---

/** An opaque forwarding decorator (no word kernel), counting observes. */
class Forwarding : public Policy {
  public:
    Forwarding(std::unique_ptr<Policy> inner,
               std::shared_ptr<std::atomic<long>> calls)
        : inner_(std::move(inner)), calls_(std::move(calls))
    {
    }
    std::string name() const override { return inner_->name(); }
    void begin_shot() override { inner_->begin_shot(); }
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        inner_->set_leak_oracle(oracle);
    }
    void observe(int round, const RoundResult& rr, LrcSchedule* out) override
    {
        ++*calls_;
        inner_->observe(round, rr, out);
    }

  private:
    std::unique_ptr<Policy> inner_;
    std::shared_ptr<std::atomic<long>> calls_;
};

TEST(PerLanePolicy, DecoratedPolicyMatchesTheWordKernel)
{
    // batch_frame at K = 1 and 2, and the one-lane scalar backends.
    struct Case {
        SimBackend backend;
        int k;
    };
    const Case cases[] = {{SimBackend::kBatchFrame, 1},
                          {SimBackend::kBatchFrame, 2},
                          {SimBackend::kFrame, 1},
                          {SimBackend::kTableau, 1}};
    const auto inst = campaign::make_code("surface:5");
    for (const Case& c : cases) {
        for (const char* policy : {"ideal", "eraser_m", "gladiator_d_m"}) {
            SCOPED_TRACE(std::string(backend_name(c.backend)) + " " +
                         policy + " K=" + std::to_string(c.k));
            ExperimentConfig cfg;
            cfg.np = NoiseParams::standard(2e-3, 0.5);
            cfg.rounds = 6;
            cfg.batch_words = c.k;
            cfg.rng_streams = 3;
            cfg.shots = 3 * (ExperimentRunner::shot_block(cfg) + 21);
            cfg.threads = 2;
            cfg.leakage_sampling = true;
            cfg.compute_ler = true;
            cfg.backend = c.backend;
            const PolicyFactory native =
                campaign::make_policy(policy, cfg.np);
            auto calls = std::make_shared<std::atomic<long>>(0);
            const PolicyFactory decorated =
                [native, calls](const CodeContext& ctx, uint64_t seed)
                -> std::unique_ptr<Policy> {
                return std::make_unique<Forwarding>(native(ctx, seed),
                                                    calls);
            };
            const ExperimentRunner runner(inst->ctx, cfg);
            const Metrics want = runner.run(native);
            const Metrics got = runner.run(decorated);
            test::expect_metrics_identical(want, got);
            EXPECT_EQ(calls->load(),
                      static_cast<long>(cfg.shots) * cfg.rounds);
            EXPECT_GT(got.lrc_data_total + got.lrc_check_total, 0.0);
        }
    }
}

TEST(PerLanePolicy, UnorderedSchedulesAreRefused)
{
    LrcMasks masks;
    masks.reset(/*n_data=*/5, /*n_checks=*/3, /*k=*/2);
    LrcSchedule ok;
    ok.data_qubits = {0, 2, 4};
    ok.checks = {1};
    masks.add_lane(70, ok);
    LrcSchedule back;
    masks.lane_schedule(70, &back);
    EXPECT_EQ(back.data_qubits, ok.data_qubits);
    EXPECT_EQ(back.checks, ok.checks);

    LrcSchedule descending;
    descending.data_qubits = {3, 1};
    EXPECT_THROW(masks.add_lane(0, descending), std::invalid_argument);
    LrcSchedule repeated;
    repeated.checks = {2, 2};
    EXPECT_THROW(masks.add_lane(0, repeated), std::invalid_argument);
    LrcSchedule out_of_range;
    out_of_range.data_qubits = {5};
    EXPECT_THROW(masks.add_lane(0, out_of_range), std::invalid_argument);

    // The same refusal through the adapter, from a policy's schedule.
    class Descending : public Policy {
      public:
        std::string name() const override { return "descending"; }
        void observe(int, const RoundResult&, LrcSchedule* out) override
        {
            out->data_qubits = {1, 0};
            out->checks.clear();
        }
    };
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    PerLanePolicy adapter(h.ctx,
                          [] { return std::make_unique<Descending>(); });
    const LaneMask active = 1;
    adapter.begin_batch(&active, 1);
    const std::vector<LaneMask> zeros(
        static_cast<size_t>(h.code.n_checks()), 0);
    RoundWords rw;
    rw.active = &active;
    rw.detector = zeros.data();
    rw.mlr_flag = zeros.data();
    LrcMasks out;
    out.reset(h.code.n_data(), h.code.n_checks(), 1);
    EXPECT_THROW(adapter.observe_words(0, rw, &out), std::invalid_argument);
}

// --- Pattern-width guard. ---

/**
 * A synthetic code whose data qubit 0 sits in `degree` Z checks (check i
 * is {0, i+1}), so its observed pattern is `degree` bits wide.
 */
CssCode
hub_code(int degree)
{
    std::vector<Check> checks;
    for (int i = 0; i < degree; ++i)
        checks.push_back({CheckType::kZ, {0, i + 1}});
    return CssCode("hub", degree + 1, std::move(checks));
}

TEST(PatternWidthGuard, TablesBeyondTheCapAreRefused)
{
    const NoiseParams np = NoiseParams::standard();
    for (int degree : {kMaxPatternBits + 1, 40}) {
        SCOPED_TRACE(degree);
        Harness h(hub_code(degree), PatternScope::kBothTypes);
        ASSERT_EQ(h.ctx.degree_of(0), degree);
        EXPECT_THROW(PatternTableSet::build(h.ctx, np, {}, false),
                     PatternWidthError);
        EXPECT_THROW(PatternTableSet::build(h.ctx, np, {}, true),
                     PatternWidthError);
        EXPECT_THROW(EraserPolicy(h.ctx, false), PatternWidthError);
        // Policies without tables still run on such a code.
        NoLrcPolicy none(h.ctx);
        LrcSchedule out;
        none.begin_shot();
        none.observe(0, quiet_round(h.code), &out);
        EXPECT_TRUE(out.empty());
    }
    EXPECT_THROW(EraserPolicy::flagged_count(kMaxPatternBits + 1),
                 PatternWidthError);
    EXPECT_THROW(check_pattern_width(2 * kMaxPatternBits + 1, true),
                 PatternWidthError);
    EXPECT_NO_THROW(check_pattern_width(2 * kMaxPatternBits, true));

    // At the cap the single-round table is built.
    Harness h(hub_code(kMaxPatternBits), PatternScope::kBothTypes);
    const PatternTableSet t = PatternTableSet::build(h.ctx, np, {}, false);
    EXPECT_EQ(t.bits(h.ctx.class_of(0)), kMaxPatternBits);
    EXPECT_NO_THROW(EraserPolicy(h.ctx, true));
}

}  // namespace
}  // namespace gld
