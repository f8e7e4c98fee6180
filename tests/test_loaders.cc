// Refusal contracts of the JSON loaders: config, Metrics, CampaignSpec,
// Calibration and the telemetry Record and Heatmap.  The versioned ones
// refuse a gld_version outside [1, kSerializeVersion]; every one of them
// survives hostile bytes — each strict prefix of a valid compact document
// throws, and each single-bit change of one either loads or throws, never
// crashes (the sanitizer build runs this suite like any other).
//
// The shard-result slice feeds merge_campaign a mutated shard file of a
// small campaign: every strict prefix is refused, every single-bit flip
// is refused or merges to the clean run's shot, round and decode counts,
// and no refusal leaves a merged file behind.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "io/json.h"
#include "io/serialize.h"
#include "runtime/experiment.h"
#include "runtime/metrics.h"
#include "telemetry/telemetry.h"

namespace gld {
namespace {

using io::Json;

/** One loader: a valid document and the call that loads it. */
struct Loader {
    std::string name;
    Json doc;
    std::function<void(const Json&)> load;
};

telemetry::Heatmap
small_heatmap()
{
    telemetry::Heatmap h;
    h.init(2, 3, 2);
    for (size_t i = 0; i < h.counts.size(); ++i)
        h.counts[i] = i % 3;
    return h;
}

std::vector<Loader>
loaders()
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 5;
    cfg.shots = 96;
    cfg.compute_ler = true;
    cfg.backend = SimBackend::kBatchFrame;
    cfg.batch_words = 2;

    Metrics m;
    m.shots = 96;
    m.rounds_per_shot = 5;
    m.fn_total = 3;
    m.tp_total = 7.5;
    m.dlp_series = {0.25, 1.5, 2.0};
    m.logical_errors = 2;
    m.decoded_shots = 96;

    campaign::CampaignSpec spec;
    spec.name = "hostile";
    spec.seed = 0xC0FFEEull;
    spec.shots = 45;
    spec.rounds = 7;
    spec.rng_streams = 8;
    spec.codes = {"surface:3", "color:5"};
    spec.policies = {"eraser_m", "gladiator_m"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1)};

    campaign::Calibration cal;
    cal.rates["frame/surface:3"] = 1234.5;
    cal.rates["batch_frame@w2/surface:5"] = 9.0e4;

    telemetry::Record rec;
    rec.shots = 96;
    rec.rounds = 480;
    rec.blocks = 2;
    rec.stage_ns[0] = 1000;
    rec.leak_hist = {470, 9, 1};
    rec.heatmap = small_heatmap();

    return {
        {"config", io::config_to_json(cfg),
         [](const Json& j) { io::config_from_json(j); }},
        {"Metrics", io::metrics_to_json(m),
         [](const Json& j) { io::metrics_from_json(j); }},
        {"CampaignSpec", spec.to_json(),
         [](const Json& j) { campaign::CampaignSpec::from_json(j); }},
        {"Calibration", cal.to_json(),
         [](const Json& j) { campaign::Calibration::from_json(j); }},
        {"Record", rec.to_json(),
         [](const Json& j) { telemetry::Record::from_json(j); }},
        {"Heatmap", small_heatmap().to_json(),
         [](const Json& j) { telemetry::Heatmap::from_json(j); }},
    };
}

TEST(Loaders, VersionedLoadersRefuseVersionsOutsideTheReadableRange)
{
    for (const Loader& ld : loaders()) {
        if (!ld.doc.has("gld_version"))
            continue;  // Record and Heatmap ride inside versioned files
        SCOPED_TRACE(ld.name);
        EXPECT_NO_THROW(ld.load(ld.doc));
        for (int64_t v : {int64_t{0}, int64_t{io::kSerializeVersion + 1}}) {
            Json j = ld.doc;
            j.set("gld_version", Json::integer(v));
            try {
                ld.load(j);
                ADD_FAILURE() << "gld_version " << v << " was accepted";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find("gld_version"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Loaders, EveryStrictPrefixOfADocumentIsRefused)
{
    for (const Loader& ld : loaders()) {
        SCOPED_TRACE(ld.name);
        const std::string text = ld.doc.dump();
        EXPECT_NO_THROW(ld.load(Json::parse(text)));
        for (size_t n = 0; n < text.size(); ++n) {
            EXPECT_THROW(ld.load(Json::parse(text.substr(0, n))),
                         std::exception)
                << "prefix of " << n << " bytes: " << text.substr(0, n);
        }
    }
}

TEST(Loaders, EverySingleBitFlipLoadsOrThrows)
{
    int loaded = 0;
    int refused = 0;
    for (const Loader& ld : loaders()) {
        SCOPED_TRACE(ld.name);
        const std::string text = ld.doc.dump();
        for (size_t i = 0; i < text.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string bad = text;
                bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
                try {
                    ld.load(Json::parse(bad));
                    ++loaded;
                } catch (const std::exception&) {
                    ++refused;
                }
            }
        }
    }
    // Both outcomes occur: flipped digits still load, broken syntax and
    // out-of-range fields do not.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(refused, 0);
}

// --- Shard-result mutation slice. ---

/**
 * A one-job, two-stream campaign run as two shards into a fresh
 * directory; merging it again after each mutation takes well under a
 * millisecond.
 */
struct MutatedShard {
    campaign::CampaignSpec spec;
    std::string dir;
    std::string shard_path;   ///< the file under mutation
    std::string merged_path;  ///< the job's merged result
    std::string text;         ///< the shard file as written
    Metrics clean;            ///< merge of the unmutated files

    MutatedShard()
    {
        spec.name = "mutated";
        spec.seed = 0x5EED5ull;
        spec.shots = 6;
        spec.rounds = 3;
        spec.rng_streams = 2;
        spec.compute_ler = true;
        spec.record_dlp_series = true;
        spec.codes = {"surface:3"};
        spec.policies = {"eraser_m"};
        spec.noise = {NoiseParams::standard(1e-2, 1.0)};
        dir = ::testing::TempDir() + "gld_loaders_" +
              std::to_string(::getpid()) + "_mutated";
        campaign::RunShardOptions opt;
        opt.threads = 1;
        opt.telemetry = false;
        for (int shard = 0; shard < 2; ++shard)
            campaign::run_shard(spec, shard, 2, dir, opt);
        shard_path = campaign::shard_result_path(dir, spec, 0, 0, 2);
        merged_path = campaign::merged_result_path(dir, spec, 0);
        text = io::read_file(shard_path);
        clean = campaign::merge_campaign(spec, 2, dir).at(0);
        std::remove(merged_path.c_str());
    }

    /**
     * Merges with `bytes` as the shard file: true if the merge went
     * through (its merged file is then removed again), false if it was
     * refused — in which case no merged file may exist.
     */
    bool merge(const std::string& bytes, Metrics* out)
    {
        io::write_file_atomic(shard_path, bytes);
        try {
            *out = campaign::merge_campaign(spec, 2, dir).at(0);
        } catch (const std::exception&) {
            EXPECT_FALSE(io::file_exists(merged_path));
            return false;
        }
        std::remove(merged_path.c_str());
        return true;
    }
};

TEST(ShardMutation, EveryStrictPrefixIsRefusedAndWritesNoMergedFile)
{
    MutatedShard m;
    ASSERT_GT(m.clean.shots, 0);
    // The file ends in a newline: dropping only that leaves the same
    // document, so the prefixes are those of the document itself.
    const std::string doc = m.text.substr(0, m.text.find_last_not_of("\n") + 1);
    ASSERT_LT(doc.size(), m.text.size());
    for (size_t n = 0; n < doc.size(); ++n) {
        Metrics got;
        EXPECT_FALSE(m.merge(doc.substr(0, n), &got))
            << "merged a prefix of " << n << " bytes";
    }
}

TEST(ShardMutation, EverySingleBitFlipIsRefusedOrKeepsTheCounts)
{
    MutatedShard m;
    ASSERT_GT(m.clean.shots, 0);
    int merged = 0;
    int refused = 0;
    for (size_t i = 0; i < m.text.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = m.text;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            Metrics got;
            if (!m.merge(bad, &got)) {
                ++refused;
                continue;
            }
            ++merged;
            EXPECT_EQ(got.shots, m.clean.shots) << "byte " << i << " bit " << bit;
            EXPECT_EQ(got.rounds_per_shot, m.clean.rounds_per_shot)
                << "byte " << i << " bit " << bit;
            EXPECT_EQ(got.decoded_shots, m.clean.decoded_shots)
                << "byte " << i << " bit " << bit;
        }
    }
    // Both outcomes occur: a flipped total's digit still merges, broken
    // syntax and contradicted counts do not.
    EXPECT_GT(merged, 0);
    EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace gld
