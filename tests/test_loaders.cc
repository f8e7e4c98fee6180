// Refusal contracts of the JSON loaders: config, Metrics, CampaignSpec,
// Calibration and the telemetry Record and Heatmap.  The versioned ones
// refuse a gld_version outside [1, kSerializeVersion]; every one of them
// survives hostile bytes — each strict prefix of a valid compact document
// throws, and each single-bit change of one either loads or throws, never
// crashes (the sanitizer build runs this suite like any other).

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace gld
