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
//
// The merged-result slice does the same to a merged file read by the
// report's loader: every strict prefix is refused, and every single-bit
// flip is refused or loads the clean job's shot, round and decode counts.
//
// The progress slice does the same to a shard's heartbeat file: status
// reads the last complete line of every strict prefix, and every
// single-bit flip either loads a heartbeat within the plan or falls back
// to an earlier line.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
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

// --- Merged-result mutation slice. ---

/** MutatedShard's merged file, loaded back after each mutation. */
struct MutatedMerged {
    MutatedShard run;
    std::string text;  ///< the merged file as written

    MutatedMerged()
    {
        campaign::merge_campaign(run.spec, 2, run.dir);
        text = io::read_file(run.merged_path);
    }

    /** Loads `bytes` as the merged file: true unless it was refused. */
    bool load(const std::string& bytes, Metrics* out)
    {
        io::write_file_atomic(run.merged_path, bytes);
        try {
            *out = campaign::load_merged(run.spec, run.dir).at(0);
        } catch (const std::exception&) {
            return false;
        }
        return true;
    }
};

TEST(MergedMutation, EveryStrictPrefixIsRefused)
{
    MutatedMerged m;
    Metrics got;
    ASSERT_TRUE(m.load(m.text, &got));
    const std::string doc =
        m.text.substr(0, m.text.find_last_not_of("\n") + 1);
    ASSERT_LT(doc.size(), m.text.size());
    for (size_t n = 0; n < doc.size(); ++n)
        EXPECT_FALSE(m.load(doc.substr(0, n), &got))
            << "loaded a prefix of " << n << " bytes";
}

TEST(MergedMutation, EverySingleBitFlipIsRefusedOrKeepsTheCounts)
{
    MutatedMerged m;
    int loaded = 0;
    int refused = 0;
    for (size_t i = 0; i < m.text.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = m.text;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            Metrics got;
            if (!m.load(bad, &got)) {
                ++refused;
                continue;
            }
            ++loaded;
            EXPECT_EQ(got.shots, m.run.clean.shots)
                << "byte " << i << " bit " << bit;
            EXPECT_EQ(got.rounds_per_shot, m.run.clean.rounds_per_shot)
                << "byte " << i << " bit " << bit;
            EXPECT_EQ(got.decoded_shots, m.run.clean.decoded_shots)
                << "byte " << i << " bit " << bit;
        }
    }
    // Both outcomes occur: a flipped total's digit still loads, broken
    // syntax, another job's header and contradicted counts do not.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(refused, 0);
}

// --- Progress (heartbeat) mutation slice. ---

/** A one-shard campaign's heartbeat file, read back after each mutation. */
struct MutatedProgress {
    campaign::CampaignSpec spec;
    std::string dir;
    std::string path;
    std::string text;  ///< the heartbeat file as written

    MutatedProgress()
    {
        spec.name = "heartbeat";
        spec.seed = 0xBEA7ull;
        spec.shots = 6;
        spec.rounds = 3;
        spec.rng_streams = 2;
        spec.codes = {"surface:3"};
        spec.policies = {"eraser_m", "no_lrc"};
        spec.noise = {NoiseParams::standard(1e-2, 1.0)};
        dir = ::testing::TempDir() + "gld_loaders_" +
              std::to_string(::getpid()) + "_heartbeat";
        campaign::RunShardOptions opt;
        opt.threads = 1;
        campaign::run_shard(spec, 0, 1, dir, opt);
        path = campaign::progress_path(dir, spec, 0, 1);
        text = io::read_file(path);
    }

    /** Status over `bytes` as the heartbeat file, then its snapshot. */
    campaign::ShardProgress read(const std::string& bytes)
    {
        io::write_file_atomic(path, bytes);
        ::testing::internal::CaptureStdout();
        campaign::print_status(spec, 1, dir);
        ::testing::internal::GetCapturedStdout();
        return campaign::read_progress(spec, 1, dir).at(0);
    }
};

bool
same_progress(const campaign::ShardProgress& a,
              const campaign::ShardProgress& b)
{
    for (int s = 0; s < telemetry::kStageCount; ++s) {
        if (a.stage_ns[s] != b.stage_ns[s])
            return false;
    }
    return a.valid == b.valid && a.done == b.done &&
           a.jobs_done == b.jobs_done && a.jobs_resumed == b.jobs_resumed &&
           a.jobs_total == b.jobs_total && a.shots_done == b.shots_done &&
           a.shots_total == b.shots_total && a.wall_ns == b.wall_ns &&
           a.shots_per_second == b.shots_per_second;
}

TEST(ProgressMutation, EveryStrictPrefixReadsItsLastCompleteLine)
{
    MutatedProgress m;
    // Each line's heartbeat on its own, and where the line ends.
    std::vector<size_t> line_end;
    std::vector<campaign::ShardProgress> line_beat;
    for (size_t begin = 0; begin < m.text.size();) {
        const size_t end = m.text.find('\n', begin);
        ASSERT_NE(end, std::string::npos);
        line_beat.push_back(m.read(m.text.substr(begin, end - begin)));
        ASSERT_TRUE(line_beat.back().valid);
        line_end.push_back(end);
        begin = end + 1;
    }
    ASSERT_GE(line_end.size(), 2u);
    for (size_t n = 0; n < m.text.size(); ++n) {
        const campaign::ShardProgress p = m.read(m.text.substr(0, n));
        size_t whole = 0;  // lines the prefix holds entirely
        while (whole < line_end.size() && line_end[whole] <= n)
            ++whole;
        if (whole == 0)
            EXPECT_FALSE(p.valid) << "prefix of " << n << " bytes";
        else
            EXPECT_TRUE(same_progress(p, line_beat[whole - 1]))
                << "prefix of " << n << " bytes";
    }
}

TEST(ProgressMutation, EverySingleBitFlipLoadsWithinThePlanOrFallsBack)
{
    MutatedProgress m;
    const campaign::ShardProgress clean = m.read(m.text);
    ASSERT_TRUE(clean.valid);
    const int64_t plan_jobs = static_cast<int64_t>(m.spec.expand().size());
    int kept = 0;
    int changed = 0;
    for (size_t i = 0; i < m.text.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = m.text;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            const campaign::ShardProgress p = m.read(bad);
            if (same_progress(p, clean)) {
                ++kept;
                continue;
            }
            ++changed;
            if (!p.valid)
                continue;
            SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
            EXPECT_LE(0, p.jobs_resumed);
            EXPECT_LE(p.jobs_resumed, p.jobs_done);
            EXPECT_LE(p.jobs_done, p.jobs_total);
            EXPECT_LE(p.jobs_total, plan_jobs);
            EXPECT_LE(0, p.shots_done);
            EXPECT_LE(p.shots_done, p.shots_total);
            EXPECT_LE(p.shots_total, plan_jobs * m.spec.shots);
            EXPECT_TRUE(std::isfinite(p.shots_per_second));
            EXPECT_GE(p.shots_per_second, 0.0);
        }
    }
    // Both outcomes occur: a flip in an earlier line or one the last line
    // refuses keeps the clean heartbeat, a flipped digit loads.
    EXPECT_GT(kept, 0);
    EXPECT_GT(changed, 0);
}

}  // namespace
}  // namespace gld
