// src/io: JSON round-trip, bit-exact double encoding, versioned
// config/metrics serialization and the config-hash stability contract.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "io/json.h"
#include "io/serialize.h"

namespace gld {
namespace io {
namespace {

uint64_t
bits_of(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
    EXPECT_TRUE(Json::parse("true").as_bool());
    EXPECT_FALSE(Json::parse("false").as_bool());
    EXPECT_EQ(Json::parse("-42").as_int(), -42);
    EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993ll);
    EXPECT_DOUBLE_EQ(Json::parse("0.25").as_double(), 0.25);
    EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_double(), -1e-3);
    EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_str(), "hi\nthere");
    EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_str(), "A\xc3\xa9");
}

TEST(Json, NestedDocumentRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null},\"e\":-7}";
    const Json j = Json::parse(text);
    EXPECT_EQ(j["a"].size(), 3u);
    EXPECT_EQ(j["a"].at(0).as_int(), 1);
    EXPECT_EQ(j["a"].at(2).as_str(), "x");
    EXPECT_TRUE(j["b"]["c"].as_bool());
    EXPECT_TRUE(j["b"]["d"].is_null());
    // Compact dump is canonical: parse(dump(x)) == dump-identical.
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
    // Pretty dump parses back to the same canonical form.
    EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", Json::integer(1));
    j.set("alpha", Json::integer(2));
    j.set("zebra", Json::integer(3));  // overwrite keeps position
    EXPECT_EQ(j.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, Errors)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    const Json j = Json::parse("{\"a\":1}");
    EXPECT_THROW(j["missing"], std::runtime_error);
    EXPECT_THROW(j["a"].as_str(), std::runtime_error);
    EXPECT_THROW(j["a"].as_bool(), std::runtime_error);
    // JSON has no inf/nan: dumping one must throw (not emit a document
    // the parser rejects), and overflowing literals must not parse.
    EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()).dump(),
                 std::runtime_error);
    EXPECT_THROW(Json::number(std::nan("")).dump(), std::runtime_error);
    EXPECT_THROW(Json::parse("1e999"), std::runtime_error);
}

/** `depth` nested containers: "[[...[1]...]]" or {"a":{"a":...1...}}. */
std::string
nested_document(int depth, bool objects)
{
    std::string text;
    for (int i = 0; i < depth; ++i)
        text += objects ? "{\"a\":" : "[";
    text += "1";
    for (int i = 0; i < depth; ++i)
        text += objects ? "}" : "]";
    return text;
}

TEST(Json, HostileNestingIsRefused)
{
    // Unbounded recursion would overflow the stack on these; the parser
    // refuses them with the same error type as any malformed document.
    const size_t n = 1000000;
    std::string arrays(n, '[');
    EXPECT_THROW(Json::parse(arrays), std::runtime_error);
    std::string objects;
    objects.reserve(5 * n);
    for (size_t i = 0; i < n; ++i)
        objects += "{\"a\":";
    EXPECT_THROW(Json::parse(objects), std::runtime_error);
    try {
        Json::parse(arrays);
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
            << e.what();
    }

    // Legitimate depth still parses, up to the cap.
    for (bool objs : {false, true}) {
        const Json doc = Json::parse(nested_document(100, objs));
        const Json* j = &doc;
        for (int i = 0; i < 100; ++i)
            j = objs ? &(*j)["a"] : &j->at(0);
        EXPECT_EQ(j->as_int(), 1);
        EXPECT_NO_THROW(Json::parse(nested_document(512, objs)));
        EXPECT_THROW(Json::parse(nested_document(513, objs)),
                     std::runtime_error);
    }
}

TEST(Serialize, F64HexIsBitExact)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            0.1,
                            1.0 / 3.0,
                            6.02214076e23,
                            -1.5e-300,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    for (double v : cases) {
        const std::string hex = f64_to_hex(v);
        EXPECT_EQ(bits_of(f64_from_hex(hex)), bits_of(v)) << hex;
    }
    // 0.1 + 0.2 != 0.3 must survive the round trip as-is.
    const double drift = 0.1 + 0.2;
    EXPECT_EQ(bits_of(f64_from_hex(f64_to_hex(drift))), bits_of(drift));
    EXPECT_THROW(f64_from_hex("3ff0000000000000"), std::runtime_error);
    EXPECT_THROW(f64_from_hex("0xgg"), std::runtime_error);
    EXPECT_THROW(f64_from_hex("0x00112233445566778899"), std::runtime_error);
}

TEST(Serialize, U64Hex)
{
    EXPECT_EQ(u64_from_hex(u64_to_hex(0ull)), 0ull);
    EXPECT_EQ(u64_from_hex(u64_to_hex(0xFFFFFFFFFFFFFFFFull)),
              0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(u64_from_hex("0x5EED5EED"), 0x5EED5EEDull);
}

ExperimentConfig
sample_config()
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.05);
    cfg.np.mobility = 0.13;
    cfg.np.leaked_gate_backaction = true;
    cfg.rounds = 17;
    cfg.shots = 421;
    cfg.seed = 0xDEADBEEFCAFEF00Dull;  // needs the full 64 bits
    cfg.leakage_sampling = true;
    cfg.compute_ler = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 5;
    cfg.backend = SimBackend::kFrame;
    return cfg;
}

TEST(Serialize, ConfigRoundTrip)
{
    const ExperimentConfig cfg = sample_config();
    const ExperimentConfig back =
        config_from_json(Json::parse(config_to_json(cfg).dump(2)));
    EXPECT_EQ(bits_of(back.np.p), bits_of(cfg.np.p));
    EXPECT_EQ(bits_of(back.np.leak_ratio), bits_of(cfg.np.leak_ratio));
    EXPECT_EQ(bits_of(back.np.mlr_ratio), bits_of(cfg.np.mlr_ratio));
    EXPECT_EQ(bits_of(back.np.mobility), bits_of(cfg.np.mobility));
    EXPECT_EQ(bits_of(back.np.lrc_gate_factor),
              bits_of(cfg.np.lrc_gate_factor));
    EXPECT_EQ(bits_of(back.np.lrc_leak_prob), bits_of(cfg.np.lrc_leak_prob));
    EXPECT_EQ(back.np.leaked_gate_backaction, cfg.np.leaked_gate_backaction);
    EXPECT_EQ(back.rounds, cfg.rounds);
    EXPECT_EQ(back.shots, cfg.shots);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.leakage_sampling, cfg.leakage_sampling);
    EXPECT_EQ(back.compute_ler, cfg.compute_ler);
    EXPECT_EQ(back.record_dlp_series, cfg.record_dlp_series);
    EXPECT_EQ(back.rng_streams, cfg.rng_streams);
    EXPECT_EQ(back.backend, cfg.backend);

    // Non-default backend round-trips too.
    ExperimentConfig tab = cfg;
    tab.backend = SimBackend::kTableau;
    EXPECT_EQ(config_from_json(Json::parse(config_to_json(tab).dump()))
                  .backend,
              SimBackend::kTableau);
}

TEST(Serialize, Version1ConfigMigratesToFrameBackend)
{
    // A version-1 document (no "backend" field) must still load — as the
    // frame backend it was produced by — while its HASH context (v2 + the
    // backend field) intentionally differs, so version-1 checkpoints are
    // refused by the hash check instead of silently resumed.
    Json j = config_to_json(sample_config());
    j.set("gld_version", Json::integer(1));
    ASSERT_TRUE(j.has("backend"));
    Json v1 = Json::object();  // rebuild without the backend key
    v1.set("gld_version", Json::integer(1));
    for (const char* key :
         {"noise", "rounds", "shots", "seed", "leakage_sampling",
          "compute_ler", "record_dlp_series", "rng_streams"})
        v1.set(key, j[key]);
    const ExperimentConfig back = config_from_json(v1);
    EXPECT_EQ(back.backend, SimBackend::kFrame);
    EXPECT_EQ(back.shots, sample_config().shots);
}

// Hostile integers: an int field outside int's range is refused by the
// loader, never narrowed (narrowed, 2^32 + 5 rounds load as 5).
TEST(Serialize, ConfigRefusesIntegersOutsideInt)
{
    ExperimentConfig cfg = sample_config();
    cfg.batch_words = 2;  // so the document carries the field
    for (const char* key : {"rounds", "shots", "rng_streams", "batch_words"}) {
        for (int64_t v : {(int64_t{1} << 32) + 1, -(int64_t{1} << 32)}) {
            SCOPED_TRACE(std::string(key) + " = " + std::to_string(v));
            Json j = config_to_json(cfg);
            j.set(key, Json::integer(v));
            try {
                config_from_json(Json::parse(j.dump()));
                ADD_FAILURE() << "accepted";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                    << e.what();
                EXPECT_NE(std::string(e.what()).find("does not fit in int"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // The int range edges still load.
    Json j = config_to_json(cfg);
    j.set("shots", Json::integer(std::numeric_limits<int>::max()));
    EXPECT_EQ(config_from_json(j).shots, std::numeric_limits<int>::max());
}

// A document naming a backend this build does not have (batch_tableau)
// is refused with the known-backends list, never mapped to another
// engine.
TEST(Serialize, ConfigRefusesAnUnknownBackend)
{
    Json j = config_to_json(sample_config());
    j.set("backend", Json::str("batch_tableau"));
    try {
        config_from_json(j);
        ADD_FAILURE() << "accepted backend batch_tableau";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"batch_tableau\""), std::string::npos) << what;
        EXPECT_NE(what.find("known backends: frame, tableau, batch_frame"),
                  std::string::npos)
            << what;
    }
}

TEST(Serialize, ConfigHashStability)
{
    const ExperimentConfig cfg = sample_config();
    // Stable across processes and time: a golden value, not just
    // self-consistency.  If this changes, bump kSerializeVersion — every
    // existing checkpoint file becomes stale.  (v2: the serialized form
    // gained the backend field, which retired the v1 golden.  v3: the
    // shared LeakageDriver changed the frame backend's draw sequence, so
    // the version bump retired every v2 checkpoint — and the v2 golden.
    // v4: per-shot driver RNG streams + the 64-shot scheduler block for
    // the batch backend retired every v3 checkpoint and golden.)
    EXPECT_EQ(config_hash(cfg), 0xe5ead93444415e27ull);

    // Round-tripping must not change the hash (resume depends on it).
    const ExperimentConfig back =
        config_from_json(Json::parse(config_to_json(cfg).dump()));
    EXPECT_EQ(config_hash(back), config_hash(cfg));

    // threads must NOT affect the hash (does not affect results)...
    ExperimentConfig t = cfg;
    t.threads = 64;
    EXPECT_EQ(config_hash(t), config_hash(cfg));
    // ...but every result-affecting knob must.
    ExperimentConfig c1 = cfg;
    c1.seed ^= 1;
    EXPECT_NE(config_hash(c1), config_hash(cfg));
    ExperimentConfig c2 = cfg;
    c2.rng_streams = 6;
    EXPECT_NE(config_hash(c2), config_hash(cfg));
    ExperimentConfig c3 = cfg;
    c3.np.p = 2.0000000001e-3;
    EXPECT_NE(config_hash(c3), config_hash(cfg));
    // The backend changes the results, so it must change the hash
    // (switching backends never resumes the other backend's checkpoints).
    ExperimentConfig c4 = cfg;
    c4.backend = SimBackend::kTableau;
    EXPECT_EQ(config_hash(c4), 0x4f1b42be14c1783cull);
    EXPECT_NE(config_hash(c4), config_hash(cfg));
    // batch_frame is a distinct backend hash-wise too, even though its
    // results are bit-identical to frame: resume stays backend-honest.
    ExperimentConfig c5 = cfg;
    c5.backend = SimBackend::kBatchFrame;
    EXPECT_NE(config_hash(c5), config_hash(cfg));
    EXPECT_NE(config_hash(c5), config_hash(c4));
    // noise_sampling is hashed ONLY when != lockstep: the default leaves
    // every pre-existing document and hash byte-identical (no version
    // bump), while sparse — which redraws the batch backends' randomness
    // — gets its own hash and round-trips.
    ExperimentConfig c6 = cfg;
    c6.noise_sampling = NoiseSampling::kLockstep;
    EXPECT_EQ(config_hash(c6), config_hash(cfg));
    EXPECT_FALSE(config_to_json(c6).has("noise_sampling"));
    c6.noise_sampling = NoiseSampling::kSparse;
    EXPECT_NE(config_hash(c6), config_hash(cfg));
    EXPECT_EQ(config_from_json(Json::parse(config_to_json(c6).dump()))
                  .noise_sampling,
              NoiseSampling::kSparse);
}

TEST(Serialize, MetricsRoundTripIsBitExact)
{
    Metrics m;
    m.shots = 1234;
    m.rounds_per_shot = 56;
    m.fn_total = 0.1 + 0.2;  // classic non-representable sum
    m.fp_total = 1.0 / 3.0;
    m.tp_total = 6.02214076e23;
    m.lrc_data_total = 1e-320;  // subnormal
    m.lrc_check_total = -0.0;
    m.dlp_series = {0.0, 0.1, 0.30000000000000004, 2.5e-17};
    m.dlp_total = 3.14159265358979312;
    m.check_leak_total = 0.7071067811865476;
    m.logical_errors = 9;
    m.decoded_shots = 1000;

    const Metrics back =
        metrics_from_json(Json::parse(metrics_to_json(m).dump(2)));
    EXPECT_EQ(back.shots, m.shots);
    EXPECT_EQ(back.rounds_per_shot, m.rounds_per_shot);
    EXPECT_EQ(bits_of(back.fn_total), bits_of(m.fn_total));
    EXPECT_EQ(bits_of(back.fp_total), bits_of(m.fp_total));
    EXPECT_EQ(bits_of(back.tp_total), bits_of(m.tp_total));
    EXPECT_EQ(bits_of(back.lrc_data_total), bits_of(m.lrc_data_total));
    EXPECT_EQ(bits_of(back.lrc_check_total), bits_of(m.lrc_check_total));
    EXPECT_EQ(bits_of(back.dlp_total), bits_of(m.dlp_total));
    EXPECT_EQ(bits_of(back.check_leak_total), bits_of(m.check_leak_total));
    EXPECT_EQ(back.logical_errors, m.logical_errors);
    EXPECT_EQ(back.decoded_shots, m.decoded_shots);
    ASSERT_EQ(back.dlp_series.size(), m.dlp_series.size());
    for (size_t i = 0; i < m.dlp_series.size(); ++i)
        EXPECT_EQ(bits_of(back.dlp_series[i]), bits_of(m.dlp_series[i]));
}

// Hostile counts: a negative counter is refused by the loader, never
// loaded (a shard file edited to "shots": -5 would otherwise merge a
// negative shot total into the campaign).
TEST(Serialize, MetricsRefusesNegativeCounts)
{
    Metrics m;
    m.shots = 10;
    m.rounds_per_shot = 3;
    m.logical_errors = 1;
    m.decoded_shots = 10;
    for (const char* key :
         {"shots", "rounds_per_shot", "logical_errors", "decoded_shots"}) {
        SCOPED_TRACE(key);
        Json j = metrics_to_json(m);
        j.set(key, Json::integer(-5));
        try {
            metrics_from_json(Json::parse(j.dump()));
            ADD_FAILURE() << "accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(std::string("\"") + key +
                                                 "\" -5 is a negative count"),
                      std::string::npos)
                << e.what();
        }
        j.set(key, Json::integer(0));  // zero is a count
        EXPECT_NO_THROW(metrics_from_json(j));
    }
}

TEST(Serialize, VersionIsChecked)
{
    Json j = metrics_to_json(Metrics{});
    j.set("gld_version", Json::integer(999));
    EXPECT_THROW(metrics_from_json(j), std::runtime_error);
    Json c = config_to_json(ExperimentConfig{});
    c.set("gld_version", Json::integer(0));
    EXPECT_THROW(config_from_json(c), std::runtime_error);
}

TEST(IoFiles, AtomicWriteReadBack)
{
    const std::string dir = ::testing::TempDir() + "gld_io_test";
    make_dirs(dir + "/nested/deeper");
    const std::string path = dir + "/nested/deeper/x.json";
    std::remove(path.c_str());  // TempDir persists across test runs
    EXPECT_FALSE(file_exists(path));
    write_file_atomic(path, "{\"k\":1}\n");
    EXPECT_TRUE(file_exists(path));
    EXPECT_EQ(read_file(path), "{\"k\":1}\n");
    write_file_atomic(path, "2");  // overwrite is atomic too
    EXPECT_EQ(read_file(path), "2");
    EXPECT_FALSE(file_exists(path + ".tmp"));
    EXPECT_THROW(read_file(dir + "/absent"), std::runtime_error);
}

}  // namespace
}  // namespace io
}  // namespace gld
