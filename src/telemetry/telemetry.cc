#include "telemetry/telemetry.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace gld {
namespace telemetry {

using io::Json;

const char*
stage_name(int stage)
{
    switch (stage) {
      case kSim:
        return "sim";
      case kPolicy:
        return "policy";
      case kDecode:
        return "decode";
      case kAccounting:
        return "accounting";
      default:
        throw std::runtime_error("telemetry: invalid stage index " +
                                 std::to_string(stage));
    }
}

// --- Heatmap. ---

void
Heatmap::init(int rounds_, int n_data_, int n_checks_)
{
    if (rounds_ < 0 || n_data_ < 0 || n_checks_ < 0)
        throw std::runtime_error("Heatmap::init: negative dimension");
    rounds = rounds_;
    n_data = n_data_;
    n_checks = n_checks_;
    counts.assign(static_cast<size_t>(rounds) *
                      static_cast<size_t>(n_qubits()),
                  0);
}

void
Heatmap::merge(const Heatmap& o)
{
    if (!o.enabled())
        return;
    if (!enabled()) {
        *this = o;
        return;
    }
    if (rounds != o.rounds || n_data != o.n_data || n_checks != o.n_checks)
        throw std::runtime_error(
            "Heatmap::merge: dimension mismatch (" +
            std::to_string(rounds) + "x" + std::to_string(n_data) + "+" +
            std::to_string(n_checks) + " vs " + std::to_string(o.rounds) +
            "x" + std::to_string(o.n_data) + "+" +
            std::to_string(o.n_checks) + ")");
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += o.counts[i];
}

Json
Heatmap::to_json() const
{
    Json j = Json::object();
    j.set("rounds", Json::integer(rounds));
    j.set("n_data", Json::integer(n_data));
    j.set("n_checks", Json::integer(n_checks));
    Json jc = Json::array();
    for (uint64_t c : counts)
        jc.push(Json::integer(static_cast<int64_t>(c)));
    j.set("counts", std::move(jc));
    return j;
}

Heatmap
Heatmap::from_json(const Json& j)
{
    const int rounds = io::int_field(j, "rounds");
    const int n_data = io::int_field(j, "n_data");
    const int n_checks = io::int_field(j, "n_checks");
    if (rounds < 0 || n_data < 0 || n_checks < 0)
        throw std::runtime_error("Heatmap::from_json: negative dimension");
    // Check the dimensions against the counts actually present BEFORE
    // init allocates: a hostile file must not be able to request a huge
    // array by its header alone.  Both products fit in 64 bits.
    const uint64_t nq = static_cast<uint64_t>(n_data) +
                        static_cast<uint64_t>(n_checks);
    const uint64_t want = static_cast<uint64_t>(rounds) * nq;
    const Json& jc = j["counts"];
    if (nq > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
        jc.size() != want)
        throw std::runtime_error(
            "Heatmap::from_json: counts length " + std::to_string(jc.size()) +
            " != " + std::to_string(rounds) + " rounds x " +
            std::to_string(nq) + " qubits");
    Heatmap h;
    h.init(rounds, n_data, n_checks);
    for (size_t i = 0; i < h.counts.size(); ++i)
        h.counts[i] = static_cast<uint64_t>(jc.at(i).as_int());
    return h;
}

// --- Record. ---

void
Record::merge(const Record& o)
{
    shots += o.shots;
    rounds += o.rounds;
    blocks += o.blocks;
    for (int s = 0; s < kStageCount; ++s)
        stage_ns[s] += o.stage_ns[s];
    if (leak_hist.size() < o.leak_hist.size())
        leak_hist.resize(o.leak_hist.size(), 0);
    for (size_t i = 0; i < o.leak_hist.size(); ++i)
        leak_hist[i] += o.leak_hist[i];
    heatmap.merge(o.heatmap);
}

Json
Record::to_json() const
{
    Json j = Json::object();
    j.set("shots", Json::integer(static_cast<int64_t>(shots)));
    j.set("rounds", Json::integer(static_cast<int64_t>(rounds)));
    j.set("blocks", Json::integer(static_cast<int64_t>(blocks)));
    Json js = Json::object();
    for (int s = 0; s < kStageCount; ++s)
        js.set(stage_name(s),
               Json::integer(static_cast<int64_t>(stage_ns[s])));
    j.set("stage_ns", std::move(js));
    Json jh = Json::array();
    for (uint64_t c : leak_hist)
        jh.push(Json::integer(static_cast<int64_t>(c)));
    j.set("leak_histogram", std::move(jh));
    if (heatmap.enabled())
        j.set("heatmap", heatmap.to_json());
    return j;
}

Record
Record::from_json(const Json& j)
{
    Record r;
    r.shots = static_cast<uint64_t>(j["shots"].as_int());
    r.rounds = static_cast<uint64_t>(j["rounds"].as_int());
    r.blocks = static_cast<uint64_t>(j["blocks"].as_int());
    const Json& js = j["stage_ns"];
    for (int s = 0; s < kStageCount; ++s)
        r.stage_ns[s] = static_cast<uint64_t>(js[stage_name(s)].as_int());
    const Json& jh = j["leak_histogram"];
    r.leak_hist.resize(jh.size());
    for (size_t i = 0; i < jh.size(); ++i)
        r.leak_hist[i] = static_cast<uint64_t>(jh.at(i).as_int());
    if (j.has("heatmap"))
        r.heatmap = Heatmap::from_json(j["heatmap"]);
    return r;
}

// --- Collector. ---

void
Collector::record_unit(int stream, int block, Record rec)
{
    uint64_t done = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shots_done_ += rec.shots;
        done = shots_done_;
        units_.push_back({stream, block, std::move(rec)});
    }
    // The liveness hook runs outside the lock: it may take the campaign
    // progress mutex and write a heartbeat line, and no collector state
    // is touched from here.
    if (opt_.on_block)
        opt_.on_block(done);
}

uint64_t
Collector::shots_done() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shots_done_;
}

Record
Collector::merged() const
{
    std::vector<const Unit*> order;
    std::lock_guard<std::mutex> lock(mu_);
    order.reserve(units_.size());
    for (const Unit& u : units_)
        order.push_back(&u);
    // The determinism contract: fold in ascending (stream, block) order,
    // exactly the order run()/merge_campaign sum Metrics partials, no
    // matter which thread parked which unit when.
    std::sort(order.begin(), order.end(),
              [](const Unit* a, const Unit* b) {
                  if (a->stream != b->stream)
                      return a->stream < b->stream;
                  return a->block < b->block;
              });
    Record out;
    for (const Unit* u : order)
        out.merge(u->rec);
    return out;
}

// --- Export. ---

Json
export_to_json(const Record& rec, uint64_t wall_ns, int threads)
{
    Json j = rec.to_json();
    j.set("wall_ns", Json::integer(static_cast<int64_t>(wall_ns)));
    j.set("threads", Json::integer(threads));
    const double sps =
        wall_ns > 0
            ? static_cast<double>(rec.shots) /
                  (static_cast<double>(wall_ns) * 1e-9)
            : 0.0;
    j.set("shots_per_second", Json::number(sps));
    return j;
}

}  // namespace telemetry
}  // namespace gld
