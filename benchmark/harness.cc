#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/policy.h"
#include "util/rng.h"

#ifndef GLD_BENCH_BUILD_TYPE
#define GLD_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef GLD_BENCH_COMPILER
#define GLD_BENCH_COMPILER "unknown"
#endif

namespace gld {
namespace bench {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
quartiles(std::vector<double> v, double* q1, double* q3)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld < 2) {
        *q1 = *q3 = ld == 1 ? v[0] : 0.0;
        return;
    }
    // statistics.quantiles(data, n=4, method="exclusive").
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::max(1L, std::min(ld - 1, j));
        const long delta = i * m - j * 4;
        out[i - 1] = (v[static_cast<size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                     4.0;
    }
    *q1 = out[0];
    *q3 = out[2];
}

uint64_t
derive_seed(uint64_t seed, uint64_t i)
{
    return Rng(seed).split(i).next_u64();
}

int
bench_threads()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(4, hw));
}

double
peak_rss_mib()
{
    // VmHWM belongs to this address space; getrusage's ru_maxrss would
    // also carry the peak of whatever process exec'd this one.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

io::Json
host_fingerprint(const std::string& source_rev)
{
    std::string model = "unknown";
    std::string flags;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        key.erase(key.find_last_not_of(" \t") + 1);
        const std::string val =
            colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown")
            model = val;
        if (key == "flags" && flags.empty())
            flags = " " + val + " ";
    }
    const auto has_flag = [&](const char* f) {
        return flags.find(std::string(" ") + f + " ") != std::string::npos;
    };
    io::Json j = io::Json::object();
    j.set("cpu_model", io::Json::str(model));
    j.set("avx2", io::Json::boolean(has_flag("avx2")));
    j.set("avx512f", io::Json::boolean(has_flag("avx512f")));
    j.set("nproc", io::Json::integer(static_cast<int64_t>(
                       std::thread::hardware_concurrency())));
    j.set("threads_used", io::Json::integer(bench_threads()));
    j.set("compiler", io::Json::str(GLD_BENCH_COMPILER));
    j.set("build_type", io::Json::str(GLD_BENCH_BUILD_TYPE));
    j.set("source_rev", io::Json::str(source_rev));
    return j;
}

// --- Sheet. ---

void
Sheet::add(const std::string& name, double value, const std::string& unit)
{
    entries_.push_back({name, value, unit});
}

void
Sheet::print_lines() const
{
    for (const Entry& e : entries_)
        std::printf("  %-36s %18.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

bool
Sheet::all_finite() const
{
    for (const Entry& e : entries_) {
        if (!std::isfinite(e.value))
            return false;
    }
    return true;
}

std::string
Sheet::result_line(const Outcome& out, bool correct) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        // JSON has no NaN/inf; main() marks such a run incorrect.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(e.value) ? e.value : 0.0);
        os << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

// --- Reference. ---

Reference
Reference::load(const std::string& path)
{
    const io::Json j = io::Json::parse(io::read_file(path));
    Reference ref;
    for (const auto& job : j["rates"].items()) {
        for (const auto& metric : job.second.items()) {
            stats::RateSample s;
            s.events = metric.second.at(0).as_double();
            s.trials = metric.second.at(1).as_double();
            ref.put(job.first, metric.first, s);
        }
    }
    return ref;
}

void
Reference::put(const std::string& key, const std::string& metric,
               const stats::RateSample& s)
{
    rates_[key][metric] = s;
}

const stats::RateSample*
Reference::find(const std::string& key, const std::string& metric) const
{
    const auto job = rates_.find(key);
    if (job == rates_.end())
        return nullptr;
    const auto it = job->second.find(metric);
    return it == job->second.end() ? nullptr : &it->second;
}

io::Json
Reference::to_json() const
{
    io::Json rates = io::Json::object();
    for (const auto& job : rates_) {
        io::Json metrics = io::Json::object();
        for (const auto& metric : job.second) {
            io::Json pair = io::Json::array();
            pair.push(io::Json::number(metric.second.events));
            pair.push(io::Json::number(metric.second.trials));
            metrics.set(metric.first, std::move(pair));
        }
        rates.set(job.first, std::move(metrics));
    }
    io::Json j = io::Json::object();
    j.set("family_alpha", io::Json::number(kFamilyAlpha));
    j.set("rates", std::move(rates));
    return j;
}

std::map<std::string, stats::RateSample>
refereed_rates(const Metrics& m, const CssCode& code, bool decoded)
{
    std::map<std::string, stats::RateSample> r;
    if (decoded)
        r["ler"] = m.ler_sample();
    r["fp"] = m.fp_sample(code.n_data());
    r["dlp"] = m.dlp_sample(code.n_data());
    // LRCs per qubit trajectory: the fraction of rounds a (shot, qubit)
    // pair was reset, data qubits and ancillas alike.
    stats::RateSample lrc;
    if (m.rounds_per_shot > 0)
        lrc.events = (m.lrc_data_total + m.lrc_check_total) /
                     static_cast<double>(m.rounds_per_shot);
    lrc.trials = static_cast<double>(m.shots) *
                 static_cast<double>(code.n_qubits());
    r["lrc"] = lrc;
    return r;
}

// --- BandCheck. ---

void
BandCheck::add(const std::string& key, const std::string& label,
               const Metrics& m, const CssCode& code, bool decoded)
{
    jobs_.push_back({key, label, refereed_rates(m, code, decoded)});
}

std::vector<std::string>
BandCheck::evaluate() const
{
    int tests = 0;
    for (const Job& job : jobs_)
        tests += static_cast<int>(job.rates.size());
    const double alpha = stats::sidak_alpha(Reference::kFamilyAlpha, tests);
    std::vector<std::string> out;
    for (const Job& job : jobs_) {
        std::string why;
        for (const auto& kv : job.rates) {
            const stats::RateSample* ref = ref_->find(job.key, kv.first);
            char buf[256];
            if (ref == nullptr) {
                std::snprintf(buf, sizeof(buf), " %s: no reference;",
                              kv.first.c_str());
                why += buf;
                continue;
            }
            const stats::TwoProportionResult t =
                stats::two_proportion_z(kv.second, *ref);
            if (!(t.p_value >= alpha)) {
                std::snprintf(buf, sizeof(buf),
                              " %s %.6g vs reference %.6g (z %.2f);",
                              kv.first.c_str(), t.rate1, t.rate2, t.z);
                why += buf;
            }
        }
        out.push_back(why.empty() ? why : job.label + ":" + why);
    }
    return out;
}

std::string
job_key(const std::string& workload, const std::string& code,
        const std::string& policy, const ExperimentConfig& cfg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "|p=%.6g|lr=%.6g|rounds=%d|ls=%d|ler=%d|",
                  cfg.np.p, cfg.np.leak_ratio, cfg.rounds,
                  cfg.leakage_sampling ? 1 : 0, cfg.compute_ler ? 1 : 0);
    return workload + "|" + code + "|" + policy + buf +
           backend_name(cfg.backend) + "|" +
           noise_sampling_name(cfg.noise_sampling);
}

// --- Observe timing decorator. ---

namespace {

class TimedPolicy : public Policy {
  public:
    TimedPolicy(std::unique_ptr<Policy> inner,
                std::shared_ptr<ObserveCounters> counters)
        : inner_(std::move(inner)), counters_(std::move(counters))
    {
    }
    ~TimedPolicy() override
    {
        counters_->calls += calls_;
        counters_->ns += ns_;
    }

    std::string name() const override { return inner_->name(); }
    void begin_shot() override { inner_->begin_shot(); }
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        inner_->set_leak_oracle(oracle);
    }
    void observe(int round, const RoundResult& rr, LrcSchedule* out) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        inner_->observe(round, rr, out);
        const auto t1 = std::chrono::steady_clock::now();
        ns_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        ++calls_;
    }

  private:
    std::unique_ptr<Policy> inner_;
    std::shared_ptr<ObserveCounters> counters_;
    uint64_t calls_ = 0;
    uint64_t ns_ = 0;
};

}  // namespace

PolicyFactory
timed_factory(PolicyFactory inner, std::shared_ptr<ObserveCounters> counters)
{
    return [inner = std::move(inner), counters = std::move(counters)](
               const CodeContext& ctx,
               uint64_t seed) -> std::unique_ptr<Policy> {
        return std::make_unique<TimedPolicy>(inner(ctx, seed), counters);
    };
}

// --- Files. ---

void
remove_tree(const std::string& path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void
count_files(const std::string& path, long* files, long* bytes)
{
    *files = 0;
    *bytes = 0;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(path)) {
        if (!e.is_regular_file())
            continue;
        ++*files;
        *bytes += static_cast<long>(e.file_size());
    }
}

StdoutToFile::StdoutToFile(const std::string& path)
{
    std::fflush(stdout);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw std::runtime_error("cannot open " + path);
    saved_ = ::dup(1);
    ::dup2(fd, 1);
    ::close(fd);
}

StdoutToFile::~StdoutToFile()
{
    std::fflush(stdout);
    ::dup2(saved_, 1);
    ::close(saved_);
}

}  // namespace bench
}  // namespace gld
