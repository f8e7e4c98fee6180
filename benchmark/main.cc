// gld_bench: the repository's benchmark.  Runs one named workload
// through the public API for a fixed time, checks every job's output,
// and prints the metrics by name with their units; the last stdout line
// is one JSON result object.
//
//   gld_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--reference <file>] [--work-dir <dir>]
//             [--source-rev <text>]
//   gld_bench --record-reference <file>
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the timed
// phase with the telemetry collector and an observe() timing decorator
// attached, probes each layer, and prints the per-layer metrics.  See
// README.md beside this file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

using gld::bench::Outcome;
using gld::bench::Reference;
using gld::bench::RunOptions;
using gld::bench::Sheet;

namespace {

int
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "gld_bench: %s\n"
                 "usage: gld_bench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1>\n"
                 "                 [--scale <f>] [--reference <file>]"
                 " [--work-dir <dir>] [--source-rev <text>]\n"
                 "       gld_bench --record-reference <file>\n"
                 "workloads:",
                 why.c_str());
    for (const std::string& n : gld::bench::workload_names())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    RunOptions opt;
    std::string reference_path = "benchmark/reference.json";
    std::string record_path;
    std::string source_rev = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = val == "1";
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
        } else if (arg == "--scale") {
            opt.scale = std::strtod(val.c_str(), &end);
        } else if (arg == "--reference") {
            reference_path = val;
        } else if (arg == "--work-dir") {
            opt.work_dir = val;
        } else if (arg == "--source-rev") {
            source_rev = val;
        } else if (arg == "--record-reference") {
            record_path = val;
        } else {
            return usage("unknown option " + arg);
        }
        if (end != nullptr && (*end != '\0' || end == val.c_str()))
            return usage("malformed number for " + arg + ": " + val);
    }

    // One process, at most min(4, nproc) threads: the library's shared
    // worker pool is sized from GLD_THREADS at first use.
    setenv("GLD_THREADS", std::to_string(gld::bench::bench_threads()).c_str(),
           1);
    try {
        if (!record_path.empty()) {
            gld::bench::record_reference(record_path);
            return 0;
        }
        if (!have_workload)
            return usage("--workload is required");
        bool known = false;
        for (const std::string& n : gld::bench::workload_names())
            known = known || n == opt.workload;
        if (!known)
            return usage("unknown workload " + opt.workload);
        if (!(opt.seconds > 0) || !(opt.scale > 0))
            return usage("--seconds and --scale must be positive");

        const Reference ref = Reference::load(reference_path);
        std::printf("gld_bench: workload %s, seed %llu, %g s, trace %d\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    opt.trace ? 1 : 0);
        std::printf("fingerprint: %s\n",
                    gld::bench::host_fingerprint(source_rev).dump().c_str());
        Sheet sheet;
        Outcome out;
        const bool trace_ok = gld::bench::run_workload(opt, ref, &sheet, &out);
        for (const std::string& f : out.failures)
            std::printf("FAILED %s\n", f.c_str());
        std::printf("metrics:\n");
        sheet.print_lines();
        std::printf("  %-36s %18.6g frac (%ld of %ld job checks)\n",
                    "failed_ops_frac",
                    static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted),
                    out.failed, out.attempted);
        const bool correct = trace_ok && out.failed == 0 &&
                             out.attempted > 0 && sheet.all_finite();
        std::printf("%s\n", sheet.result_line(out, correct).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "gld_bench: error: %s\n", e.what());
        return 1;
    }
}
