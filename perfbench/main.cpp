/**
 * @file
 * tbd_perfbench: the repository benchmark. One invocation runs one
 * workload for a fixed number of seconds, checks the program's outputs
 * and prints every metric by name and unit; the last line of standard
 * output is a single JSON object (see README.md).
 *
 *   tbd_perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
 *   tbd_perfbench --self-test
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "store/store.h"
#include "tensor/simd.h"

extern char **environ;

namespace tbd::perfbench {
namespace {

/**
 * Every end-to-end metric, in output order. Each workload fills all of
 * them; README.md says what each one means per workload.
 */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
    {"rate_per_s", "1/s"}, {"latency_ms", "ms"},
    {"sweep.paper_err_pct", "%"},
};

/**
 * Every per-layer metric, in output order. A layer a workload does not
 * exercise reads 0 there (the no-change predictions of README.md).
 */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"models.describe.self_ms", "ms"},
    {"perf.lowering.self_ms", "ms"},
    {"perf.lowering_cache.hit_ratio", "ratio"},
    {"perf.memory_model.self_ms", "ms"},
    {"memprof.allocations", "count"},
    {"gpusim.timeline.self_ms", "ms"},
    {"gpusim.replay.hit_ratio", "ratio"},
    {"gpusim.host_ns_per_kernel", "ns"},
    {"core.sweep.self_ms", "ms"},
    {"dist.baseline.self_ms", "ms"},
    {"dist.cell.us_p50", "us"},
    {"dist.cost_plan.us_p50", "us"},
    {"dist.topology.build_ms", "ms"},
    {"dist.plan_cache.hit_ratio", "ratio"},
    {"store.load.us_p50", "us"},
    {"store.put.us_p50", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.corrupt", "count"},
    {"serve.codec.us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.coalesced", "count"},
    {"serve.cache.disk_hits", "count"},
    {"serve.admission.rejected", "count"},
    {"serve.queue_depth.max", "count"},
    {"serve.lat_ms.hot.p50", "ms"},
    {"serve.lat_ms.disk.p50", "ms"},
    {"serve.lat_ms.computed.p50", "ms"},
    {"serve.lat_ms.coalesced.p50", "ms"},
    {"engine.forward_ms", "ms"},
    {"engine.backward_ms", "ms"},
    {"engine.optimizer_ms", "ms"},
    {"engine.fusion.hit_ratio", "ratio"},
    {"tensor.simd.fallback", "count"},
    {"util.arena.bytes_per_step", "bytes"},
    {"obs.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
    {"serve.gen_lag_ms.max", "ms"},
};

const std::map<std::string, Report (*)(const RunOptions &)> kWorkloads = {
    {"sweep-cold", runSweepCold},
    {"serve-open", runServeOpen},
    {"dist-grid", runDistGrid},
    {"train-resnet", runTrainResNet},
    {"train-transformer", runTrainTransformer},
};

/**
 * Every file under `dir` with its size and write time, and the
 * directory's own write time; "absent" when there is no such
 * directory. Two equal snapshots mean nothing was written there.
 */
std::string
snapshotDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return "absent";
    std::ostringstream out;
    out << fs::last_write_time(dir, ec).time_since_epoch().count() << "\n";
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
        out << it->path().string() << " "
            << fs::last_write_time(it->path(), ec).time_since_epoch().count();
        if (it->is_regular_file(ec))
            out << " " << it->file_size(ec);
        out << "\n";
    }
    return out.str();
}

/**
 * Hermetic environment: no TBD_* switch from the caller may change
 * what is measured, and the simulation pool size is pinned. Must run
 * before any library call reads the environment.
 */
void
sanitizeEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env != nullptr; ++env)
        if (std::strncmp(*env, "TBD_", 4) == 0)
            names.emplace_back(*env, std::strcspn(*env, "="));
    for (const auto &name : names)
        unsetenv(name.c_str());
    setenv("TBD_THREADS", std::to_string(kPoolThreads).c_str(), 1);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/** A JSON number with all its digits. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: tbd_perfbench --workload "
                 "{sweep-cold|serve-open|dist-grid|train-resnet|"
                 "train-transformer} --seed N "
                 "--seconds S --trace {0|1} [--out-dir DIR]\n"
                 "       tbd_perfbench --self-test\n",
                 why);
    return 2;
}

int
benchMain(int argc, char **argv)
{
    sanitizeEnvironment();

    std::string workload;
    RunOptions options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return runSelfTests();
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = options.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                have_trace = true;
            } else if (arg == "--out-dir") {
                options.outDir = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    const auto entry = kWorkloads.find(workload);
    if (entry == kWorkloads.end())
        return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds (> 0) and --trace are required");

    const std::string build_type = TBD_PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::fprintf(stderr,
                     "error: refusing to benchmark a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 3;
    }
    if (runSelfTests() != 0)
        return 4;

    const unsigned nproc = std::thread::hardware_concurrency();
    std::cout << "# build=" << build_type << " simd="
              << tensor::simd::tierName(tensor::simd::activeTier())
              << " nproc=" << nproc << " pool_threads=" << kPoolThreads
              << " cpu=\"" << cpuModel() << "\"\n";
    std::cout << "# workload=" << workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";

    // The store stays off unless a workload turns on a private one;
    // the workspace store is neither read nor written.
    store::setStoreEnabled(false);
    const std::string workspace_store = store::storeDir();
    const std::string workspace_before = snapshotDir(workspace_store);
    calibrateS(); // allocates the calibration's buffers up front

    const std::string run_id = workload + "-s" +
                               std::to_string(options.seed) + "-t" +
                               (options.trace ? "1" : "0");
    Trace::global().setRunId(run_id);
    Report report = entry->second(options);
    if (!options.trace)
        report.e2e("sweep.paper_err_pct", paperErrorPct(report), "%");
    if (snapshotDir(workspace_store) != workspace_before)
        report.fail("the workspace store " + workspace_store +
                    " was written");
    const store::StoreCounters used = store::counters();
    if (workload != "serve-open" &&
        used.hits + used.misses + used.puts != 0)
        report.fail("the store was probed on a store-free workload");

    for (const auto &m : report.headline)
        std::cout << "# " << m.name << " = " << num(m.value) << " "
                  << m.unit << "\n";
    for (const auto &problem : report.problems)
        std::cout << "# FAIL: " << problem << "\n";

    std::ostringstream metrics;
    const auto &chosen = options.trace ? kPerLayer : kEndToEnd;
    const auto &have = options.trace ? report.perLayer : report.endToEnd;
    bool first = true;
    for (const auto &[name, unit] : chosen) {
        double value = 0.0;
        bool found = false;
        for (const auto &m : have)
            if (m.name == name) {
                value = m.value;
                found = true;
            }
        if (!found && !options.trace) {
            std::fprintf(stderr, "error: workload did not report %s\n",
                         name);
            return 5;
        }
        std::cout << "# " << name << " = " << num(value) << " " << unit
                  << "\n";
        metrics << (first ? "" : ", ") << "\"" << name
                << "\": {\"value\": " << num(value) << ", \"unit\": \""
                << unit << "\"}";
        first = false;
    }

    if (options.trace) {
        std::filesystem::create_directories(options.outDir);
        const std::string path = options.outDir + "/" + run_id + ".jsonl";
        if (!Trace::global().writeJsonl(path))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         path.c_str());
    }

    const bool correct = report.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::int64_t>(
                                            1, report.attempted)
              << ", \"failed\": " << report.failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace tbd::perfbench

int
main(int argc, char **argv)
{
    try {
        return tbd::perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
