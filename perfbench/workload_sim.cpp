/**
 * @file
 * The two closed-loop simulator workloads: `sweep-cold` (the Figure
 * 4/5/6 panel sweep on both Table 4 GPUs, every pass cold) and
 * `dist-grid` (the topology x workers x collective grid through
 * runDistSweep, every pass cold). Both keep the persistent store off.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "analysis/obs_report.h"
#include "bench.h"
#include "core/tbd.h"
#include "dist/sim_cache.h"
#include "obs/obs.h"
#include "perf/lowering_cache.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tbd::perfbench {

namespace {

/** Sequence models get per-iteration length variation at this CV. */
constexpr double kLengthCv = 0.1;

/** Lowering and dist memos: the state every pass starts without. */
void
clearInProcessCaches()
{
    perf::LoweringCache::global().clear();
    dist::clearDistMemos();
}

/** Pass wall times (seconds) of one window. */
struct PassTimes
{
    std::vector<double> raw;
    std::vector<double> scaled; ///< at the reference host's speed
    std::vector<double> cal;    ///< calibration after each pass
};

/**
 * The closed loop both simulator workloads share: `pass(i)` runs pass
 * i (timed by the caller-visible span `layerSpan`), `prepare(i)` and
 * `check(i)` run untimed around it. Passes repeat until `seconds`
 * of wall time have gone, at least three times.
 */
struct PassLoop
{
    const char *layerSpan;
    std::function<void(std::uint64_t)> prepare;
    std::function<void(std::uint64_t)> pass;
    std::function<void(std::uint64_t)> check;

    /** Run pass `i` with its untimed steps; returns the timed pass. */
    Interval runOne(std::uint64_t i, std::uint64_t windowSpan) const
    {
        {
            Trace::Scope span("bench.prepare", windowSpan);
            prepare(i);
        }
        Interval timed;
        timed.first = nowS();
        {
            Trace::Scope span(layerSpan, windowSpan);
            pass(i);
        }
        timed.second = nowS();
        Trace::Scope span("bench.check", windowSpan);
        check(i);
        return timed;
    }

    /**
     * Passes for `seconds` (at least 3), each between two host-speed
     * calibrations.
     */
    PassTimes run(double seconds) const
    {
        PassTimes out;
        const double deadline = nowS() + seconds;
        double cal = calibrateS();
        for (std::uint64_t i = 0; out.raw.size() < 3 || nowS() < deadline;
             ++i) {
            const Interval timed = runOne(i, 0);
            const double elapsed = timed.second - timed.first;
            const double next = calibrateS();
            out.raw.push_back(elapsed);
            out.scaled.push_back(atReferenceSpeed(elapsed, cal, next));
            out.cal.push_back(next);
            cal = next;
        }
        return out;
    }
};

/** Self time (seconds) of program spans named `name`. */
double
programSelfS(const analysis::ObsReport &report, const std::string &name)
{
    for (const auto &agg : report.spans)
        if (agg.name == name)
            return agg.selfUs * 1e-6;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The program's spans at layer boundaries inside a pass: the pipeline
 * stages of PerfSimulator::run and one dist cell's costing. Their
 * parents (suite.sweep.cell, perf.run) wrap them and are left out, so
 * a stage that loses its span lowers trace.coverage_pct.
 */
const std::vector<std::string> kSimLayerSpans = {
    "perf.run.lowering", "perf.run.memory_model", "perf.run.warmup",
    "perf.run.sampling", "dist.simulate_topology",
};

/**
 * A --trace 1 run: passes alternate between untraced and traced (the
 * benchmark trace and the program's obs collection on), so both sides
 * sample the same stretch of host time; overhead is the ratio of their
 * median pass times.
 */
struct TracedWindow
{
    std::vector<double> untracedTimes;
    std::vector<double> passTimes; ///< traced passes
    analysis::ObsReport obsReport;
    obs::TraceDump dump;
    std::int64_t loweringHits = 0, loweringMisses = 0;
    std::int64_t planHits = 0, planMisses = 0;
    double coveragePct = 0.0;

    void run(const PassLoop &loop, double seconds)
    {
        obs::resetAll();
        std::vector<Interval> windows;
        const double deadline = nowS() + seconds;
        for (std::uint64_t i = 0; passTimes.size() < 2 || nowS() < deadline;
             ++i) {
            if (i % 2 == 0) {
                const Interval timed = loop.runOne(i, 0);
                untracedTimes.push_back(timed.second - timed.first);
                continue;
            }
            const dist::PlanCacheStats plan_before = dist::planCacheStats();
            runTraced([&](std::uint64_t window) {
                windows.push_back(loop.runOne(i, window));
                passTimes.push_back(windows.back().second -
                                    windows.back().first);
            });
            // prepare() cleared the lowering cache and its counters, so
            // they now hold this pass alone.
            const auto lowering = perf::LoweringCache::global().stats();
            loweringHits += lowering.hits;
            loweringMisses += lowering.misses;
            const dist::PlanCacheStats plan = dist::planCacheStats();
            planHits += plan.hits - plan_before.hits;
            planMisses += plan.misses - plan_before.misses;
        }
        dump = obs::dumpTrace();
        obsReport = analysis::buildObsReport(dump);
        coveragePct = perfbench::coveragePct(
            windows, obsIntervals(dump.spans, kSimLayerSpans));
    }
};

/** Layer metrics the simulator pipeline exposes through obs spans. */
void
reportSimLayers(Report &report, const TracedWindow &w, double passes)
{
    const auto &r = w.obsReport;
    const auto &m = r.metrics;
    const double per_pass_ms = 1e3 / passes;
    report.layer("perf.lowering.self_ms",
                 programSelfS(r, "perf.run.lowering") * per_pass_ms, "ms");
    const double hits = static_cast<double>(w.loweringHits);
    const double misses = static_cast<double>(w.loweringMisses);
    report.layer("perf.lowering_cache.hit_ratio",
                 ratio(hits, hits + misses), "ratio");
    report.layer("perf.memory_model.self_ms",
                 programSelfS(r, "perf.run.memory_model") * per_pass_ms,
                 "ms");
    report.layer("memprof.allocations",
                 counterOf(m, "memprof.allocations") / passes, "count");
    const double timeline_s = programSelfS(r, "perf.run.warmup") +
                              programSelfS(r, "perf.run.sampling");
    report.layer("gpusim.timeline.self_ms", timeline_s * per_pass_ms,
                 "ms");
    const double replay_hit = counterOf(m, "gpusim.replay.hit");
    report.layer(
        "gpusim.replay.hit_ratio",
        ratio(replay_hit,
              replay_hit + counterOf(m, "gpusim.replay.fallback")),
        "ratio");
    report.layer("gpusim.host_ns_per_kernel",
                 ratio(timeline_s * 1e9,
                       counterOf(m, "perf.kernel_launches")),
                 "ns");
    report.layer("core.sweep.self_ms",
                 (programSelfS(r, "suite.sweep") +
                  programSelfS(r, "suite.sweep.cell") +
                  programSelfS(r, "perf.run")) *
                     per_pass_ms,
                 "ms");
}

/** Wall-time overhead of the traced window over the untraced one. */
double
overheadPct(const std::vector<double> &untraced,
            const std::vector<double> &traced)
{
    return 100.0 * (median(traced) / median(untraced) - 1.0);
}

/** Field-by-field bitwise equality of two dist results. */
bool
sameDist(const dist::DistResult &a, const dist::DistResult &b)
{
    auto eq = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    return a.topology == b.topology && a.collective == b.collective &&
           a.label == b.label && a.workers == b.workers &&
           eq(a.computeUs, b.computeUs) && eq(a.commUs, b.commUs) &&
           eq(a.exposedCommUs, b.exposedCommUs) &&
           eq(a.iterationUs, b.iterationUs) &&
           eq(a.throughputSamples, b.throughputSamples) &&
           eq(a.scalingEfficiency, b.scalingEfficiency) &&
           eq(a.commShare, b.commShare) && eq(a.gradBytes, b.gradBytes) &&
           a.busiestEdge == b.busiestEdge;
}

/**
 * Run `sweep` with the simulator fast paths off, on a pool of every
 * core: the oracle runs outside the timed window, so it need not share
 * the pinned single-thread pool.
 */
template <class Fn>
auto
slowPathOracle(const Fn &sweep)
{
    util::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    util::ThreadPool::Scope scope(pool);
    perf::setFastPathsEnabled(false);
    clearInProcessCaches();
    auto results = sweep();
    perf::setFastPathsEnabled(std::nullopt);
    return results;
}

/** Fingerprint of an optional run result (0 for an OOM cell). */
std::uint64_t
fingerprintOf(const std::optional<perf::RunResult> &r)
{
    return r ? serve::resultFingerprint(*r) : 0;
}

/**
 * Pass-level end-to-end metrics shared by both closed loops: gated at
 * the reference host's speed, printed as measured too.
 */
void
reportPassE2e(Report &report, const PassTimes &times,
              std::size_t cellsPerPass, const char *headlineRate)
{
    const double cells = static_cast<double>(cellsPerPass);
    const double scaled_p50 = median(times.scaled);
    report.e2e("rate_per_s", cells / scaled_p50, "1/s");
    report.e2e("latency_ms", scaled_p50 * 1e3, "ms");
    const Summary raw = summarize(times.raw);
    report.head(headlineRate, cells / raw.p50, "1/s");
    report.head("pass.count", static_cast<double>(raw.n), "count");
    report.head("pass.p50_ms", raw.p50 * 1e3, "ms");
    report.head("pass.tail_ms", raw.tail * 1e3, "ms");
    report.head("pass.tail_pct", raw.tailPct, "pct");
    report.head("host.cal_ms", median(times.cal) * 1e3, "ms");
}

} // namespace

// ---------------------------------------------------------------------
// sweep-cold

namespace {

/** The (model, framework) panels of Figures 4, 5 and 6. */
std::vector<std::pair<const models::ModelDesc *, const char *>>
figurePanels()
{
    return {
        {&models::resnet50(), "TensorFlow"},
        {&models::resnet50(), "MXNet"},
        {&models::resnet50(), "CNTK"},
        {&models::inceptionV3(), "MXNet"},
        {&models::inceptionV3(), "TensorFlow"},
        {&models::inceptionV3(), "CNTK"},
        {&models::seq2seqNmt(), "TensorFlow"},
        {&models::sockeye(), "MXNet"},
        {&models::transformer(), "TensorFlow"},
        {&models::wgan(), "TensorFlow"},
        {&models::deepSpeech2(), "MXNet"},
        {&models::a3c(), "MXNet"},
    };
}

struct SweepCells
{
    std::vector<core::BenchmarkRequest> cells;
    std::vector<std::size_t> varied; ///< indices whose lengthSeed varies
};

SweepCells
buildSweepCells()
{
    SweepCells out;
    const std::vector<std::string> gpus = core::BenchmarkSuite::gpuNames();
    for (const auto &[model, framework] : figurePanels()) {
        const auto fixed = core::SweepSpec()
                               .model(model->name)
                               .framework(framework)
                               .gpus(gpus)
                               .requests();
        out.cells.insert(out.cells.end(), fixed.begin(), fixed.end());
    }
    // Sequence models again at lengthCv > 0: each pass draws fresh
    // length seeds, so these cells always miss the lowering cache.
    for (const auto &[model, framework] : figurePanels()) {
        if (!model->describeScaled)
            continue;
        const auto varied = core::SweepSpec()
                                .model(model->name)
                                .framework(framework)
                                .gpus(gpus)
                                .lengthCv(kLengthCv)
                                .requests();
        for (const auto &cell : varied) {
            out.varied.push_back(out.cells.size());
            out.cells.push_back(cell);
        }
    }
    return out;
}

/** Draw pass `pass`'s length seeds into the varied cells. */
void
drawLengthSeeds(SweepCells &sweep, std::uint64_t seed, std::uint64_t pass)
{
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + pass);
    for (const std::size_t i : sweep.varied)
        sweep.cells[i].lengthSeed = rng.nextU64();
}

} // namespace

Report
runSweepCold(const RunOptions &options)
{
    Report report;

    SweepCells sweep;
    std::vector<std::optional<perf::RunResult>> results;
    // Fingerprints of the fixed cells from the first pass; every later
    // pass must reproduce them exactly.
    std::vector<std::uint64_t> fixed_prints;
    std::vector<bool> is_varied;

    PassLoop loop{
        "core.runSweep",
        [&](std::uint64_t pass) {
            clearInProcessCaches();
            drawLengthSeeds(sweep, options.seed, pass);
        },
        [&](std::uint64_t) {
            results = core::BenchmarkSuite::runSweep(sweep.cells);
        },
        [&](std::uint64_t) {
            report.attempted +=
                static_cast<std::int64_t>(sweep.cells.size());
            if (fixed_prints.empty()) {
                for (std::size_t i = 0; i < results.size(); ++i)
                    fixed_prints.push_back(
                        is_varied[i] ? 0 : fingerprintOf(results[i]));
                return;
            }
            for (std::size_t i = 0; i < results.size(); ++i)
                if (!is_varied[i] &&
                    fingerprintOf(results[i]) != fixed_prints[i])
                    report.fail("sweep cell " + sweep.cells[i].model +
                                " changed between passes");
        },
    };

    // Three set-ups: each one includes a full cold pass.
    const double setup_s = timeSetup(3, [&] {
        clearInProcessCaches();
        sweep = buildSweepCells();
        is_varied.assign(sweep.cells.size(), false);
        for (const std::size_t i : sweep.varied)
            is_varied[i] = true;
        // One untimed pass faults in code and allocator pools; the
        // timed passes start from cleared caches anyway.
        drawLengthSeeds(sweep, options.seed, ~0ULL);
        core::BenchmarkSuite::runSweep(sweep.cells);
    });

    PassTimes times;
    TracedWindow traced;
    if (options.trace)
        traced.run(loop, options.seconds);
    else
        times = loop.run(options.seconds);
    const double rss_mb = peakRssMb();

    if (options.trace) {
        const double passes = static_cast<double>(traced.passTimes.size());
        reportSimLayers(report, traced, passes);
        report.layer("obs.overhead_pct",
                     overheadPct(traced.untracedTimes, traced.passTimes),
                     "%");
        report.layer("trace.coverage_pct", traced.coveragePct, "%");
        // models: the describe() calls behind one pass's cells, timed
        // from outside after the traced window.
        Trace::global().setEnabled(true);
        for (const auto &cell : sweep.cells) {
            Trace::Scope span("models.describe");
            core::findModelDesc(cell.model)->describe(cell.batch);
        }
        Trace::global().setEnabled(false);
        report.layer("models.describe.self_ms",
                     Trace::selfS(Trace::global().spans(),
                                  "models.describe") *
                         1e3,
                     "ms");
    }

    // Output check: the last pass against the fast-paths-off oracle.
    const auto oracle = slowPathOracle(
        [&] { return core::BenchmarkSuite::runSweep(sweep.cells); });
    for (std::size_t i = 0; i < oracle.size(); ++i)
        if (fingerprintOf(oracle[i]) != fingerprintOf(results[i]))
            report.fail("sweep cell " + sweep.cells[i].model + " on " +
                        sweep.cells[i].gpu +
                        " differs from the fast-paths-off oracle");

    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", rss_mb, "MB");
    if (!options.trace)
        reportPassE2e(report, times, sweep.cells.size(),
                      "sweep.cells_per_s");
    report.head("sweep.cells_per_pass",
                static_cast<double>(sweep.cells.size()), "count");
    report.head("sweep.varied_cells_per_pass",
                static_cast<double>(sweep.varied.size()), "count");
    return report;
}

// ---------------------------------------------------------------------
// dist-grid

namespace {

/** The model lines of the grid: (model, framework, batch). */
struct ModelLine
{
    const models::ModelDesc *model;
    const char *framework;
    std::int64_t batch;
    bool varied; ///< sequence line: lengthCv > 0, seed drawn per pass
};

std::vector<ModelLine>
modelLines()
{
    return {
        {&models::resnet50(), "MXNet", 32, false},
        {&models::inceptionV3(), "TensorFlow", 32, false},
        {&models::sockeye(), "MXNet", 32, true},
    };
}

std::vector<std::string>
scalableTopologies()
{
    std::vector<std::string> out;
    for (const auto &name : dist::topologyNames())
        if (dist::findTopology(name)->fixedWorkers == 0)
            out.push_back(name);
    return out;
}

const std::vector<int> kWorkers = {8, 16, 32, 64};

std::vector<core::BenchmarkRequest>
buildDistCells()
{
    std::vector<core::BenchmarkRequest> cells;
    for (const auto &line : modelLines()) {
        core::SweepSpec spec;
        spec.model(line.model->name)
            .framework(line.framework)
            .batches({line.batch})
            .distTopologies(scalableTopologies())
            .distWorkers(kWorkers)
            .distCollectives(dist::collectiveNames());
        if (line.varied)
            spec.lengthCv(kLengthCv);
        const auto part = spec.requests();
        cells.insert(cells.end(), part.begin(), part.end());
    }
    return cells;
}

/** Pass inputs: seeded cell order and sequence-line length seed. */
void
drawDistPass(std::vector<core::BenchmarkRequest> &cells,
             std::uint64_t seed, std::uint64_t pass)
{
    util::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + pass);
    const std::uint64_t length_seed = rng.nextU64();
    for (auto &cell : cells)
        if (cell.lengthCv > 0.0)
            cell.lengthSeed = length_seed;
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1],
                  cells[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
}

/** Stable identity of a dist cell regardless of its position. */
std::string
distCellKey(const core::BenchmarkRequest &r)
{
    return r.model + "|" + r.distTopology + "|" + r.distCollective + "|" +
           std::to_string(r.distWorkers);
}

} // namespace

Report
runDistGrid(const RunOptions &options)
{
    Report report;

    std::vector<core::BenchmarkRequest> cells;
    std::vector<std::optional<dist::DistResult>> results;
    // First-pass results of the fixed-compute lines, by cell identity.
    std::map<std::string, dist::DistResult> fixed;
    bool have_fixed = false;

    PassLoop loop{
        "core.runDistSweep",
        [&](std::uint64_t pass) {
            clearInProcessCaches();
            drawDistPass(cells, options.seed, pass);
        },
        [&](std::uint64_t) {
            results = core::BenchmarkSuite::runDistSweep(cells);
        },
        [&](std::uint64_t) {
            report.attempted += static_cast<std::int64_t>(cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (!results[i]) {
                    report.fail("dist cell " + distCellKey(cells[i]) +
                                " ran out of memory");
                    continue;
                }
                if (cells[i].lengthCv > 0.0)
                    continue;
                const std::string key = distCellKey(cells[i]);
                if (!have_fixed)
                    fixed.emplace(key, *results[i]);
                else if (!sameDist(fixed.at(key), *results[i]))
                    report.fail("dist cell " + key +
                                " changed between passes");
            }
            have_fixed = true;
        },
    };

    const double setup_s = timeSetup(9, [&] {
        clearInProcessCaches();
        cells = buildDistCells();
        drawDistPass(cells, options.seed, ~0ULL);
        core::BenchmarkSuite::runDistSweep(cells);
    });

    PassTimes times;
    TracedWindow traced;
    if (options.trace)
        traced.run(loop, options.seconds);
    else
        times = loop.run(options.seconds);
    const double rss_mb = peakRssMb();

    if (options.trace) {
        const double passes = static_cast<double>(traced.passTimes.size());
        reportSimLayers(report, traced, passes);
        report.layer("obs.overhead_pct",
                     overheadPct(traced.untracedTimes, traced.passTimes),
                     "%");
        report.layer("trace.coverage_pct", traced.coveragePct, "%");

        // Baseline stage: the runSweep inside runDistSweep.
        double baseline_s = 0.0;
        std::vector<double> cell_us;
        for (const auto &span : traced.dump.spans) {
            if (span.name == "suite.sweep")
                baseline_s += span.durUs * 1e-6;
            else if (span.name == "dist.simulate_topology")
                cell_us.push_back(span.durUs);
        }
        report.layer("dist.baseline.self_ms", baseline_s * 1e3 / passes,
                     "ms");
        report.layer("dist.cell.us_p50", median(cell_us), "us");
        const double hits = static_cast<double>(traced.planHits);
        const double misses = static_cast<double>(traced.planMisses);
        report.layer("dist.plan_cache.hit_ratio",
                     ratio(hits, hits + misses), "ratio");

        // Topology builds and plan costing, timed from outside over the
        // grid's shapes at a ResNet-50-sized gradient payload.
        const double grad_bytes = 4.0 * 25.6e6;
        Trace::global().setEnabled(true);
        for (const auto &topo_name : scalableTopologies()) {
            const auto spec = *dist::findTopology(topo_name);
            for (const int workers : kWorkers) {
                std::optional<dist::Topology> topo;
                {
                    Trace::Scope span("dist.topology.build");
                    topo.emplace(spec.build(workers));
                }
                for (const auto &coll_name : dist::collectiveNames()) {
                    const auto coll = *dist::findCollective(coll_name);
                    const dist::CommPlan plan = coll.plan(*topo, grad_bytes);
                    Trace::Scope span("dist.costPlan");
                    if (!(dist::costPlan(*topo, plan).totalUs >= 0.0))
                        report.fail("costPlan returned a negative time");
                }
            }
        }
        Trace::global().setEnabled(false);
        const std::vector<BenchSpan> probes = Trace::global().spans();
        report.layer("dist.topology.build_ms",
                     median(Trace::durationsS(probes,
                                              "dist.topology.build")) *
                         1e3,
                     "ms");
        report.layer(
            "dist.cost_plan.us_p50",
            median(Trace::durationsS(probes, "dist.costPlan")) * 1e6, "us");
    }

    // Output check: the last pass against the fast-paths-off oracle.
    const auto oracle = slowPathOracle(
        [&] { return core::BenchmarkSuite::runDistSweep(cells); });
    for (std::size_t i = 0; i < oracle.size(); ++i)
        if (oracle[i].has_value() != results[i].has_value() ||
            (oracle[i] && !sameDist(*oracle[i], *results[i])))
            report.fail("dist cell " + distCellKey(cells[i]) +
                        " differs from the fast-paths-off oracle");

    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", rss_mb, "MB");
    if (!options.trace)
        reportPassE2e(report, times, cells.size(), "dist.cells_per_s");
    report.head("dist.cells_per_pass", static_cast<double>(cells.size()),
                "count");
    return report;
}

} // namespace tbd::perfbench
