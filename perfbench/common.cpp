#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "bench.h"
#include "core/tbd.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tbd::perfbench {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
cpuTimeS()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

/** Keys inserted into the calibration's search tree per repetition. */
constexpr std::uint32_t kCalNodes = 4000;

/** One node of the calibration's binary search tree. */
struct CalNode
{
    std::uint64_t key;
    std::uint32_t left; ///< 0 = none (node 0 is the root)
    std::uint32_t right;
};

/**
 * The calibration's buffers, allocated once: no allocation happens
 * inside the timed loop, so the heap the program leaves behind cannot
 * change what it measures.
 */
struct CalBuffers
{
    std::vector<double> values = std::vector<double>(20000);
    std::vector<CalNode> nodes = std::vector<CalNode>(kCalNodes);
    std::vector<float> xs = std::vector<float>(4096, 1.0f);
    std::vector<float> ys = std::vector<float>(4096);
};

} // namespace

double
calibrateS()
{
    static CalBuffers buffers;
    std::vector<double> &values = buffers.values;
    std::vector<CalNode> &nodes = buffers.nodes;
    std::vector<double> times(3);
    for (double &time : times) {
        const double t0 = nowS();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL; // xorshift64
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (double &v : values)
            v = static_cast<double>(next() >> 11);
        std::sort(values.begin(), values.end());
        // Unbalanced tree inserts of random keys: the pointer chasing
        // of an ordered map, on a fixed array.
        nodes[0] = CalNode{next(), 0, 0};
        std::uint64_t steps = 0;
        for (std::uint32_t i = 1; i < kCalNodes; ++i) {
            const std::uint64_t key = next();
            nodes[i] = CalNode{key, 0, 0};
            std::uint32_t at = 0;
            for (;;) {
                ++steps;
                std::uint32_t &child =
                    key < nodes[at].key ? nodes[at].left : nodes[at].right;
                if (child == 0) {
                    child = i;
                    break;
                }
                at = child;
            }
        }
        // Vectorized float multiply-adds: training kernels slow down
        // more than scalar code when a core's sibling is busy, and the
        // scalar parts alone under-track them.
        std::fill(buffers.ys.begin(), buffers.ys.end(), 0.5f);
        for (int r = 0; r < 600; ++r) {
            const float a = 1.0f + 1e-7f * static_cast<float>(r);
            for (std::size_t i = 0; i < buffers.ys.size(); ++i)
                buffers.ys[i] = a * buffers.xs[i] + 0.999f * buffers.ys[i];
        }
        if (steps < kCalNodes || !(buffers.ys[7] > 0.0f))
            std::abort(); // keeps the loop observable
        time = nowS() - t0;
    }
    return median(std::move(times));
}

CalibrationSampler::CalibrationSampler(double periodS)
    : thread_([this, periodS] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stopping_) {
              lock.unlock();
              const double cal = calibrateS();
              lock.lock();
              samples_.push_back(cal);
              wake_.wait_for(lock, std::chrono::duration<double>(periodS),
                             [this] { return stopping_; });
          }
      })
{
}

CalibrationSampler::~CalibrationSampler()
{
    stop();
}

double
CalibrationSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    return median(samples_);
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : util::percentile(std::move(xs), 50.0);
}

double
counterOf(const std::vector<obs::MetricSnapshot> &metrics,
          const std::string &name)
{
    for (const auto &m : metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = util::percentile(samples, 50.0);
    s.tail = s.p50;
    // Per-mille rungs keep the "ten beyond" test in exact integers.
    for (const std::size_t pm : {999u, 990u, 950u, 900u, 750u}) {
        if (s.n * (1000 - pm) >= 10 * 1000) {
            s.tailPct = static_cast<double>(pm) / 10.0;
            s.tail = util::percentile(samples, s.tailPct);
            break;
        }
    }
    return s;
}

double
timeSetup(int reps, const std::function<void()> &setup)
{
    std::vector<double> times;
    double cal = calibrateS();
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowS();
        setup();
        const double elapsed = nowS() - t0;
        const double next = calibrateS();
        times.push_back(atReferenceSpeed(elapsed, cal, next));
        cal = next;
    }
    return median(times);
}

// ---------------------------------------------------------------------
// Schedule

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n)
{
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (double &c : cdf_)
        c /= acc;
}

std::size_t
ZipfSampler::rank(double u) const
{
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, const TrafficShape &shape,
                const ZipfSampler &zipf, double ratePerS,
                double durationS, std::uint64_t freshBase)
{
    util::Rng rng(seed);
    std::vector<Arrival> out;
    double t = 0.0;
    std::uint64_t fresh = freshBase;
    for (;;) {
        // Exponential inter-arrival gaps by inversion: the stream is
        // a function of the seed alone, not of a library distribution.
        t += -std::log(1.0 - rng.uniform()) / ratePerS;
        if (t >= durationS)
            break;
        if (rng.uniform() < shape.burstShare) {
            for (int i = 0; i < shape.burstSize; ++i)
                out.push_back(Arrival{t, fresh, true});
            ++fresh;
        } else {
            out.push_back(Arrival{t, zipf.rank(rng.uniform()), false});
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Trace

Trace &
Trace::global()
{
    static Trace trace;
    return trace;
}

Trace::Scope::Scope(const char *name, std::uint64_t parent)
{
    if (!Trace::global().enabled())
        return;
    active_ = true;
    span_.id = Trace::nextId();
    span_.parent = parent;
    span_.name = name;
    span_.startS = nowS();
}

Trace::Scope::~Scope()
{
    if (!active_)
        return;
    span_.endS = nowS();
    Trace::global().record(std::move(span_));
}

std::uint64_t
Trace::nextId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
Trace::add(const char *name, double startS, double endS,
           std::uint64_t parent)
{
    if (!enabled())
        return;
    record(BenchSpan{nextId(), parent, name, startS, endS});
}

void
Trace::record(BenchSpan &&span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<BenchSpan>
Trace::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace {

/** Length of the union of [begin, end) intervals. */
double
unionLength(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double cursor = -1e300;
    for (const auto &[begin, end] : intervals) {
        const double from = std::max(begin, cursor);
        if (end > from) {
            total += end - from;
            cursor = end;
        }
    }
    return total;
}

} // namespace

double
Trace::selfS(const std::vector<BenchSpan> &spans, const std::string &name)
{
    double total = 0.0;
    for (const auto &span : spans) {
        if (span.name != name)
            continue;
        std::vector<Interval> children;
        for (const auto &child : spans)
            if (child.parent == span.id)
                children.emplace_back(std::max(child.startS, span.startS),
                                      std::min(child.endS, span.endS));
        total += (span.endS - span.startS) - unionLength(children);
    }
    return total;
}

std::vector<double>
Trace::durationsS(const std::vector<BenchSpan> &spans,
                  const std::string &name)
{
    std::vector<double> out;
    for (const auto &span : spans)
        if (span.name == name)
            out.push_back(span.endS - span.startS);
    return out;
}

void
runTraced(const std::function<void(std::uint64_t)> &body)
{
    Trace &trace = Trace::global();
    trace.setEnabled(true);
    obs::setEnabled(true);
    {
        Trace::Scope window("bench.window");
        body(window.id());
    }
    obs::setEnabled(false);
    trace.setEnabled(false);
}

double
coveragePct(const std::vector<Interval> &windows,
            const std::vector<Interval> &layers)
{
    double covered = 0.0, total = 0.0;
    for (const auto &[begin, end] : windows) {
        std::vector<Interval> inside;
        for (const auto &[from, to] : layers)
            if (to > begin && from < end)
                inside.emplace_back(std::max(from, begin),
                                    std::min(to, end));
        covered += unionLength(std::move(inside));
        total += end - begin;
    }
    return total > 0.0 ? 100.0 * covered / total : 0.0;
}

std::vector<Interval>
spanIntervals(const std::vector<BenchSpan> &spans,
              const std::vector<std::string> &names)
{
    std::vector<Interval> out;
    for (const auto &span : spans)
        if (std::find(names.begin(), names.end(), span.name) != names.end())
            out.emplace_back(span.startS, span.endS);
    return out;
}

std::vector<Interval>
obsIntervals(const std::vector<obs::SpanRecord> &spans,
             const std::vector<std::string> &names)
{
    // Both clocks are steady_clock; only their zero differs.
    const double offset_s = nowS() - obs::traceNowUs() * 1e-6;
    std::vector<Interval> out;
    for (const auto &span : spans)
        if (std::find(names.begin(), names.end(), span.name) != names.end())
            out.emplace_back(offset_s + span.startUs * 1e-6,
                             offset_s + (span.startUs + span.durUs) * 1e-6);
    return out;
}

bool
Trace::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::setprecision(17);
    for (const auto &span : spans())
        out << "{\"run\":\"" << runId_ << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"name\":\""
            << span.name << "\",\"start_s\":" << span.startS
            << ",\"end_s\":" << span.endS << "}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Report

void
Report::fail(const std::string &why, std::int64_t count)
{
    failed += count;
    if (problems.size() < 8)
        problems.push_back(why);
}

void
Report::e2e(const std::string &name, double value, const std::string &unit)
{
    endToEnd.push_back(Metric{name, value, unit});
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    perLayer.push_back(Metric{name, value, unit});
}

void
Report::head(const std::string &name, double value,
             const std::string &unit)
{
    headline.push_back(Metric{name, value, unit});
}

double
paperErrorPct(Report &report)
{
    // The single-valued Figure 4 anchors of EXPERIMENTS.md (Quadro
    // P4000, paper units); ranges and derived ratios are left out.
    struct Anchor
    {
        const models::ModelDesc *model;
        const char *framework;
        std::int64_t batch;
        double paper;
    };
    const Anchor anchors[] = {
        {&models::resnet50(), "MXNet", 32, 89.0},
        {&models::resnet50(), "TensorFlow", 32, 71.0},
        {&models::inceptionV3(), "MXNet", 32, 61.0},
        {&models::seq2seqNmt(), "TensorFlow", 128, 365.0},
        {&models::sockeye(), "MXNet", 64, 229.0},
        {&models::wgan(), "TensorFlow", 64, 75.0},
    };
    std::vector<core::BenchmarkRequest> cells;
    for (const auto &a : anchors) {
        core::BenchmarkRequest r;
        r.model = a.model->name;
        r.framework = a.framework;
        r.gpu = gpusim::quadroP4000().name;
        r.batch = a.batch;
        cells.push_back(r);
    }
    const auto results = core::BenchmarkSuite::runSweep(cells);
    double sum = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!results[i]) {
            report.fail("paper anchor " + cells[i].model + " ran OOM");
            continue;
        }
        sum += std::abs(results[i]->throughputUnits / anchors[i].paper -
                        1.0);
    }
    return 100.0 * sum / static_cast<double>(cells.size());
}

} // namespace tbd::perfbench
