/**
 * @file
 * Shared pieces of the repository benchmark (tbd_perfbench): the run
 * report every workload fills, the benchmark's own span recorder, the
 * percentile helper and the open-loop schedule generators. See
 * README.md in this directory for the metric definitions.
 */

#ifndef TBD_PERFBENCH_BENCH_H
#define TBD_PERFBENCH_BENCH_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace tbd::perfbench {

/** Host wall clock, seconds since an arbitrary epoch. */
double nowS();

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Process CPU time (user + system) so far, in seconds. */
double cpuTimeS();

// ---------------------------------------------------------------------
// Host-speed calibration

/**
 * Wall time of a fixed, self-contained CPU and memory loop (sort,
 * binary-search-tree inserts, vectorized float multiply-adds; standard
 * library only, no program code),
 * median of three runs. Run right before and after each timed pass, it
 * tracks how fast the shared host is at that moment. Its buffers are
 * allocated on the first call and reused, so the program's heap state
 * cannot move it: make that first call at start-up.
 */
double calibrateS();

/**
 * Calibrations on a thread of their own, one every `periodS`, for as
 * long as the object lives: an open-loop phase cannot stop between
 * requests to calibrate, so the sampler runs beside it. No other
 * calibrateS() call may run meanwhile (the loop's buffers are shared).
 */
class CalibrationSampler
{
  public:
    explicit CalibrationSampler(double periodS);
    ~CalibrationSampler();
    CalibrationSampler(const CalibrationSampler &) = delete;
    CalibrationSampler &operator=(const CalibrationSampler &) = delete;

    /** Stop sampling and return the median calibration (seconds). */
    double stop();

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::vector<double> samples_;
    std::thread thread_;
};

/** Calibration time on the reference host the figures are scaled to. */
inline constexpr double kCalRefS = 0.0025;

/**
 * A wall time scaled to the reference host: `seconds` measured between
 * calibrations `calBefore` and `calAfter`.
 */
inline double
atReferenceSpeed(double seconds, double calBefore, double calAfter)
{
    return seconds * kCalRefS / (0.5 * (calBefore + calAfter));
}

// ---------------------------------------------------------------------
// Percentiles

/**
 * A timing summary as the benchmark reports it: the median and the
 * highest percentile of a fixed ladder (99.9, 99, 95, 90, 75) that has
 * at least ten samples beyond it, with the sample count. When no rung
 * qualifies (fewer than 40 samples) the tail is the median.
 */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tailPct = 50.0; ///< which percentile `tail` is
};

/** Summarize samples (any unit); an empty vector gives all zeros. */
Summary summarize(std::vector<double> samples);

// ---------------------------------------------------------------------
// Open-loop schedule

/**
 * Zipf(s) sampler over ranks [0, n): P(rank k) is proportional to
 * 1 / (k + 1)^s. Inverse-CDF over a precomputed table, driven by the
 * caller's uniform draws so the stream is fixed by the seed alone.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s);

    /** Rank for a uniform draw u in [0, 1). */
    std::size_t rank(double u) const;

  private:
    std::vector<double> cdf_;
};

/** One scheduled arrival of an open-loop phase. */
struct Arrival
{
    double dueS = 0.0;       ///< offset from the phase start
    std::uint64_t key = 0;   ///< key in the workload's universe
    bool burst = false;      ///< member of a same-key fresh burst
};

/** Shape of the offered traffic; fixed by the benchmark. */
struct TrafficShape
{
    std::size_t universe = 4 * 4096; ///< distinct steady-state keys
    double zipfS = 1.1;              ///< popularity skew
    double burstShare = 0.01;        ///< arrivals that start a burst
    int burstSize = 4;               ///< requests per burst
};

/**
 * Poisson arrivals at `ratePerS` for `durationS`, keys Zipf-drawn
 * from the universe; a `burstShare` of arrivals are replaced by a
 * burst of `burstSize` simultaneous requests for one fresh key (keys
 * at or above the universe, numbered from `freshBase`). Deterministic
 * in (seed, shape, rate, duration, freshBase).
 */
std::vector<Arrival> poissonSchedule(std::uint64_t seed,
                                     const TrafficShape &shape,
                                     const ZipfSampler &zipf,
                                     double ratePerS, double durationS,
                                     std::uint64_t freshBase);

// ---------------------------------------------------------------------
// The benchmark's own spans

/** One finished benchmark span. */
struct BenchSpan
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    double startS = 0.0;
    double endS = 0.0;
};

/**
 * In-memory span recorder for the benchmark's own calls into each
 * layer. Spans carry a run id; they are written out once, at exit.
 * Recording is off unless enabled, and a disabled Scope costs one
 * branch.
 */
class Trace
{
  public:
    static Trace &global();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setRunId(std::string runId) { runId_ = std::move(runId); }

    /** RAII span around one call. */
    class Scope
    {
      public:
        explicit Scope(const char *name, std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::uint64_t id() const { return span_.id; }

      private:
        bool active_ = false;
        BenchSpan span_;
    };

    /**
     * Record a span that did not start and end on one thread (a
     * request sent by one thread and answered on another).
     */
    void add(const char *name, double startS, double endS,
             std::uint64_t parent);

    std::vector<BenchSpan> spans() const;

    /**
     * Summed self time (duration minus the union of direct children)
     * of every span named `name`, in seconds.
     */
    static double selfS(const std::vector<BenchSpan> &spans,
                        const std::string &name);

    /** Durations of every span named `name`, in seconds. */
    static std::vector<double> durationsS(
        const std::vector<BenchSpan> &spans, const std::string &name);


    /** Write every span as JSONL to `path`; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    Trace() = default;
    static std::uint64_t nextId();
    void record(BenchSpan &&span);

    bool enabled_ = false;
    std::string runId_;
    mutable std::mutex mutex_;
    std::vector<BenchSpan> spans_;
};

/** A wall interval [first, second) on the nowS() clock. */
using Interval = std::pair<double, double>;

/**
 * Run `body` traced: the benchmark's spans and the program's obs
 * collection on, inside a root `bench.window` span whose id `body`
 * parents its spans to.
 */
void runTraced(const std::function<void(std::uint64_t)> &body);

/**
 * trace.coverage_pct: the share of the timed windows' wall time (a
 * pass, a phase, a step) that layer spans cover, in percent. Layer
 * spans sit at a layer's boundary -- never around a whole window -- so
 * a layer that loses its span lowers the figure.
 */
double coveragePct(const std::vector<Interval> &windows,
                   const std::vector<Interval> &layers);

/** Intervals of the benchmark spans whose name is in `names`. */
std::vector<Interval> spanIntervals(const std::vector<BenchSpan> &spans,
                                    const std::vector<std::string> &names);

/**
 * Intervals of the program's obs spans whose name is in `names`,
 * moved from the obs trace clock onto the nowS() clock.
 */
std::vector<Interval> obsIntervals(const std::vector<obs::SpanRecord> &spans,
                                   const std::vector<std::string> &names);

// ---------------------------------------------------------------------
// Run report

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Report
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0; ///< wrong outputs + unexpected statuses
    std::vector<std::string> problems; ///< first few failure reasons
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Workload-specific headline numbers, printed as a table. */
    std::vector<Metric> headline;

    void fail(const std::string &why, std::int64_t count = 1);
    void e2e(const std::string &name, double value,
             const std::string &unit);
    void layer(const std::string &name, double value,
               const std::string &unit);
    void head(const std::string &name, double value,
              const std::string &unit);
};

/** Settings every workload receives from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the trace file and temporary stores. */
    std::string outDir = ".bench_build/out";
};

/**
 * Threads of the process-wide simulation pool, pinned. One thread:
 * on a shared host the two-thread pool's step time spread ~18% from
 * run to run against ~3% serial, too wide for the bounds.
 */
inline constexpr std::size_t kPoolThreads = 1;


/** The mean |measured/paper - 1| over the Fig. 4 anchors, in %. */
double paperErrorPct(Report &report);

Report runSweepCold(const RunOptions &options);
Report runDistGrid(const RunOptions &options);
Report runServeOpen(const RunOptions &options);
Report runTrainResNet(const RunOptions &options);
Report runTrainTransformer(const RunOptions &options);

/** Self-tests of the schedule and percentile helpers; 0 = pass. */
int runSelfTests();

/** Value of the counter `name` in a metric snapshot (0 when absent). */
double counterOf(const std::vector<obs::MetricSnapshot> &metrics,
                 const std::string &name);

/** Median of a small vector (0 when empty). */
double median(std::vector<double> xs);

/**
 * Run `setup` `reps` times and return the median wall time in seconds
 * at the reference host's speed (setup_s); the last repetition's state
 * is what the timed window uses.
 */
double timeSetup(int reps, const std::function<void()> &setup);

} // namespace tbd::perfbench

#endif // TBD_PERFBENCH_BENCH_H
