/**
 * @file
 * Self-tests of the benchmark's own helpers, run before every
 * measurement (and alone with --self-test): the open-loop schedule is
 * a function of the seed, and the percentile helper reports the median
 * plus the highest ladder percentile with at least ten samples beyond.
 */

#include <cmath>
#include <cstdio>

#include "bench.h"

namespace tbd::perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
        ++failures;
    }
}

bool
sameSchedule(const std::vector<Arrival> &a, const std::vector<Arrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].dueS != b[i].dueS || a[i].key != b[i].key ||
            a[i].burst != b[i].burst)
            return false;
    return true;
}

void
testScheduleDeterminism()
{
    const TrafficShape shape;
    const ZipfSampler zipf(shape.universe, shape.zipfS);
    const auto a = poissonSchedule(7, shape, zipf, 500.0, 2.0, 1u << 30);
    const auto b = poissonSchedule(7, shape, zipf, 500.0, 2.0, 1u << 30);
    const auto c = poissonSchedule(8, shape, zipf, 500.0, 2.0, 1u << 30);
    expect(!a.empty(), "schedule is empty");
    expect(sameSchedule(a, b), "same seed gave different schedules");
    expect(!sameSchedule(a, c), "different seeds gave one schedule");

    // Poisson: about rate x duration arrivals, in due order, all inside
    // the window; bursts share one fresh key above the universe.
    std::size_t starts = 0;
    bool ordered = true, keys_ok = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0 && a[i].dueS < a[i - 1].dueS)
            ordered = false;
        if (a[i].dueS < 0.0 || a[i].dueS >= 2.0)
            ordered = false;
        if (a[i].burst != (a[i].key >= (1u << 30)))
            keys_ok = false;
        if (!a[i].burst || i == 0 || a[i - 1].key != a[i].key)
            ++starts;
    }
    expect(ordered, "arrivals out of order or outside the window");
    expect(keys_ok, "burst keys overlap the steady-state universe");
    expect(std::abs(static_cast<double>(starts) - 1000.0) < 150.0,
           "arrival count far from rate x duration");
}

void
testZipf()
{
    const ZipfSampler zipf(100, 1.0);
    expect(zipf.rank(0.0) == 0, "Zipf rank(0) is not the top rank");
    expect(zipf.rank(0.999999999) == 99, "Zipf rank(~1) is not the last");
    // Rank 0 carries 1/H(100) ~ 19.3% of the mass.
    expect(zipf.rank(0.19) == 0 && zipf.rank(0.20) == 1,
           "Zipf head mass is wrong");
}

void
testSummarize()
{
    auto ramp = [](std::size_t n) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(static_cast<double>(n - i)); // unsorted input
        return xs;
    };
    const Summary empty = summarize({});
    expect(empty.n == 0 && empty.p50 == 0.0, "empty summary not zero");

    const Summary s1000 = summarize(ramp(1000));
    expect(s1000.n == 1000, "sample count wrong");
    expect(s1000.tailPct == 99.0, "1000 samples should give p99");
    expect(std::abs(s1000.p50 - 500.5) < 1e-9, "median of 1..1000");

    // 10000 samples: 10 beyond p99.9 qualifies.
    expect(summarize(ramp(10000)).tailPct == 99.9,
           "10000 samples should give p99.9");
    // 999 samples: p99 has 9.99 beyond, so p95 is the tail.
    expect(summarize(ramp(999)).tailPct == 95.0,
           "999 samples should give p95");
    expect(summarize(ramp(100)).tailPct == 90.0,
           "100 samples should give p90");
    // 39 samples: even p75 has fewer than ten beyond.
    const Summary s39 = summarize(ramp(39));
    expect(s39.tailPct == 50.0 && s39.tail == s39.p50,
           "39 samples should fall back to the median");
}

} // namespace

int
runSelfTests()
{
    failures = 0;
    testScheduleDeterminism();
    testZipf();
    testSummarize();
    return failures == 0 ? 0 : 1;
}

} // namespace tbd::perfbench
