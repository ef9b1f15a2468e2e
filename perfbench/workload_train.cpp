/**
 * @file
 * `train-resnet` and `train-transformer`: closed loops of functional
 * training steps with SgdMomentum on a tiny ResNet (conv-heavy) and a
 * tiny Transformer (GEMM/attention-heavy), on synthetic data drawn
 * from the seed. Each model is its own workload, so a kernel change
 * that helps one and hurts the other is gated on both.
 */

#include <cmath>
#include <cstring>
#include <memory>

#include "bench.h"
#include "data/synthetic.h"
#include "engine/fusion.h"
#include "engine/session.h"
#include "layers/loss.h"
#include "models/functional.h"
#include "obs/obs.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace tbd::perfbench {

namespace {

constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kImage = 16;
constexpr std::int64_t kVocab = 16;
constexpr std::int64_t kSeqLen = 12;
/** Steps per model whose losses the scalar tier must reproduce. */
constexpr int kCheckedSteps = 3;

/** One model under training: network, optimizer, data and loss. */
struct Trainer
{
    virtual ~Trainer() = default;
    Trainer() = default;
    Trainer(const Trainer &) = delete;
    Trainer &operator=(const Trainer &) = delete;

    /** Next mini-batch (input plus the loss closure's targets). */
    virtual void nextBatch() = 0;
    virtual const tensor::Tensor &input() const = 0;
    virtual tensor::Tensor loss(const tensor::Tensor &out,
                                engine::StepResult &r) = 0;

    /**
     * One training step on the current batch: Session::step's
     * sequence, called at the engine's public functions so each can
     * carry a span (a disabled span costs one branch).
     */
    double step(std::uint64_t parent)
    {
        net->zeroGrads();
        tensor::Tensor out;
        {
            Trace::Scope span("engine.forward", parent);
            out = net->forward(input(), /*training=*/true);
        }
        engine::StepResult r;
        tensor::Tensor dout;
        {
            Trace::Scope span("layers.loss", parent);
            dout = loss(out, r);
        }
        {
            Trace::Scope span("engine.backward", parent);
            net->backward(dout);
        }
        {
            Trace::Scope span("engine.optimizer", parent);
            optimizer->step(net->params());
        }
        return r.loss;
    }

    std::unique_ptr<engine::Network> net;
    std::unique_ptr<engine::SgdMomentum> optimizer;
};

struct ResNetTrainer : Trainer
{
    ResNetTrainer(std::uint64_t seed) : data(kClasses, 3, kImage, seed)
    {
        util::Rng rng(seed);
        net = std::make_unique<engine::Network>(
            models::buildTinyResNet(rng, kClasses, 3, kImage));
        optimizer = std::make_unique<engine::SgdMomentum>(0.05f, 0.9f);
    }
    void nextBatch() override { batch = data.nextBatch(kBatch); }
    const tensor::Tensor &input() const override { return batch.images; }
    tensor::Tensor loss(const tensor::Tensor &out,
                        engine::StepResult &r) override
    {
        r.loss = ce.forward(out, batch.labels);
        return ce.backward();
    }

    data::SyntheticImages data;
    data::ImageBatch batch;
    layers::SoftmaxCrossEntropy ce;
};

struct TransformerTrainer : Trainer
{
    TransformerTrainer(std::uint64_t seed) : data(kVocab, kSeqLen, seed)
    {
        util::Rng rng(seed ^ 0x7f4a7c15ULL);
        net = std::make_unique<engine::Network>(
            models::buildTinyTransformer(rng, kVocab, 32, 2, 2));
        optimizer = std::make_unique<engine::SgdMomentum>(0.05f, 0.9f);
    }
    void nextBatch() override
    {
        batch = data.nextBatch(kBatch);
        flat.clear();
        for (const auto &ids : batch.tgtIds)
            flat.insert(flat.end(), ids.begin(), ids.end());
    }
    const tensor::Tensor &input() const override { return batch.src; }
    tensor::Tensor loss(const tensor::Tensor &out,
                        engine::StepResult &r) override
    {
        const tensor::Tensor logits =
            out.reshaped(tensor::Shape{kBatch * kSeqLen, kVocab});
        r.loss = ce.forward(logits, flat);
        return ce.backward().reshaped(out.shape());
    }

    data::SyntheticTranslation data;
    data::SequenceBatch batch;
    std::vector<std::int64_t> flat;
    layers::SoftmaxCrossEntropy ce;
};

/** Which model a train workload steps. */
enum class Model { ResNet, Transformer };

std::unique_ptr<Trainer>
makeTrainer(Model model, std::uint64_t seed)
{
    if (model == Model::ResNet)
        return std::make_unique<ResNetTrainer>(seed);
    return std::make_unique<TransformerTrainer>(seed * 0x9e3779b97f4a7c15ULL +
                                                1);
}

/** The first kCheckedSteps losses of a fresh trainer. */
std::vector<double>
firstLosses(Trainer &trainer)
{
    std::vector<double> losses;
    for (int i = 0; i < kCheckedSteps; ++i) {
        trainer.nextBatch();
        losses.push_back(trainer.step(0));
    }
    return losses;
}

/** Engine layers the traced steps time; train.<model> wraps them. */
const std::vector<std::string> kEngineSpans = {
    "engine.forward", "layers.loss", "engine.backward", "engine.optimizer",
};

Report
runTrain(Model model, const RunOptions &options)
{
    const char *name = model == Model::ResNet ? "resnet" : "transformer";
    const std::string step_span = std::string("train.") + name;
    Report report;
    std::unique_ptr<Trainer> trainer;
    std::vector<double> fast_losses;

    const double setup_s = timeSetup(9, [&] {
        trainer.reset();
        trainer = makeTrainer(model, options.seed);
        // The first steps warm the arena and build the fusion plans;
        // their losses are the ones the scalar tier must reproduce.
        fast_losses = firstLosses(*trainer);
    });

    // One iteration is one step; its batch is drawn untimed.
    std::vector<double> step_s;
    std::vector<Interval> windows;
    auto iterate = [&](std::uint64_t parent) {
        {
            Trace::Scope span("data.synthetic", parent);
            trainer->nextBatch();
        }
        double loss;
        const double t0 = nowS();
        {
            Trace::Scope span(step_span.c_str(), parent);
            loss = trainer->step(span.id());
        }
        const double t1 = nowS();
        step_s.push_back(t1 - t0);
        if (parent != 0)
            windows.emplace_back(t0, t1);
        report.attempted += 1;
        if (!std::isfinite(loss))
            report.fail("training loss is not finite");
    };

    const double batch = static_cast<double>(kBatch);
    if (!options.trace) {
        // Each step sits between two host-speed calibrations; the
        // gated figures are at the reference host's speed.
        std::vector<double> scaled, cal;
        double cal_before = calibrateS();
        const double deadline = nowS() + options.seconds;
        while (step_s.size() < 40 || nowS() < deadline) {
            iterate(0);
            const double cal_after = calibrateS();
            scaled.push_back(
                atReferenceSpeed(step_s.back(), cal_before, cal_after));
            cal.push_back(cal_after);
            cal_before = cal_after;
        }
        const double scaled_p50 = median(scaled);
        report.e2e("rate_per_s", batch / scaled_p50, "1/s");
        report.e2e("latency_ms", scaled_p50 * 1e3, "ms");
        const Summary s = summarize(step_s);
        report.head("train." + std::string(name) + ".samples_per_s",
                    batch / s.p50, "1/s");
        report.head("train.p50_ms", s.p50 * 1e3, "ms");
        report.head("host.cal_ms", median(cal) * 1e3, "ms");
        report.head("train.steps", static_cast<double>(s.n), "count");
        report.head("train.tail_ms", s.tail * 1e3, "ms");
        report.head("train.tail_pct", s.tailPct, "pct");
    } else {
        // Steps alternate between untraced and traced (the engine
        // spans and obs collection on), so both sides sample the same
        // host time.
        obs::resetAll();
        std::vector<double> untraced, traced;
        const double deadline = nowS() + options.seconds;
        for (std::size_t i = 0; traced.size() < 20 || nowS() < deadline;
             ++i) {
            if (i % 2 == 0) {
                iterate(0);
                untraced.push_back(step_s.back());
                continue;
            }
            runTraced([&](std::uint64_t window) { iterate(window); });
            traced.push_back(step_s.back());
        }
        const auto metrics = obs::dumpTrace().metrics;
        const double steps = static_cast<double>(traced.size());
        // Self time per traced step.
        const std::vector<BenchSpan> spans = Trace::global().spans();
        for (const char *layer :
             {"engine.forward", "engine.backward", "engine.optimizer"})
            report.layer(std::string(layer) + "_ms",
                         Trace::selfS(spans, layer) * 1e3 / steps, "ms");
        const double hit = counterOf(metrics, "engine.fusion.hit");
        const double miss = counterOf(metrics, "engine.fusion.miss");
        report.layer("engine.fusion.hit_ratio",
                     hit + miss > 0 ? hit / (hit + miss) : 0.0, "ratio");
        report.layer("tensor.simd.fallback",
                     counterOf(metrics, "engine.simd.fallback"), "count");
        report.layer("util.arena.bytes_per_step",
                     counterOf(metrics, "util.arena.bytes") / steps,
                     "bytes");
        report.layer("obs.overhead_pct",
                     100.0 * (median(traced) / median(untraced) - 1.0), "%");
        report.layer("trace.coverage_pct",
                     coveragePct(windows, spanIntervals(spans, kEngineSpans)),
                     "%");
    }
    const double rss_mb = peakRssMb();

    // Output check: the scalar tier with fusion off must reproduce the
    // first losses bitwise.
    tensor::simd::setSimdEnabled(false);
    engine::setFusionEnabled(false);
    const std::vector<double> scalar_losses =
        firstLosses(*makeTrainer(model, options.seed));
    tensor::simd::setSimdEnabled(std::nullopt);
    engine::setFusionEnabled(std::nullopt);
    report.attempted += static_cast<std::int64_t>(scalar_losses.size());
    for (std::size_t i = 0; i < scalar_losses.size(); ++i)
        if (std::memcmp(&scalar_losses[i], &fast_losses[i],
                        sizeof(double)) != 0)
            report.fail("loss of checked step " + std::to_string(i) +
                        " differs from the scalar tier");

    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", rss_mb, "MB");
    return report;
}

} // namespace

Report
runTrainResNet(const RunOptions &options)
{
    return runTrain(Model::ResNet, options);
}

Report
runTrainTransformer(const RunOptions &options)
{
    return runTrain(Model::Transformer, options);
}

} // namespace tbd::perfbench
