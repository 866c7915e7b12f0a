/**
 * @file
 * train_joint: LMTrainer on the LM benchmark's tiny proxy and grammar
 * with a training-mode DotaDetector installed (the joint optimisation
 * of Section 3.2), batch 8; and the per-layer probes of one training
 * step (forward, backward, Adam, the detector's score hooks).
 */
#include <cmath>
#include <memory>

#include "detect/detector.hpp"
#include "lm.hpp"
#include "nn/loss.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/trainer.hpp"

namespace perfbench {

using namespace dota;

namespace {

constexpr size_t kSteps = 40;  ///< optimizer steps per training session
constexpr size_t kBatch = 8;
constexpr size_t kWindow = 10; ///< loss window of the convergence check

struct TrainModel
{
    std::unique_ptr<SyntheticGrammar> grammar;
    std::unique_ptr<CausalLM> model;
    std::unique_ptr<DotaDetector> det;
    double baseline_loss = 0.0;
};

/** Grammar, tiny LM, training detector and a baseline held-out loss. */
TrainModel
setUp()
{
    const Benchmark &b = benchmark(BenchmarkId::LM);
    TrainModel s;
    s.grammar = std::make_unique<SyntheticGrammar>(proxyGrammarFor(b));
    s.model = std::make_unique<CausalLM>(b.tiny);
    DetectorConfig dc;
    dc.sigma = b.tiny_sigma;
    dc.retention = b.retention_conservative;
    dc.train = true;
    s.det = std::make_unique<DotaDetector>(b.tiny, dc);
    s.model->setHook(s.det.get());
    Rng held_out(4242);
    for (int i = 0; i < 8; ++i)
        s.baseline_loss += s.model->lmLoss(s.grammar->sample(held_out), false);
    s.baseline_loss /= 8.0;
    s.det->consumeMseLoss();
    return s;
}

std::vector<Parameter *>
paramsOf(Module &m)
{
    std::vector<Parameter *> ps;
    m.collectParams(ps);
    return ps;
}

double
mean(const std::vector<double> &v, size_t from, size_t to)
{
    double s = 0.0;
    for (size_t i = from; i < to; ++i)
        s += v[i];
    return s / static_cast<double>(to - from);
}

} // namespace

RunResult
runTrain(const Options &opt, Tracer &tr)
{
    RunResult r;
    r.item = "sequence";
    r.round = "one optimizer step of 8 sequences (median over sessions)";

    {
        // Warm-up (untimed): a few steps of a throw-away session.
        TrainModel w = setUp();
        TrainConfig tc;
        tc.steps = 5;
        tc.batch = kBatch;
        tc.data_seed = opt.seed;
        LMTrainer warm(*w.model, *w.grammar, tc);
        warm.addExtraParams(paramsOf(*w.det));
        warm.train();
    }

    std::vector<double> all_steps_ms;
    std::vector<std::vector<double>> session_steps_ms;
    Budget budget(opt.seconds);
    bool training = true;
    for (uint64_t session = 0; training || r.setup_s.size() < opt.setups;
         ++session) {
        training = training && budget.next(session);
        TrainModel s;
        r.setup_s.push_back(timeSeconds([&] {
            Tracer::Scope span(tr, "setup.train");
            s = setUp();
        }));
        if (!training)
            continue; // set-up samples only
        TimingHook timing(*s.det, tr);
        if (tr.enabled())
            s.model->setHook(&timing);

        TrainConfig tc;
        tc.steps = kSteps;
        tc.batch = kBatch;
        tc.data_seed = opt.seed;
        LMTrainer trainer(*s.model, *s.grammar, tc);
        trainer.addExtraParams(paramsOf(*s.det));
        std::vector<double> marks;
        trainer.setGradCallback(
            [&](size_t, const std::vector<Parameter *> &) {
                marks.push_back(nowSeconds());
            });
        const double t0 = nowSeconds();
        {
            Tracer::Scope span(tr, "workloads.trainer.train", session);
            trainer.train();
        }
        const double t1 = nowSeconds();
        // Step boundaries: each gradient callback ends a step's forward
        // and backward; the interval also holds the previous Adam step.
        std::vector<double> steps_ms;
        double prev = t0;
        for (double m : marks) {
            steps_ms.push_back((m - prev) * 1e3);
            prev = m;
        }
        all_steps_ms.insert(all_steps_ms.end(), steps_ms.begin(),
                            steps_ms.end());
        session_steps_ms.push_back(std::move(steps_ms));
        r.measured_s += t1 - t0;
        r.items += static_cast<double>(kSteps * kBatch);

        const std::vector<double> &loss = trainer.lossHistory();
        bool finite = loss.size() == kSteps;
        for (double l : loss)
            finite = finite && std::isfinite(l);
        r.check(finite, "train: every loss is finite");
        r.check(finite && mean(loss, kSteps - kWindow, kSteps) <
                              mean(loss, 0, kWindow),
                "train: final-window mean loss below the first window's");
        r.outputs.push_back(
            fingerprint(loss.data(), loss.size() * sizeof(double)));
    }
    r.round_ms = medianAcross(session_steps_ms);
    const double step_ms = percentile(all_steps_ms, 0.5);
    r.detail["train_seq_s"] = {r.items / r.measured_s, "seq/s",
                               all_steps_ms.size(),
                               "sequences / training time"};
    r.detail["workloads.trainer.step_ms.p50"] = {
        step_ms, "ms", all_steps_ms.size(),
        "gradient-callback step boundaries"};
    return r;
}

void
probeTrainLayers(const Options &opt, Tracer &tr, MetricMap &out)
{
    TrainModel s = setUp();
    TimingHook timing(*s.det, tr);
    s.model->setHook(&timing);
    std::vector<Parameter *> params = paramsOf(*s.model);
    for (Parameter *p : paramsOf(*s.det))
        params.push_back(p);
    Adam adam(params);

    Rng data(opt.seed);
    std::vector<double> fwd_ms, bwd_ms, adam_ms;
    const size_t first_span = tr.spans().size();
    for (size_t step = 0; step < 4; ++step) {
        adam.zeroGrad();
        for (size_t b = 0; b < kBatch; ++b) {
            const std::vector<int> ids = s.grammar->sample(data);
            Matrix logits, dlogits;
            fwd_ms.push_back(1e3 * timeSeconds([&] {
                Tracer::Scope span(tr, "nn.lm_forward.train");
                logits = s.model->forward(ids);
            }));
            std::vector<int> targets(ids.size(), -1);
            for (size_t i = 0; i + 1 < ids.size(); ++i)
                targets[i] = ids[i + 1];
            softmaxCrossEntropy(logits, targets, dlogits);
            bwd_ms.push_back(1e3 * timeSeconds([&] {
                Tracer::Scope span(tr, "nn.lm_backward.train");
                s.model->backward(dlogits);
            }));
        }
        adam_ms.push_back(1e3 * timeSeconds([&] {
            Tracer::Scope span(tr, "nn.adam_step");
            adam.step();
        }));
    }
    std::vector<double> observe_ms, grad_ms;
    for (size_t i = first_span; i < tr.spans().size(); ++i) {
        const Span &sp = tr.spans()[i];
        if (sp.name == "detect.observe_scores")
            observe_ms.push_back((sp.end_us - sp.start_us) / 1e3);
        else if (sp.name == "detect.score_grad")
            grad_ms.push_back((sp.end_us - sp.start_us) / 1e3);
    }
    const auto put = [&](const char *name, const std::vector<double> &v,
                         const char *note) {
        out[name] = {percentile(v, 0.5), "ms", v.size(), note};
    };
    put("nn.lm_forward_ms.train", fwd_ms, "median per sequence");
    put("nn.lm_backward_ms.train", bwd_ms, "median per sequence");
    put("nn.adam_step_ms", adam_ms, "median per step");
    put("detect.observe_scores_ms", observe_ms, "median per head call");
    put("detect.score_grad_ms", grad_ms, "median per head call");
}

} // namespace perfbench
