/**
 * @file
 * Implementation of the training loops.
 *
 * The batch loop is data-parallel over weight-synchronized replicas with
 * a determinism contract (see trainer.hpp): every sample's gradient is
 * computed from a zeroed accumulator and the per-sample gradients are
 * summed into the optimizer in batch order, so a step's numerics do not
 * depend on DOTA_THREADS.
 */
#include "workloads/trainer.hpp"

#include <memory>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace dota {

namespace {

/** Scale every accumulated gradient by 1/batch. */
void
scaleGrads(const std::vector<Parameter *> &params, double inv_batch)
{
    for (Parameter *p : params)
        for (size_t i = 0; i < p->grad.size(); ++i)
            p->grad.data()[i] =
                static_cast<float>(p->grad.data()[i] * inv_batch);
}

void
zeroGrads(const std::vector<Parameter *> &params)
{
    for (Parameter *p : params)
        p->zeroGrad();
}

/** Copy every gradient of @p params into @p out (one Matrix each). */
void
captureGrads(const std::vector<Parameter *> &params,
             std::vector<Matrix> &out)
{
    out.clear();
    out.reserve(params.size());
    for (Parameter *p : params)
        out.push_back(p->grad);
}

/** grad[i] += captured[i]: the fixed-order reduction step. */
void
accumulateGrads(const std::vector<Parameter *> &params,
                const std::vector<Matrix> &captured)
{
    for (size_t i = 0; i < params.size(); ++i) {
        float *dst = params[i]->grad.data();
        const float *src = captured[i].data();
        const size_t sz = captured[i].size();
        for (size_t e = 0; e < sz; ++e)
            dst[e] += src[e];
    }
}

/**
 * Pins the dense attention backend on @p Model while a trainer steps.
 * Every training forward is followed by a backward, which needs S and A
 * cached; an installed hook may otherwise allow a non-dense inference
 * path (a frozen DotaDetector with apply_mask reports wantsFullScores()
 * == false). Dense masked attention equals the sparse path at kept
 * coordinates, so only the cached intermediates change.
 */
template <class Model>
class DenseWhileTraining
{
  public:
    explicit DenseWhileTraining(Model &model) : model_(model)
    {
        model_.setForceDense(true);
    }
    ~DenseWhileTraining() { model_.setForceDense(false); }
    DenseWhileTraining(const DenseWhileTraining &) = delete;
    DenseWhileTraining &operator=(const DenseWhileTraining &) = delete;

  private:
    Model &model_;
};

} // namespace

ClassifierTrainer::ClassifierTrainer(TransformerClassifier &model,
                                     const SyntheticTask &task,
                                     TrainConfig cfg)
    : model_(model), task_(task), cfg_(cfg)
{
    model_.collectParams(params_);
    model_param_count_ = params_.size();
}

void
ClassifierTrainer::addExtraParams(const std::vector<Parameter *> &params)
{
    params_.insert(params_.end(), params.begin(), params.end());
}

double
ClassifierTrainer::train()
{
    const DenseWhileTraining<TransformerClassifier> dense(model_);
    Adam opt(params_, cfg_.adam);
    Rng data_rng(cfg_.data_seed);
    loss_history_.clear();
    StepGuard guard(cfg_.guard);
    CheckpointManager ckpt(cfg_.checkpoint);
    // Resume restores params, Adam moments, the data-stream RNG, the
    // loss history and the guard counters — everything the remaining
    // steps depend on, so the continued trajectory is bit-identical to
    // an uninterrupted run.
    const size_t start_step =
        ckpt.resume(params_, opt, data_rng, loss_history_, guard);
    loss_history_.reserve(cfg_.steps);

    // Replicas carry neither the attention hook nor jointly-trained extra
    // parameters, so those configurations (the adaptation phase) run the
    // batch serially on the primary model; the fixed-order reduction below
    // is shared, keeping both paths thread-count independent.
    const bool replicable = params_.size() == model_param_count_ &&
                            !model_.hasHook() && cfg_.batch > 1;
    const size_t slots =
        replicable ? ThreadPool::globalConcurrency() : 1;
    std::vector<std::unique_ptr<TransformerClassifier>> replicas;
    std::vector<std::vector<Parameter *>> replica_params;
    for (size_t s = 1; s < slots; ++s) {
        replicas.push_back(
            std::make_unique<TransformerClassifier>(model_.config()));
        replica_params.emplace_back();
        replicas.back()->collectParams(replica_params.back());
    }

    double last_loss = loss_history_.empty() ? 0.0 : loss_history_.back();
    std::vector<Sample> batch(cfg_.batch);
    std::vector<std::vector<Matrix>> sample_grads(cfg_.batch);
    std::vector<double> sample_loss(cfg_.batch, 0.0);
    for (size_t step = start_step; step < cfg_.steps; ++step) {
        // Draw the whole batch serially: the data stream is identical to
        // the historical one for every thread count.
        for (size_t b = 0; b < cfg_.batch; ++b)
            batch[b] = task_.sample(data_rng);
        for (auto &rep : replicas)
            copyParams(model_, *rep);
        auto runRange = [&](size_t b0, size_t b1) {
            const int slot = ThreadPool::slot();
            TransformerClassifier *m =
                slot == 0 ? &model_ : replicas[slot - 1].get();
            const std::vector<Parameter *> &ps =
                slot == 0 ? params_ : replica_params[slot - 1];
            for (size_t b = b0; b < b1; ++b) {
                zeroGrads(ps);
                const Matrix logits = m->forward(batch[b].features);
                Matrix dlogits;
                sample_loss[b] = softmaxCrossEntropy(
                    logits, {batch[b].label}, dlogits);
                m->backward(dlogits);
                captureGrads(ps, sample_grads[b]);
            }
        };
        if (slots == 1)
            runRange(0, cfg_.batch);
        else
            parallelFor(0, cfg_.batch, 1, runRange);
        // Fixed-order reduction: per-sample gradients summed in batch
        // order regardless of which thread produced them.
        opt.zeroGrad();
        double loss_sum = 0.0;
        for (size_t b = 0; b < cfg_.batch; ++b) {
            loss_sum += sample_loss[b];
            accumulateGrads(params_, sample_grads[b]);
        }
        scaleGrads(params_, 1.0 / static_cast<double>(cfg_.batch));
        if (grad_cb_)
            grad_cb_(step, params_);
        last_loss = loss_sum / static_cast<double>(cfg_.batch);
        // Guard rail: a non-finite loss or gradient withholds the
        // update (params and moments keep pre-step values).
        if (!guard.shouldSkip(last_loss, params_)) {
            opt.step();
            guard.afterStep(opt);
        }
        loss_history_.push_back(last_loss);
        if (step_cb_)
            step_cb_(step);
        if (cfg_.verbose && (step + 1) % cfg_.log_every == 0)
            inform("step {}/{} loss {}", step + 1, cfg_.steps, last_loss);
        ckpt.onStepComplete(step + 1, params_, opt, data_rng,
                            loss_history_, guard);
        if (cfg_.halt_after_step > 0 && step + 1 >= cfg_.halt_after_step)
            break; // simulated preemption (tests)
    }
    guard_stats_ = guard.stats();
    return last_loss;
}

EvalResult
ClassifierTrainer::evaluate(size_t samples, uint64_t seed) const
{
    Rng eval_rng(seed);
    size_t hits = 0;
    double loss_sum = 0.0;
    for (size_t i = 0; i < samples; ++i) {
        const Sample s = task_.sample(eval_rng);
        const Matrix logits = model_.forward(s.features);
        Matrix dlogits;
        loss_sum += softmaxCrossEntropy(logits, {s.label}, dlogits);
        hits += rowArgmax(logits)[0] == s.label;
    }
    EvalResult res;
    res.metric = static_cast<double>(hits) / static_cast<double>(samples);
    res.loss = loss_sum / static_cast<double>(samples);
    return res;
}

LMTrainer::LMTrainer(CausalLM &model, const SyntheticGrammar &grammar,
                     TrainConfig cfg)
    : model_(model), grammar_(grammar), cfg_(cfg)
{
    model_.collectParams(params_);
    model_param_count_ = params_.size();
}

void
LMTrainer::addExtraParams(const std::vector<Parameter *> &params)
{
    params_.insert(params_.end(), params.begin(), params.end());
}

double
LMTrainer::train()
{
    const DenseWhileTraining<CausalLM> dense(model_);
    Adam opt(params_, cfg_.adam);
    Rng data_rng(cfg_.data_seed);
    loss_history_.clear();
    StepGuard guard(cfg_.guard);
    CheckpointManager ckpt(cfg_.checkpoint);
    const size_t start_step =
        ckpt.resume(params_, opt, data_rng, loss_history_, guard);
    loss_history_.reserve(cfg_.steps);

    const bool replicable = params_.size() == model_param_count_ &&
                            !model_.hasHook() && cfg_.batch > 1;
    const size_t slots =
        replicable ? ThreadPool::globalConcurrency() : 1;
    std::vector<std::unique_ptr<CausalLM>> replicas;
    std::vector<std::vector<Parameter *>> replica_params;
    for (size_t s = 1; s < slots; ++s) {
        replicas.push_back(std::make_unique<CausalLM>(model_.config()));
        replica_params.emplace_back();
        replicas.back()->collectParams(replica_params.back());
    }

    double last_loss = loss_history_.empty() ? 0.0 : loss_history_.back();
    std::vector<std::vector<int>> batch(cfg_.batch);
    std::vector<std::vector<Matrix>> sample_grads(cfg_.batch);
    std::vector<double> sample_loss(cfg_.batch, 0.0);
    for (size_t step = start_step; step < cfg_.steps; ++step) {
        for (size_t b = 0; b < cfg_.batch; ++b)
            batch[b] = grammar_.sample(data_rng);
        for (auto &rep : replicas)
            copyParams(model_, *rep);
        auto runRange = [&](size_t b0, size_t b1) {
            const int slot = ThreadPool::slot();
            CausalLM *m = slot == 0 ? &model_ : replicas[slot - 1].get();
            const std::vector<Parameter *> &ps =
                slot == 0 ? params_ : replica_params[slot - 1];
            for (size_t b = b0; b < b1; ++b) {
                zeroGrads(ps);
                sample_loss[b] = m->lmLoss(batch[b], true);
                captureGrads(ps, sample_grads[b]);
            }
        };
        if (slots == 1)
            runRange(0, cfg_.batch);
        else
            parallelFor(0, cfg_.batch, 1, runRange);
        opt.zeroGrad();
        double loss_sum = 0.0;
        for (size_t b = 0; b < cfg_.batch; ++b) {
            loss_sum += sample_loss[b];
            accumulateGrads(params_, sample_grads[b]);
        }
        scaleGrads(params_, 1.0 / static_cast<double>(cfg_.batch));
        if (grad_cb_)
            grad_cb_(step, params_);
        last_loss = loss_sum / static_cast<double>(cfg_.batch);
        if (!guard.shouldSkip(last_loss, params_)) {
            opt.step();
            guard.afterStep(opt);
        }
        loss_history_.push_back(last_loss);
        if (cfg_.verbose && (step + 1) % cfg_.log_every == 0)
            inform("LM step {}/{} loss {}", step + 1, cfg_.steps,
                   last_loss);
        ckpt.onStepComplete(step + 1, params_, opt, data_rng,
                            loss_history_, guard);
        if (cfg_.halt_after_step > 0 && step + 1 >= cfg_.halt_after_step)
            break; // simulated preemption (tests)
    }
    guard_stats_ = guard.stats();
    return last_loss;
}

EvalResult
LMTrainer::evaluate(size_t samples, uint64_t seed) const
{
    Rng eval_rng(seed);
    double loss_sum = 0.0;
    for (size_t i = 0; i < samples; ++i)
        loss_sum += model_.lmLoss(grammar_.sample(eval_rng), false);
    EvalResult res;
    res.loss = loss_sum / static_cast<double>(samples);
    res.metric = perplexityFromLoss(res.loss);
    return res;
}

} // namespace dota
