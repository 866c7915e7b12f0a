/**
 * @file
 * Integration tests: the full algorithm-to-architecture chain — train a
 * tiny model with the detector, harvest its masks, schedule them, and
 * feed the dataflow statistics into the accelerator simulator.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/dota.hpp"

namespace dota {
namespace {

TEST(Integration, TrainDetectScheduleSimulate)
{
    // 1. Train a tiny classifier on a synthetic task (short budget).
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 17;
    TransformerClassifier model(mc);

    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 12;
    tc.classes = 2;
    tc.signal_count = 4;
    SyntheticTask task(tc);

    TrainConfig trc;
    trc.steps = 40;
    trc.batch = 4;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    // 2. Install a detector and select masks at 25% retention.
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.train = false;
    DotaDetector det(mc, dc);
    model.setHook(&det);
    Rng rng(201);
    model.forward(task.sample(rng).features);
    const auto masks = harvestMasks(model);
    model.setHook(nullptr);
    ASSERT_EQ(masks.size(), 4u);
    for (const auto &m : masks) {
        EXPECT_TRUE(m.rowBalanced());
        EXPECT_NEAR(m.density(), 0.25, 0.01);
    }

    // 3. Schedule a harvested mask and check the dataflow ordering.
    const auto ooo =
        analyzeDataflow(masks[0], Dataflow::TokenParallelOoO, 4);
    const auto rbr = analyzeDataflow(masks[0], Dataflow::RowByRow);
    EXPECT_LT(ooo.key_loads, rbr.key_loads); // reuse on a real mask
    EXPECT_EQ(ooo.connections, masks[0].nnz());

    // 4. Feed the real mask into the accelerator simulator via a
    //    matching benchmark shape.
    Benchmark tiny = benchmark(BenchmarkId::Text);
    tiny.paper_shape = ModelShape{2, 32, 2, 64, 32, false};
    tiny.retention_conservative = 0.25;
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Conservative;
    const RunReport sparse = acc.simulateWithMask(tiny, opt, masks[0]);
    opt.mode = DotaMode::Full;
    const RunReport full = acc.simulateWithMask(tiny, opt, SparseMask());
    EXPECT_LT(sparse.per_layer.attention.macs,
              full.per_layer.attention.macs);
    EXPECT_GT(sparse.totalCycles(), 0u);
}

/** Frozen inference detector: masks applied, no detector training. */
DetectorConfig
frozenDetector()
{
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.train = false;
    dc.apply_mask = true;
    return dc;
}

TEST(Integration, FrozenDetectorTrainingStepRunsDense)
{
    // A frozen detector reports wantsFullScores() == false, so an
    // inference forward under it takes the sparse backend. A training
    // step must still take the dense path its backward needs (the
    // "no joint optimization" ablation of bench_fig11_accuracy), and
    // release the pin afterwards.
    ScopedAttnChoice pin(AttnChoice::Auto);
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 31;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 12;
    tc.classes = 2;
    SyntheticTask task(tc);
    DotaDetector det(mc, frozenDetector());
    model.setHook(&det);

    TrainConfig trc;
    trc.steps = 1;
    trc.batch = 2;
    ClassifierTrainer trainer(model, task, trc);
    const MultiHeadAttention &attn = model.blocks()[0]->attention();
    const Matrix w_before = attn.wq();
    EXPECT_TRUE(std::isfinite(trainer.train()));
    EXPECT_GT(Matrix::maxAbsDiff(w_before, attn.wq()), 0.0);

    Rng rng(5);
    model.forward(task.sample(rng).features);
    EXPECT_TRUE(attn.lastForwardSparse());
    model.setHook(nullptr);
}

TEST(Integration, FrozenDetectorLmTrainingStepRunsDense)
{
    ScopedAttnChoice pin(AttnChoice::Auto);
    TransformerConfig mc;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.vocab = 32;
    mc.max_seq = 40;
    mc.seed = 37;
    CausalLM model(mc);
    GrammarConfig gc;
    gc.seq_len = 32;
    gc.vocab = 32;
    SyntheticGrammar grammar(gc);
    DotaDetector det(mc, frozenDetector());
    model.setHook(&det);

    TrainConfig trc;
    trc.steps = 1;
    trc.batch = 2;
    LMTrainer trainer(model, grammar, trc);
    EXPECT_TRUE(std::isfinite(trainer.train()));

    Rng rng(6);
    model.forward(grammar.sample(rng));
    EXPECT_TRUE(model.blocks()[0]->attention().lastForwardSparse());
    model.setHook(nullptr);
}

TEST(Integration, JointTrainingKeepsAccuracyAtLowRetention)
{
    // A compressed version of the paper's core claim (Table 1 /
    // Figure 11): with detection + adaptation, 25% retention stays close
    // to the dense baseline on an easy task.
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 23;
    TransformerClassifier model(mc);

    TaskConfig tc;
    tc.seq_len = 48;
    tc.in_dim = 12;
    tc.classes = 2;
    tc.signal_count = 5;
    tc.seed = 29;
    SyntheticTask task(tc);

    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.lambda = 1e-3;
    DotaDetector det(mc, dc);

    PipelineConfig pc;
    pc.pretrain.steps = 80;
    pc.warmup_steps = 30;
    pc.adapt.steps = 60;
    const PipelineResult res = runPipeline(model, task, det, pc);
    EXPECT_GT(res.dense.metric, 0.9);
    EXPECT_GT(res.sparse.metric, res.dense.metric - 0.15);
    model.setHook(nullptr);
}

TEST(Integration, OracleBeatsElsaBeatsRandomOnTrainedModel)
{
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 31;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 40;
    tc.in_dim = 12;
    tc.classes = 2;
    SyntheticTask task(tc);
    TrainConfig trc;
    trc.steps = 30;
    trc.batch = 4;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    OracleDetector oracle(0.2);
    const auto q_oracle = evaluateDetection(model, task, oracle, 3, 0.2);
    ElsaDetectorConfig ec;
    ec.retention = 0.2;
    ec.hash_bits = 64;
    ElsaDetector elsa(ec);
    const auto q_elsa = evaluateDetection(model, task, elsa, 3, 0.2);
    EXPECT_GT(q_oracle.recall, q_elsa.recall);
    EXPECT_GT(q_oracle.mass_recall, q_elsa.mass_recall);
    EXPECT_GT(q_elsa.mass_recall, 0.2); // better than uniform share
}

} // namespace
} // namespace dota
