/**
 * @file
 * Property tests for the parallel-execution determinism contract: GEMMs,
 * the row-parallel softmax/GELU/LayerNorm/top-k kernels, the fused
 * detector select, the int8 attention paths, incremental decode, trainer
 * gradient steps and fleet dispatch must be bit-identical at
 * DOTA_THREADS=1 and DOTA_THREADS=8 (DESIGN.md, "Parallel execution").
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <tuple>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "detect/detector.hpp"
#include "device/fleet.hpp"
#include "nn/attention_backend.hpp"
#include "nn/decode.hpp"
#include "nn/int8_infer.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/topk.hpp"
#include "workloads/trainer.hpp"

namespace dota {
namespace {

/** Pin the global pool to @p n threads for one scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t n)
        : prev_(ThreadPool::globalConcurrency())
    {
        ThreadPool::setGlobalConcurrency(n);
    }
    ~ScopedThreads() { ThreadPool::setGlobalConcurrency(prev_); }

  private:
    size_t prev_;
};

/** Bitwise equality of two matrices (exact, not allClose). */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

/** Run @p fn at 1 thread and at 8 threads; return both results. */
template <typename Fn>
auto
atBothThreadCounts(Fn fn)
{
    ScopedThreads serial(1);
    auto a = fn();
    ScopedThreads parallel(8);
    auto b = fn();
    return std::make_pair(std::move(a), std::move(b));
}

TEST(ParallelDeterminism, MatmulBitIdenticalAcrossRandomShapes)
{
    Rng shape_rng(2024);
    for (int trial = 0; trial < 12; ++trial) {
        // Mix shapes below and well above the parallel threshold.
        const size_t m = 1 + shape_rng.uniformInt(160);
        const size_t k = 1 + shape_rng.uniformInt(160);
        const size_t n = 1 + shape_rng.uniformInt(160);
        Rng data_rng(100 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmul(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmul " << m << "x" << k << "x" << n;
    }
    // One shape guaranteed deep inside the parallel regime.
    Rng data_rng(7);
    const Matrix a = Matrix::randomNormal(192, 96, data_rng);
    const Matrix b = Matrix::randomNormal(96, 192, data_rng);
    auto [serial, parallel] =
        atBothThreadCounts([&] { return matmul(a, b); });
    EXPECT_TRUE(bitIdentical(serial, parallel));
}

TEST(ParallelDeterminism, MatmulBTBitIdentical)
{
    Rng shape_rng(2025);
    for (int trial = 0; trial < 12; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(200);
        const size_t k = 1 + shape_rng.uniformInt(120);
        const size_t n = 1 + shape_rng.uniformInt(200);
        Rng data_rng(300 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(n, k, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmulBT(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmulBT " << m << "x" << k << "x" << n;
    }
}

TEST(ParallelDeterminism, MatmulATBitIdentical)
{
    Rng shape_rng(2026);
    for (int trial = 0; trial < 12; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(200);
        const size_t k = 1 + shape_rng.uniformInt(120);
        const size_t n = 1 + shape_rng.uniformInt(200);
        Rng data_rng(500 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(k, m, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmulAT(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmulAT " << m << "x" << k << "x" << n;
    }
}

/** Train a fresh classifier and return (per-step losses, final params). */
std::pair<std::vector<double>, std::vector<Matrix>>
trainClassifier(uint64_t seed)
{
    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 8;
    tc.classes = 3;
    tc.seed = seed;
    SyntheticTask task(tc);
    TransformerConfig mc;
    mc.in_dim = 8;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 32;
    mc.classes = 3;
    mc.seed = seed + 1;
    TransformerClassifier model(mc);
    TrainConfig cfg;
    cfg.steps = 4;
    cfg.batch = 6;
    cfg.data_seed = seed + 2;
    ClassifierTrainer trainer(model, task, cfg);
    trainer.train();
    std::vector<Parameter *> params;
    model.collectParams(params);
    std::vector<Matrix> values;
    values.reserve(params.size());
    for (Parameter *p : params)
        values.push_back(p->value);
    return {trainer.lossHistory(), std::move(values)};
}

TEST(ParallelDeterminism, ClassifierTrainerBitIdenticalAcrossSeeds)
{
    for (uint64_t seed : {11u, 42u, 99u}) {
        auto [serial, parallel] =
            atBothThreadCounts([&] { return trainClassifier(seed); });
        ASSERT_EQ(serial.first.size(), parallel.first.size());
        for (size_t s = 0; s < serial.first.size(); ++s)
            EXPECT_EQ(serial.first[s], parallel.first[s])
                << "seed " << seed << " step " << s;
        ASSERT_EQ(serial.second.size(), parallel.second.size());
        for (size_t i = 0; i < serial.second.size(); ++i)
            EXPECT_TRUE(
                bitIdentical(serial.second[i], parallel.second[i]))
                << "seed " << seed << " param " << i;
    }
}

/** Train a fresh causal LM and return (per-step losses, final params). */
std::pair<std::vector<double>, std::vector<Matrix>>
trainLM(uint64_t seed)
{
    GrammarConfig gc;
    gc.seq_len = 24;
    gc.vocab = 32;
    gc.seed = seed;
    SyntheticGrammar grammar(gc);
    TransformerConfig mc;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 32;
    mc.vocab = 32;
    mc.max_seq = 64;
    mc.seed = seed + 1;
    CausalLM model(mc);
    TrainConfig cfg;
    cfg.steps = 3;
    cfg.batch = 5;
    cfg.data_seed = seed + 2;
    LMTrainer trainer(model, grammar, cfg);
    trainer.train();
    std::vector<Parameter *> params;
    model.collectParams(params);
    std::vector<Matrix> values;
    values.reserve(params.size());
    for (Parameter *p : params)
        values.push_back(p->value);
    return {trainer.lossHistory(), std::move(values)};
}

TEST(ParallelDeterminism, LMTrainerBitIdentical)
{
    auto [serial, parallel] =
        atBothThreadCounts([] { return trainLM(77); });
    ASSERT_EQ(serial.first.size(), parallel.first.size());
    for (size_t s = 0; s < serial.first.size(); ++s)
        EXPECT_EQ(serial.first[s], parallel.first[s]) << "step " << s;
    ASSERT_EQ(serial.second.size(), parallel.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i)
        EXPECT_TRUE(bitIdentical(serial.second[i], parallel.second[i]))
            << "param " << i;
}

TEST(ParallelDeterminism, FleetDispatchBitIdentical)
{
    Rng len_rng(31337);
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<size_t> lens;
        for (int i = 0; i < 10; ++i)
            lens.push_back(128 + 64 * len_rng.uniformInt(12));
        auto runFleet = [&] {
            FleetConfig fc;
            fc.accelerators = 3;
            SimOptions opt;
            opt.mode = DotaMode::Conservative;
            FleetSimulator fleet(fc, benchmark(BenchmarkId::Text), opt);
            return fleet.run(lens);
        };
        auto [serial, parallel] = atBothThreadCounts(runFleet);
        EXPECT_EQ(serial.makespan_ms, parallel.makespan_ms);
        EXPECT_EQ(serial.total_work_ms, parallel.total_work_ms);
        EXPECT_EQ(serial.mean_latency_ms, parallel.mean_latency_ms);
        EXPECT_EQ(serial.max_latency_ms, parallel.max_latency_ms);
        EXPECT_EQ(serial.utilization, parallel.utilization);
        EXPECT_EQ(serial.throughput_seq_s, parallel.throughput_seq_s);
        EXPECT_EQ(serial.total_energy_j, parallel.total_energy_j);
        EXPECT_EQ(serial.energy_per_seq_j, parallel.energy_per_seq_j);
        ASSERT_EQ(serial.accel_busy_ms.size(),
                  parallel.accel_busy_ms.size());
        for (size_t a = 0; a < serial.accel_busy_ms.size(); ++a)
            EXPECT_EQ(serial.accel_busy_ms[a], parallel.accel_busy_ms[a]);
        EXPECT_EQ(serial.latency.count(), parallel.latency.count());
        EXPECT_EQ(serial.latency.mean(), parallel.latency.mean());
        EXPECT_EQ(serial.latency.max(), parallel.latency.max());
    }
}

TEST(ParallelDeterminism, MixedFleetDispatchBitIdentical)
{
    // The heterogeneous dispatcher (different device kinds and speed
    // bins) keeps the PR 1 contract: bit-identical reports at every
    // thread count.
    Rng len_rng(4242);
    std::vector<size_t> lens;
    for (int i = 0; i < 12; ++i)
        lens.push_back(128 + 64 * len_rng.uniformInt(12));
    auto runFleet = [&] {
        FleetConfig fc;
        fc.devices = {
            DeviceSpec{"dota-c", 2, 1.0, DeviceOptions{}},
            DeviceSpec{"dota-c", 1, 1.5, DeviceOptions{}},
            DeviceSpec{"elsa", 1, 1.0, DeviceOptions{}},
            DeviceSpec{"gpu-v100", 1, 1.0, DeviceOptions{}},
        };
        FleetSimulator fleet(fc, benchmark(BenchmarkId::Text));
        return fleet.run(lens);
    };
    auto [serial, parallel] = atBothThreadCounts(runFleet);
    EXPECT_EQ(serial.makespan_ms, parallel.makespan_ms);
    EXPECT_EQ(serial.total_work_ms, parallel.total_work_ms);
    EXPECT_EQ(serial.mean_latency_ms, parallel.mean_latency_ms);
    EXPECT_EQ(serial.max_latency_ms, parallel.max_latency_ms);
    EXPECT_EQ(serial.total_energy_j, parallel.total_energy_j);
    EXPECT_EQ(serial.energy_per_seq_j, parallel.energy_per_seq_j);
    ASSERT_EQ(serial.accel_busy_ms.size(),
              parallel.accel_busy_ms.size());
    for (size_t a = 0; a < serial.accel_busy_ms.size(); ++a)
        EXPECT_EQ(serial.accel_busy_ms[a], parallel.accel_busy_ms[a]);
    ASSERT_EQ(serial.accel_device.size(), parallel.accel_device.size());
    for (size_t a = 0; a < serial.accel_device.size(); ++a)
        EXPECT_EQ(serial.accel_device[a], parallel.accel_device[a]);
    EXPECT_EQ(serial.latency.count(), parallel.latency.count());
    EXPECT_EQ(serial.latency.mean(), parallel.latency.mean());
    EXPECT_EQ(serial.latency.max(), parallel.latency.max());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable)
{
    // Run-to-run stability at a fixed thread count (not just 1-vs-8).
    ScopedThreads parallel(8);
    const auto a = trainClassifier(5);
    const auto b = trainClassifier(5);
    ASSERT_EQ(a.first.size(), b.first.size());
    for (size_t s = 0; s < a.first.size(); ++s)
        EXPECT_EQ(a.first[s], b.first[s]);
    for (size_t i = 0; i < a.second.size(); ++i)
        EXPECT_TRUE(bitIdentical(a.second[i], b.second[i]));
}

TEST(ParallelDeterminism, SparseAttentionBitIdentical)
{
    // The Level-2 sparse attention kernels (tensor/sparse_ops.hpp) use
    // the same one-chunk-per-output-row parallelization as the dense
    // GEMMs; a sequence long enough to cross the MAC threshold must be
    // bit-identical at DOTA_THREADS=1 and 8.
    const size_t n = 384, d = 64;
    Rng rng(2077);
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const SparseMask mask = SparseMask::fromDense(topkMask(proxy, n / 4));
    const float sc = 1.0f / std::sqrt(static_cast<float>(d));

    auto [serial, parallel] = atBothThreadCounts(
        [&] { return sparseMaskedAttention(q, k, v, mask, sc); });
    EXPECT_TRUE(bitIdentical(serial, parallel));
}

/** A square side whose element count exceeds twice the row threshold. */
size_t
bigSide()
{
    return static_cast<size_t>(
               std::ceil(std::sqrt(2.0 * rowParallelElemThreshold()))) +
           1;
}

TEST(ParallelDeterminism, RowKernelsBitIdenticalBelowAndAboveThreshold)
{
    const size_t wide = 67; // odd width: exercises every vector tail
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {3, 17},
        {1, 300}, // a decode-shaped single row
        {2 * rowParallelElemThreshold() / wide + 3, wide},
    };
    const char *names[] = {"rowSoftmax", "rowSoftmaxMasked",
                           "scale",      "add",
                           "addRowBroadcast", "gelu",
                           "geluBackward",    "layerNorm",
                           "layerNorm.mean",  "layerNorm.rstd",
                           "topkMask",        "topkMaskCausal",
                           "SparseMask::fromDense"};
    for (const auto &[rows, cols] : shapes) {
        Rng rng(rows * 131 + cols);
        const Matrix a = Matrix::randomNormal(rows, cols, rng, 0.0f, 3.0f);
        const Matrix b = Matrix::randomNormal(rows, cols, rng);
        const Matrix bias = Matrix::randomNormal(1, cols, rng);
        const Matrix gamma = Matrix::randomNormal(1, cols, rng, 1.0f, 0.1f);
        const Matrix beta = Matrix::randomNormal(1, cols, rng);
        Matrix keep = topkMask(b, cols / 3 + 1);
        for (size_t j = 0; j < cols; ++j)
            keep(0, j) = 0.0f; // one all-masked row
        const size_t k = cols / 4 + 1;
        auto [serial, parallel] = atBothThreadCounts([&] {
            std::vector<Matrix> out;
            out.push_back(rowSoftmax(a));
            out.push_back(rowSoftmaxMasked(a, keep));
            out.push_back(scale(a, 0.37f));
            out.push_back(add(a, b));
            out.push_back(addRowBroadcast(a, bias));
            out.push_back(gelu(a));
            out.push_back(geluBackward(a, b));
            Matrix mean, rstd;
            out.push_back(layerNorm(a, gamma, beta, mean, rstd));
            out.push_back(mean);
            out.push_back(rstd);
            out.push_back(topkMask(a, k));
            out.push_back(topkMaskCausal(a, k));
            out.push_back(SparseMask::fromDense(keep).toDense());
            return out;
        });
        ASSERT_EQ(serial.size(), std::size(names));
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(bitIdentical(serial[i], parallel[i]))
                << names[i] << " " << rows << "x" << cols;
    }
}

/** The selection the detector's fused pass must reproduce. */
Matrix
unfusedSelection(const Matrix &est, const DetectorConfig &dc, size_t keep,
                 bool causal)
{
    if (!dc.use_threshold)
        return causal ? topkMaskCausal(est, keep) : topkMask(est, keep);
    Matrix mask = thresholdMask(est, dc.threshold);
    if (causal)
        for (size_t i = 0; i < mask.rows(); ++i) {
            for (size_t j = i + 1; j < mask.cols(); ++j)
                mask(i, j) = 0.0f;
            mask(i, i) = 1.0f;
        }
    return mask;
}

TEST(ParallelDeterminism, DetectorSelectMaskBitIdentical)
{
    TransformerConfig mc;
    mc.dim = 64;
    mc.heads = 2;
    mc.layers = 2;
    const size_t big = bigSide(), small = 24;
    struct Mode
    {
        const char *name;
        bool causal;
        bool threshold;
    };
    for (const Mode &mode : {Mode{"causal top-k", true, false},
                             Mode{"top-k", false, false},
                             Mode{"causal threshold", true, true},
                             Mode{"threshold", false, true}}) {
        DetectorConfig dc;
        dc.train = false;
        dc.use_threshold = mode.threshold;
        dc.threshold = 0.05f;
        bool reused = true;
        auto run = [&] {
            DotaDetector det(mc, dc);
            std::vector<Matrix> out;
            const float *first_buffer = nullptr;
            // n holds for two forwards (est_ is reused), then changes
            // (est_ is re-shaped) and changes back.
            const size_t sizes[] = {big, big, small, big};
            for (size_t f = 0; f < std::size(sizes); ++f) {
                const size_t n = sizes[f];
                Rng rng(3000 + f);
                const Matrix x = Matrix::randomNormal(n, mc.dim, rng);
                for (size_t layer = 0; layer < mc.layers; ++layer) {
                    det.beginLayer(layer, x);
                    for (size_t h = 0; h < mc.heads; ++h) {
                        out.push_back(det.selectMask(layer, h, mode.causal));
                        out.push_back(det.lastEstimate(layer, h));
                    }
                }
                if (f == 0)
                    first_buffer = det.lastEstimate(1, 1).data();
                else if (f == 1)
                    reused &= det.lastEstimate(1, 1).data() == first_buffer;
            }
            return out;
        };
        auto [serial, parallel] = atBothThreadCounts(run);
        EXPECT_TRUE(reused) << mode.name << ": est_ reallocated at fixed n";
        ASSERT_EQ(serial.size(), parallel.size());
        const DotaDetector shape(mc, dc);
        for (size_t i = 0; i < serial.size(); i += 2) {
            EXPECT_TRUE(bitIdentical(serial[i], parallel[i]))
                << mode.name << " mask " << i / 2;
            EXPECT_TRUE(bitIdentical(serial[i + 1], parallel[i + 1]))
                << mode.name << " estimate " << i / 2;
            const Matrix &est = serial[i + 1];
            EXPECT_TRUE(bitIdentical(
                serial[i], unfusedSelection(est, dc,
                                            shape.keepCount(est.rows()),
                                            mode.causal)))
                << mode.name << ": fused select differs, mask " << i / 2;
        }
    }
}

TEST(ParallelDeterminism, Int8BackendBitIdentical)
{
    const AttentionBackend &backend =
        attentionBackend(AttnBackendKind::Int8);
    for (size_t n : {size_t{24}, bigSide()}) {
        Rng rng(4000 + n);
        const Matrix q = Matrix::randomNormal(n, 32, rng);
        const Matrix k = Matrix::randomNormal(n, 32, rng);
        const Matrix v = Matrix::randomNormal(n, 32, rng);
        const Matrix mask =
            topkMaskCausal(Matrix::randomNormal(n, n, rng), n / 4 + 1);
        for (const Matrix *m : {static_cast<const Matrix *>(nullptr),
                                &mask}) {
            AttnHeadProblem p;
            p.q = &q;
            p.k = &k;
            p.v = &v;
            p.scale = 1.0f / std::sqrt(32.0f);
            p.dense_mask = m;
            auto [serial, parallel] =
                atBothThreadCounts([&] { return backend.runHead(p).z; });
            EXPECT_TRUE(bitIdentical(serial, parallel))
                << "n=" << n << (m ? " masked" : " unmasked");
        }
    }
}

TEST(ParallelDeterminism, CausalTriangleHeadsBitIdentical)
{
    // The balanced triangle blocks (forCausalRowBlocks) of the dense
    // and int8 causal heads, below and above the parallel threshold.
    for (size_t n : {size_t{24}, bigSide(), 2 * bigSide() + 3}) {
        Rng rng(4500 + n);
        const Matrix q = Matrix::randomNormal(n, 64, rng);
        const Matrix k = Matrix::randomNormal(n, 64, rng);
        const Matrix v = Matrix::randomNormal(n, 64, rng);
        auto [serial, parallel] = atBothThreadCounts([&] {
            return denseCausalHead(q, k, v, 0.125f);
        });
        EXPECT_TRUE(bitIdentical(serial.z, parallel.z)) << "z n=" << n;
        EXPECT_TRUE(bitIdentical(serial.probs, parallel.probs))
            << "A n=" << n;
        EXPECT_TRUE(bitIdentical(serial.scores, parallel.scores))
            << "S n=" << n;

        AttnHeadProblem p;
        p.q = &q;
        p.k = &k;
        p.v = &v;
        p.scale = 0.125f;
        p.causal = true;
        auto [iserial, iparallel] = atBothThreadCounts([&] {
            return attentionBackend(AttnBackendKind::Int8).runHead(p).z;
        });
        EXPECT_TRUE(bitIdentical(iserial, iparallel)) << "int8 n=" << n;
    }
}

TEST(ParallelDeterminism, Int8QuantizeAndEpilogueBitIdentical)
{
    // Row-parallel quantizers and the int8MatmulBT dequant + bias
    // epilogue, below and above their thresholds.
    for (size_t rows : {size_t{3}, size_t{40}, size_t{300}}) {
        Rng rng(4600 + rows);
        const Matrix x = Matrix::randomNormal(rows, 160, rng, 0.0f, 2.0f);
        const Matrix w = Matrix::randomNormal(160, 200, rng);
        const Matrix bias = Matrix::randomNormal(1, 200, rng);
        auto [serial, parallel] = atBothThreadCounts([&] {
            const U8Tensor xq = quantizeU8(x, 0.05f);
            const Int8Tensor xs = quantizeS8(x, 0.02f);
            const Int8Tensor xt = quantizeS8Transposed(x, 0.02f);
            const Int8Tensor wt = quantizeS8Transposed(w, 0.01f);
            return std::make_tuple(xq.codes, xs.codes, xs.row_sums,
                                   xt.codes, xt.row_sums,
                                   int8MatmulBT(xq, wt, &bias));
        });
        EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << rows;
        EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << rows;
        EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << rows;
        EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel)) << rows;
        EXPECT_EQ(std::get<4>(serial), std::get<4>(parallel)) << rows;
        EXPECT_TRUE(
            bitIdentical(std::get<5>(serial), std::get<5>(parallel)))
            << rows;
    }
}

TEST(ParallelDeterminism, Int8ForwardBitIdentical)
{
    const size_t big = bigSide();
    TransformerConfig cfg;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.vocab = 48;
    cfg.max_seq = big;
    cfg.seed = 7;
    CausalLM lm(cfg);
    auto ids = [&](size_t n, uint64_t seed) {
        Rng rng(seed);
        std::vector<int> out(n);
        for (auto &id : out)
            id = static_cast<int>(rng.uniformInt(cfg.vocab));
        return out;
    };
    const Int8Plan plan =
        quantizeLM(lm, calibrateLM(lm, {ids(20, 1), ids(20, 2)}));
    DetectorConfig dc;
    dc.train = false;
    DotaDetector det(cfg, dc);
    for (size_t n : {size_t{20}, big}) {
        const std::vector<int> seq = ids(n, 10 + n);
        for (AttentionHook *hook :
             {static_cast<AttentionHook *>(nullptr),
              static_cast<AttentionHook *>(&det)}) {
            lm.setHook(hook);
            auto [serial, parallel] = atBothThreadCounts(
                [&] { return int8Forward(lm, plan, seq); });
            EXPECT_TRUE(bitIdentical(serial, parallel))
                << "n=" << n << (hook ? " with detector" : "");
        }
    }
    lm.setHook(nullptr);
}

TEST(ParallelDeterminism, DecodeMatchesForwardAtBothThreadCounts)
{
    // fp32 dense decode and int8 decode reproduce their full-sequence
    // forwards row for row, memcmp-exact, at 1 and at 8 threads.
    const size_t big = bigSide();
    TransformerConfig cfg;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.vocab = 48;
    cfg.max_seq = big;
    cfg.seed = 9;
    CausalLM lm(cfg);
    Rng rng(31);
    std::vector<int> ids(big);
    for (auto &id : ids)
        id = static_cast<int>(rng.uniformInt(cfg.vocab));
    const Int8Plan plan = quantizeLM(lm, calibrateLM(lm, {ids}));
    ScopedAttnChoice pin(AttnChoice::Dense);
    const auto sameRow = [](const Matrix &step, const Matrix &full,
                            size_t t) {
        return step.rows() == 1 && step.cols() == full.cols() &&
               std::memcmp(step.row(0), full.row(t),
                           full.cols() * sizeof(float)) == 0;
    };
    for (size_t threads : {size_t{1}, size_t{8}}) {
        ScopedThreads pool(threads);
        const Matrix full = lm.forward(ids);
        const Matrix full8 = int8Forward(lm, plan, ids);
        DecodeState fp;
        Int8DecodeState q8;
        size_t differ = 0, differ8 = 0;
        for (size_t t = 0; t < ids.size(); ++t) {
            differ += !sameRow(decodeStep(lm, fp, ids[t]), full, t);
            differ8 += !sameRow(int8DecodeStep(lm, plan, q8, ids[t]), full8, t);
        }
        EXPECT_EQ(differ, 0u) << "fp32 rows differ at " << threads
                              << " threads";
        EXPECT_EQ(differ8, 0u) << "int8 rows differ at " << threads
                               << " threads";
    }
}

} // namespace
} // namespace dota
