/**
 * @file
 * Per-layer probes of the tensor kernels and the thread pool at the
 * shapes the workloads run: the FFN GEMM of prefill_long (fp32 and
 * int8, at 1 and at the configured thread count), the decode GEMV and
 * top-k row, softmax / GELU / LayerNorm, and a parallelFor dispatch.
 */
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/topk.hpp"

namespace perfbench {

using namespace dota;

namespace {

/** Median ms of @p fn at 1 thread and at the pool's configured count. */
template <typename Fn>
std::pair<double, double>
serialAndThreadedMs(Tracer &tr, const std::string &name, Fn &&fn)
{
    const size_t threads = ThreadPool::globalConcurrency();
    ThreadPool::setGlobalConcurrency(1);
    const double serial = medianMs(7, [&] {
        Tracer::Scope span(tr, name + ".1thread");
        fn();
    });
    ThreadPool::setGlobalConcurrency(threads);
    // Bring the helper threads back online before timing them.
    for (int i = 0; i < 5; ++i)
        fn();
    const double threaded = medianMs(7, [&] {
        Tracer::Scope span(tr, name);
        fn();
    });
    return {serial, threaded};
}

} // namespace

void
probeTensorLayers(const Options &opt, Tracer &tr, MetricMap &out)
{
    Rng rng(opt.seed);
    const size_t threads = ThreadPool::globalConcurrency();
    const std::string nthreads = std::to_string(threads) + " threads";

    // FFN shape of prefill_long: 512 x 256 times 256 x 1024.
    const size_t m = 512, k = 256, n = 1024;
    const double macs = static_cast<double>(m * k * n);
    const Matrix a = Matrix::randomNormal(m, k, rng);
    const Matrix w = Matrix::randomNormal(k, n, rng);
    const auto [f1, fn] =
        serialAndThreadedMs(tr, "tensor.gemm_fp32", [&] { matmul(a, w); });
    out["tensor.gemm_fp32.gmacs"] = {macs / (fn * 1e6), "GMAC/s", 7,
                                     "512x256x1024 at " + nthreads};
    out["tensor.gemm_fp32.scaling"] = {
        f1 / fn, "ratio", 7,
        std::to_string(f1) + " ms at 1 thread / " + std::to_string(fn) +
            " ms at " + nthreads};

    const U8Tensor qa = quantizeU8(a, 4.0f);
    const Int8Tensor qw = quantizeS8Transposed(w, 4.0f);
    const auto [q1, qn] = serialAndThreadedMs(
        tr, "tensor.gemm_int8", [&] { int8MatmulBT(qa, qw); });
    out["tensor.gemm_int8.gmacs"] = {macs / (qn * 1e6), "GMAC/s", 7,
                                     "512x256x1024 at " + nthreads};
    out["tensor.gemm_int8.scaling"] = {
        q1 / qn, "ratio", 7,
        std::to_string(q1) + " ms at 1 thread / " + std::to_string(qn) +
            " ms at " + nthreads};

    // Decode shapes: one token row through the FFN, one score row.
    const Matrix x = Matrix::randomNormal(1, k, rng);
    out["tensor.gemv_fp32_us"] = {
        1e3 * medianMs(201, [&] {
            Tracer::Scope span(tr, "tensor.gemv_fp32");
            matmul(x, w);
        }),
        "us", 201, "1x256 times 256x1024"};
    const Matrix scores = Matrix::randomNormal(1, 1024, rng);
    out["tensor.topk_row_us"] = {
        1e3 * medianMs(201, [&] {
            Tracer::Scope span(tr, "tensor.topk_row");
            rowTopK(scores, 0, 256);
        }),
        "us", 201, "top 256 of a 1024-wide row"};

    // Elementwise / row-wise kernels of a block.
    const Matrix s = Matrix::randomNormal(2048, 2048, rng);
    out["tensor.softmax_ms"] = {medianMs(5, [&] {
                                    Tracer::Scope span(tr, "tensor.softmax");
                                    rowSoftmax(s);
                                }),
                                "ms", 5, "2048x2048 (one dense prefill head)"};
    const Matrix h = Matrix::randomNormal(512, 1024, rng);
    out["tensor.gelu_ms"] = {medianMs(7, [&] {
                                 Tracer::Scope span(tr, "tensor.gelu");
                                 gelu(h);
                             }),
                             "ms", 7, "512x1024"};
    const Matrix xs = Matrix::randomNormal(2048, 256, rng);
    const Matrix gamma(1, 256, 1.0f), beta(1, 256, 0.0f);
    out["tensor.layernorm_ms"] = {medianMs(7, [&] {
                                      Tracer::Scope span(tr,
                                                         "tensor.layernorm");
                                      Matrix mean, rstd;
                                      layerNorm(xs, gamma, beta, mean, rstd);
                                  }),
                                  "ms", 7, "2048x256"};

    // Fork/join cost of the pool over a trivial body.
    std::vector<size_t> sink(threads, 0);
    out["common.pool_dispatch_us"] = {
        1e3 * medianMs(1001, [&] {
            Tracer::Scope span(tr, "common.pool_dispatch");
            parallelFor(0, threads, 1, [&](size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i)
                    ++sink[i];
            });
        }),
        "us", 1001, "parallelFor over " + nthreads};
}

} // namespace perfbench
