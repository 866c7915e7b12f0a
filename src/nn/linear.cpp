/**
 * @file
 * Implementation of the fully-connected layer.
 */
#include "nn/linear.hpp"

namespace dota {

LinearLayer::LinearLayer(const std::string &name, size_t in, size_t out,
                         Rng &rng, bool bias)
    : w_(name + ".w", Matrix::xavier(in, out, rng)),
      b_(name + ".b", Matrix(1, out)), has_bias_(bias)
{}

Matrix
LinearLayer::forward(const Matrix &x, bool keep)
{
    if (keep)
        cached_x_ = x;
    Matrix y = matmul(x, w_.value);
    if (has_bias_)
        y = addRowBroadcast(y, b_.value);
    return y;
}

Matrix
LinearLayer::backward(const Matrix &dy)
{
    DOTA_ASSERT(!cached_x_.empty(), "backward before forward");
    // dW += x^T dy
    Matrix dw = matmulAT(cached_x_, dy);
    for (size_t i = 0; i < dw.size(); ++i)
        w_.grad.data()[i] += dw.data()[i];
    if (has_bias_) {
        for (size_t i = 0; i < dy.rows(); ++i)
            for (size_t j = 0; j < dy.cols(); ++j)
                b_.grad(0, j) += dy(i, j);
    }
    // dx = dy W^T
    return matmulBT(dy, w_.value);
}

void
LinearLayer::collectParams(std::vector<Parameter *> &out)
{
    out.push_back(&w_);
    if (has_bias_)
        out.push_back(&b_);
}

} // namespace dota
