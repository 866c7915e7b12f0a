/**
 * @file
 * Implementation of layer normalization.
 */
#include "nn/layer_norm.hpp"

namespace dota {

LayerNormLayer::LayerNormLayer(const std::string &name, size_t dim)
    : gamma_(name + ".gamma", Matrix(1, dim, 1.0f)),
      beta_(name + ".beta", Matrix(1, dim))
{}

Matrix
LayerNormLayer::forward(const Matrix &x, bool keep)
{
    if (!keep) {
        Matrix mean, rstd;
        return layerNorm(x, gamma_.value, beta_.value, mean, rstd);
    }
    cached_x_ = x;
    return layerNorm(x, gamma_.value, beta_.value, mean_, rstd_);
}

Matrix
LayerNormLayer::backward(const Matrix &dy)
{
    DOTA_ASSERT(!cached_x_.empty(), "backward before forward");
    return layerNormBackward(cached_x_, gamma_.value, mean_, rstd_, dy,
                             gamma_.grad, beta_.grad);
}

void
LayerNormLayer::collectParams(std::vector<Parameter *> &out)
{
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

} // namespace dota
