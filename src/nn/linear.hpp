/**
 * @file
 * Fully-connected layer with explicit forward/backward.
 */
#pragma once

#include "nn/param.hpp"
#include "tensor/ops.hpp"

namespace dota {

/** y = x W + b, with cached input for backward. */
class LinearLayer : public Module
{
  public:
    /**
     * @param name    parameter name prefix
     * @param in      input feature dimension
     * @param out     output feature dimension
     * @param rng     weight initializer stream
     * @param bias    whether to include the additive bias
     */
    LinearLayer(const std::string &name, size_t in, size_t out, Rng &rng,
                bool bias = true);

    /** (n x in) -> (n x out); caches @p x for backward when @p keep. */
    Matrix forward(const Matrix &x, bool keep = true);

    /** Backward; returns dL/dx and accumulates dW/db. */
    Matrix backward(const Matrix &dy);

    void collectParams(std::vector<Parameter *> &out) override;

    Parameter &weight() { return w_; }
    Parameter &bias() { return b_; }
    bool hasBias() const { return has_bias_; }

  private:
    Parameter w_; ///< in x out
    Parameter b_; ///< 1 x out (only if has_bias_)
    bool has_bias_;
    Matrix cached_x_;
};

} // namespace dota
