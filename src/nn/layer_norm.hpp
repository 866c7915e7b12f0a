/**
 * @file
 * Layer normalization module (trainable gamma/beta).
 */
#pragma once

#include "nn/param.hpp"
#include "tensor/ops.hpp"

namespace dota {

/** Row-wise layer normalization with trainable scale and shift. */
class LayerNormLayer : public Module
{
  public:
    LayerNormLayer(const std::string &name, size_t dim);

    /** Forward over an (n x dim) input; caches for backward when @p keep. */
    Matrix forward(const Matrix &x, bool keep = true);

    /** Backward; returns dL/dx, accumulates dgamma/dbeta. */
    Matrix backward(const Matrix &dy);

    void collectParams(std::vector<Parameter *> &out) override;

  private:
    Parameter gamma_;
    Parameter beta_;
    Matrix cached_x_;
    Matrix mean_;
    Matrix rstd_;
};

} // namespace dota
