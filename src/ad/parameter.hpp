// A trainable parameter: a matrix value plus an accumulated gradient and
// Adam moment estimates. Parameters live outside any Tape; each forward
// pass registers them as tape leaves, and Tape::backward() (or a caller
// reducing Tape::take_leaf_grads() itself) accumulates the leaf
// gradients back into Parameter::grad.
#pragma once

#include <string>

#include "la/matrix.hpp"

namespace np::ad {

struct Parameter {
  Parameter() = default;
  Parameter(std::string name_, la::Matrix value_)
      : name(std::move(name_)),
        value(std::move(value_)),
        grad(value.rows(), value.cols(), 0.0),
        adam_m(value.rows(), value.cols(), 0.0),
        adam_v(value.rows(), value.cols(), 0.0) {}

  void zero_grad() { grad = la::Matrix(value.rows(), value.cols(), 0.0); }

  std::string name;
  la::Matrix value;
  la::Matrix grad;
  la::Matrix adam_m;  // first-moment estimate
  la::Matrix adam_v;  // second-moment estimate
};

}  // namespace np::ad
