#include "nn/residual.hpp"

#include <stdexcept>

namespace mldist::nn {

Residual& Residual::add(std::unique_ptr<Layer> layer) {
  inner_.push_back(std::move(layer));
  return *this;
}

Mat Residual::forward(const Mat& x, bool training) {
  Mat y = x;
  for (auto& l : inner_) y = l->forward(y, training);
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument(
        "Residual: inner stack must preserve the input shape");
  }
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] += x.data()[i];
  return y;
}

Mat Residual::backward(const Mat& grad_out) {
  Mat g = grad_out;
  for (std::size_t li = inner_.size(); li-- > 0;) {
    g = inner_[li]->backward(g);
  }
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] += grad_out.data()[i];
  return g;
}

std::vector<ParamView> Residual::params() {
  std::vector<ParamView> out;
  for (auto& l : inner_) {
    for (const auto& p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<std::span<float>> Residual::state() {
  std::vector<std::span<float>> out;
  for (auto& l : inner_) {
    for (const auto& s : l->state()) out.push_back(s);
  }
  return out;
}

std::string Residual::name() const {
  std::string s = "residual[";
  for (std::size_t i = 0; i < inner_.size(); ++i) {
    if (i > 0) s += " ";
    s += inner_[i]->name();
  }
  return s + "]";
}

std::size_t Residual::output_size(std::size_t input_size) const {
  std::size_t w = input_size;
  for (const auto& l : inner_) w = l->output_size(w);
  if (w != input_size) {
    throw std::invalid_argument(
        "Residual: inner stack must preserve the input width");
  }
  return w;
}

}  // namespace mldist::nn
