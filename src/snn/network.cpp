#include "snn/network.h"

#include <cstring>
#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace falvolt::snn {

tensor::Tensor Network::forward(const tensor::Tensor& x, int t, Mode mode) {
  return forward_layers(x, t, mode, 0, layers_.size());
}

tensor::Tensor Network::forward_layers(tensor::Tensor cur, int t, Mode mode,
                                       std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) cur = layers_[i]->forward(cur, t, mode);
  return cur;
}

tensor::Tensor Network::rate_forward(
    const std::vector<tensor::Tensor>& steps) {
  reset_state();
  // The layers before the first spiking layer carry no state across time
  // steps: their output is a function of the step input alone. A step
  // whose input repeats the previous one byte for byte (MNIST frames are
  // one image per step) reuses that output instead of recomputing it.
  std::size_t prefix = 0;
  while (prefix < layers_.size() && !layers_[prefix]->is_spiking()) ++prefix;
  const auto same_bytes = [](const tensor::Tensor& a, const tensor::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  tensor::Tensor prefix_out;
  bool reuse = false;
  tensor::Tensor sum;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const int step = static_cast<int>(t);
    if (!reuse) {
      prefix_out = forward_layers(steps[t], step, Mode::kEval, 0, prefix);
    }
    reuse = t + 1 < steps.size() && same_bytes(steps[t + 1], steps[t]);
    // The first spiking layer reads the prefix output, which is released
    // right after unless the next step reuses it: a non-repeating
    // sequence holds no more memory than a plain per-step forward.
    tensor::Tensor out =
        prefix < layers_.size()
            ? layers_[prefix]->forward(prefix_out, step, Mode::kEval)
            : prefix_out;
    if (!reuse) prefix_out = tensor::Tensor();
    out = forward_layers(std::move(out), step, Mode::kEval, prefix + 1,
                         layers_.size());
    if (sum.empty()) {
      sum = std::move(out);
    } else {
      tensor::add_inplace(sum, out);
    }
  }
  if (!steps.empty()) {
    tensor::scale_inplace(sum, 1.0f / static_cast<float>(steps.size()));
  }
  return sum;
}

void Network::backward(const tensor::Tensor& grad_out, int t) {
  if (layers_.empty()) return;
  tensor::Tensor cur = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    cur = layers_[i]->backward(cur, t);
  }
  layers_[0]->accumulate_param_grads(cur, t);
}

void Network::reset_state() {
  for (auto& l : layers_) l->reset_state();
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

void Network::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<Plif*> Network::spiking_layers() {
  std::vector<Plif*> out;
  for (auto& l : layers_) {
    if (auto* p = dynamic_cast<Plif*>(l.get())) out.push_back(p);
  }
  return out;
}

std::vector<Plif*> Network::hidden_spiking_layers() {
  std::vector<Plif*> out;
  for (auto& l : layers_) {
    auto* p = dynamic_cast<Plif*>(l.get());
    if (!p) continue;
    // Encoder PLIF layers are named with an "SEnc" prefix by the model zoo.
    if (p->name().rfind("SEnc", 0) == 0) continue;
    out.push_back(p);
  }
  return out;
}

std::vector<MatmulLayer*> Network::matmul_layers() {
  std::vector<MatmulLayer*> out;
  for (auto& l : layers_) {
    if (auto* m = dynamic_cast<MatmulLayer*>(l.get())) out.push_back(m);
  }
  return out;
}

void Network::set_gemm_engine(GemmEngine* engine) {
  for (MatmulLayer* m : matmul_layers()) m->set_gemm_engine(engine);
}

void Network::set_train_vth(bool enabled) {
  for (Plif* p : hidden_spiking_layers()) p->set_train_vth(enabled);
}

std::vector<tensor::Tensor> Network::snapshot_params() {
  std::vector<tensor::Tensor> snap;
  for (Param* p : params()) snap.push_back(p->value);
  return snap;
}

void Network::restore_params(const std::vector<tensor::Tensor>& snap) {
  auto ps = params();
  if (snap.size() != ps.size()) {
    throw std::invalid_argument("Network::restore_params: size mismatch");
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i]->value.shape() != snap[i].shape()) {
      throw std::invalid_argument("Network::restore_params: shape mismatch");
    }
    ps[i]->value = snap[i];
  }
}

std::size_t Network::num_trainable_scalars() {
  std::size_t n = 0;
  for (Param* p : params()) {
    if (p->trainable) n += p->size();
  }
  return n;
}

}  // namespace falvolt::snn
