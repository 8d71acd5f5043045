#include "snn/trainer.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/timer.h"
#include "obs/trace.h"
#include "snn/loss.h"
#include "tensor/tensor_ops.h"

namespace falvolt::snn {

std::vector<tensor::Tensor> make_batch(const data::Dataset& ds,
                                       const std::vector<int>& indices) {
  const int t_steps = ds.time_steps();
  const int n = static_cast<int>(indices.size());
  const std::size_t plane = static_cast<std::size_t>(ds.channels()) *
                            ds.height() * ds.width();
  std::vector<tensor::Tensor> steps;
  steps.reserve(static_cast<std::size_t>(t_steps));
  for (int t = 0; t < t_steps; ++t) {
    steps.emplace_back(
        tensor::Shape{n, ds.channels(), ds.height(), ds.width()});
  }
  for (int s = 0; s < n; ++s) {
    const data::Sample& sample = ds[indices[static_cast<std::size_t>(s)]];
    for (int t = 0; t < t_steps; ++t) {
      std::memcpy(
          steps[static_cast<std::size_t>(t)].data() +
              static_cast<std::size_t>(s) * plane,
          sample.frames.data() + static_cast<std::size_t>(t) * plane,
          plane * sizeof(float));
    }
  }
  return steps;
}

std::vector<int> batch_labels(const data::Dataset& ds,
                              const std::vector<int>& indices) {
  std::vector<int> labels;
  labels.reserve(indices.size());
  for (const int i : indices) labels.push_back(ds[i].label);
  return labels;
}

Trainer::Trainer(Network& net, Optimizer& opt, const data::Dataset& train,
                 const data::Dataset* test, TrainConfig cfg)
    : net_(net),
      opt_(opt),
      train_(train),
      test_(test),
      cfg_(std::move(cfg)),
      shuffle_rng_(cfg_.shuffle_seed) {
  if (cfg_.epochs < 0 || cfg_.batch_size <= 0) {
    throw std::invalid_argument("Trainer: bad epochs/batch_size");
  }
}

double Trainer::run_epoch() {
  const int n = train_.size();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  shuffle_rng_.shuffle(order);

  const int t_steps = train_.time_steps();
  double loss_sum = 0.0;
  int batches = 0;
  for (int start = 0; start < n; start += cfg_.batch_size) {
    const int end = std::min(n, start + cfg_.batch_size);
    const std::vector<int> idx(order.begin() + start, order.begin() + end);
    const auto steps = make_batch(train_, idx);
    const auto labels = batch_labels(train_, idx);
    const int bsz = static_cast<int>(idx.size());

    net_.reset_state();
    net_.zero_grad();

    tensor::Tensor out_sum;
    for (int t = 0; t < t_steps; ++t) {
      tensor::Tensor out =
          net_.forward(steps[static_cast<std::size_t>(t)], t, Mode::kTrain);
      if (out.rank() != 2 || out.dim(0) != bsz) {
        throw std::logic_error("Trainer: network output must be [N, classes]");
      }
      if (out_sum.empty()) {
        out_sum = out;
      } else {
        tensor::add_inplace(out_sum, out);
      }
    }
    tensor::Tensor rate = out_sum;
    tensor::scale_inplace(rate, 1.0f / static_cast<float>(t_steps));
    const LossResult lr = rate_mse_loss(rate, labels);
    loss_sum += lr.loss;
    ++batches;

    // Each step's output spikes contribute 1/T of the mean rate.
    tensor::Tensor step_grad = lr.grad_rate;
    tensor::scale_inplace(step_grad, 1.0f / static_cast<float>(t_steps));
    for (int t = t_steps - 1; t >= 0; --t) {
      net_.backward(step_grad, t);
    }
    opt_.step(net_.params());
    for (Plif* p : net_.spiking_layers()) p->clamp_vth();
  }
  return batches ? loss_sum / batches : 0.0;
}

std::vector<EpochStats> Trainer::run() {
  std::vector<EpochStats> stats;
  for (int e = 0; e < cfg_.epochs; ++e) {
    common::Timer timer;
    EpochStats s;
    s.epoch = epoch_index_++;
    obs::TraceSpan span("phase", cfg_.epoch_span);
    span.arg("epoch", s.epoch);
    s.train_loss = run_epoch();
    if (cfg_.post_epoch) cfg_.post_epoch(net_);
    s.test_accuracy = (cfg_.eval_each_epoch && test_)
                          ? evaluate(net_, *test_)
                          : std::numeric_limits<double>::quiet_NaN();
    s.seconds = timer.seconds();
    if (cfg_.on_epoch) cfg_.on_epoch(s);
    stats.push_back(s);
  }
  return stats;
}

tensor::Tensor infer_rates(Network& net, const data::Dataset& ds,
                           const std::vector<int>& indices) {
  return net.rate_forward(make_batch(ds, indices));
}

EvalBatch make_eval_batch(const data::Dataset& ds) {
  EvalBatch batch;
  std::vector<int> idx(static_cast<std::size_t>(ds.size()));
  std::iota(idx.begin(), idx.end(), 0);
  batch.steps = make_batch(ds, idx);
  batch.labels = batch_labels(ds, idx);
  return batch;
}

double evaluate(Network& net, const EvalBatch& batch) {
  if (batch.labels.empty()) return 0.0;
  const tensor::Tensor rates = net.rate_forward(batch.steps);
  const auto pred = tensor::argmax_rows(rates);
  int correct = 0;
  for (std::size_t i = 0; i < batch.labels.size(); ++i) {
    if (pred[i] == batch.labels[i]) ++correct;
  }
  return 100.0 * correct / static_cast<double>(batch.labels.size());
}

double evaluate(Network& net, const data::Dataset& ds, int batch_size) {
  if (ds.size() == 0) return 0.0;
  if (batch_size <= 0) batch_size = ds.size();  // batched eval mode
  int correct = 0;
  for (int start = 0; start < ds.size(); start += batch_size) {
    const int end = std::min(ds.size(), start + batch_size);
    std::vector<int> idx(static_cast<std::size_t>(end - start));
    std::iota(idx.begin(), idx.end(), start);
    const tensor::Tensor rates = infer_rates(net, ds, idx);
    const auto pred = tensor::argmax_rows(rates);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (pred[i] == ds[idx[i]].label) ++correct;
    }
  }
  return 100.0 * correct / static_cast<double>(ds.size());
}

}  // namespace falvolt::snn
