#include "snn/trainer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic_mnist.h"
#include "snn/model_zoo.h"
#include "snn/optimizer.h"
#include "tensor/tensor_ops.h"

namespace falvolt::snn {
namespace {

data::DatasetSplit small_mnist() {
  data::SyntheticMnistConfig cfg;
  cfg.train_size = 160;
  cfg.test_size = 64;
  cfg.time_steps = 4;
  return data::make_synthetic_mnist(cfg);
}

TEST(Trainer, MakeBatchLayout) {
  const data::DatasetSplit split = small_mnist();
  const auto steps = make_batch(split.train, {0, 3, 5});
  ASSERT_EQ(steps.size(), 4u);  // T = 4
  EXPECT_EQ(steps[0].shape(), (tensor::Shape{3, 1, 16, 16}));
  // Element (1, ...) of step t must equal sample 3's frame t.
  const data::Sample& s3 = split.train[3];
  const std::size_t plane = 256;
  for (int t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < plane; ++i) {
      ASSERT_EQ(steps[static_cast<std::size_t>(t)][plane + i],
                s3.frames[static_cast<std::size_t>(t) * plane + i]);
    }
  }
}

TEST(Trainer, BatchLabels) {
  const data::DatasetSplit split = small_mnist();
  const auto labels = batch_labels(split.train, {0, 1, 2});
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));  // round-robin classes
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 16;
  tc.eval_each_epoch = false;
  Trainer trainer(net, opt, split.train, &split.test, tc);
  const auto stats = trainer.run();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
}

TEST(Trainer, AccuracyImprovesOverChance) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  const double before = evaluate(net, split.test);
  Adam opt(2e-2);
  TrainConfig tc;
  tc.epochs = 12;
  tc.batch_size = 16;
  tc.eval_each_epoch = false;
  Trainer trainer(net, opt, split.train, &split.test, tc);
  trainer.run();
  const double after = evaluate(net, split.test);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 40.0);  // well above the 10% chance level
}

TEST(Trainer, PostEpochHookRunsEveryEpoch) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  int hook_calls = 0;
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 32;
  tc.eval_each_epoch = false;
  tc.post_epoch = [&hook_calls](Network&) { ++hook_calls; };
  Trainer trainer(net, opt, split.train, &split.test, tc);
  trainer.run();
  EXPECT_EQ(hook_calls, 3);
}

TEST(Trainer, OnEpochCallbackSeesMonotoneEpochIndex) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  std::vector<int> epochs;
  TrainConfig tc;
  tc.epochs = 3;
  tc.eval_each_epoch = false;
  tc.on_epoch = [&epochs](const EpochStats& s) { epochs.push_back(s.epoch); };
  Trainer trainer(net, opt, split.train, &split.test, tc);
  trainer.run();
  EXPECT_EQ(epochs, (std::vector<int>{0, 1, 2}));
}

TEST(Trainer, EvalEachEpochReportsAccuracy) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  TrainConfig tc;
  tc.epochs = 1;
  tc.eval_each_epoch = true;
  Trainer trainer(net, opt, split.train, &split.test, tc);
  const auto stats = trainer.run();
  EXPECT_FALSE(std::isnan(stats[0].test_accuracy));
  tc.eval_each_epoch = false;
  Network net2 = make_digit_classifier("d2", 1, 16, 10);
  Adam opt2(2e-2);
  Trainer t2(net2, opt2, split.train, &split.test, tc);
  EXPECT_TRUE(std::isnan(t2.run()[0].test_accuracy));
}

TEST(Trainer, DeterministicGivenSeeds) {
  const data::DatasetSplit split = small_mnist();
  auto run_once = [&]() {
    Network net = make_digit_classifier("d", 1, 16, 10);
    Adam opt(2e-2);
    TrainConfig tc;
    tc.epochs = 2;
    tc.eval_each_epoch = false;
    tc.shuffle_seed = 99;
    Trainer trainer(net, opt, split.train, &split.test, tc);
    trainer.run();
    return evaluate(net, split.test);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Trainer, InferRatesShape) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  const tensor::Tensor rates = infer_rates(net, split.test, {0, 1, 2, 3});
  EXPECT_EQ(rates.shape(), (tensor::Shape{4, 10}));
  // Rates are mean spike counts per step: within [0, 1].
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_GE(rates[i], 0.0f);
    EXPECT_LE(rates[i], 1.0f);
  }
}

TEST(Trainer, BatchedEvalIdenticalAtAnyBatchSize) {
  // Output rows are independent through the whole eval stack (GEMM rows,
  // eval-mode batchnorm uses running stats, dropout is identity), so
  // accuracy is bit-identical whether the test set is scored in
  // mini-batches, as one whole-set batch, or via a prebuilt EvalBatch.
  // Content-addressed store cells and CI CSV diffs rely on this.
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  TrainConfig tc;
  tc.epochs = 1;
  tc.eval_each_epoch = false;
  Trainer trainer(net, opt, split.train, &split.test, tc);
  trainer.run();
  const double acc_minibatch = evaluate(net, split.test, 16);
  const double acc_default = evaluate(net, split.test);
  const double acc_whole = evaluate(net, split.test, 0);
  const EvalBatch batch = make_eval_batch(split.test);
  const double acc_prebuilt = evaluate(net, batch);
  EXPECT_DOUBLE_EQ(acc_minibatch, acc_whole);
  EXPECT_DOUBLE_EQ(acc_default, acc_whole);
  EXPECT_DOUBLE_EQ(acc_prebuilt, acc_whole);
}

TEST(Trainer, EvalBatchLayout) {
  const data::DatasetSplit split = small_mnist();
  const EvalBatch batch = make_eval_batch(split.test);
  ASSERT_EQ(batch.steps.size(), 4u);  // T = 4
  EXPECT_EQ(batch.steps[0].shape()[0],
            static_cast<int>(split.test.size()));
  ASSERT_EQ(batch.labels.size(), split.test.size());
  for (int i = 0; i < split.test.size(); ++i) {
    EXPECT_EQ(batch.labels[static_cast<std::size_t>(i)], split.test[i].label);
  }
}

TEST(Trainer, BadConfigThrows) {
  const data::DatasetSplit split = small_mnist();
  Network net = make_digit_classifier("d", 1, 16, 10);
  Adam opt(2e-2);
  TrainConfig tc;
  tc.batch_size = 0;
  EXPECT_THROW(Trainer(net, opt, split.train, &split.test, tc),
               std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::snn
