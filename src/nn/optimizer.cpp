#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

namespace hsd::nn {

namespace {

using hsd::common::read_f32_array;
using hsd::common::read_pod;
using hsd::common::write_f32_array;
using hsd::common::write_pod;

// Optimizer state layout: per parameter (in `params` order) a presence byte
// and, when present, one accumulator tensor per slot. A parameter whose
// accumulator has not been materialized yet (no step taken, or momentum
// disabled) is written as absent and stays lazily created on load.

/// Writes `slots` accumulator tensors per present parameter from `state`,
/// a pointer-keyed map looked up via a slot-extraction callback.
template <class Map, class GetSlots>
void write_accumulators(std::ostream& os, const std::vector<Param>& params,
                        const Map& state, std::size_t slots, GetSlots get) {
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const auto& p : params) {
    const auto it = state.find(p.value);
    const std::uint8_t present = it != state.end() ? 1 : 0;
    write_pod(os, present);
    if (!present) continue;
    const auto tensors = get(it->second);
    HSD_CHECK_EQ(tensors.size(), slots, "optimizer save_state");
    for (const Tensor* t : tensors) {
      HSD_CHECK_EQ(t->size(), p.value->size(), "optimizer save_state: param ", p.name);
      write_f32_array(os, t->data(), t->size());
    }
  }
}

/// Inverse of write_accumulators: recreates present accumulators shaped
/// like their parameter and fills them from the stream.
template <class Map, class MakeEntry, class GetSlots>
void read_accumulators(std::istream& is, const std::vector<Param>& params, Map& state,
                       std::size_t slots, MakeEntry make, GetSlots get) {
  const auto count = read_pod<std::uint64_t>(is);
  if (count != params.size()) {
    throw std::runtime_error("optimizer load_state: parameter count mismatch");
  }
  state.clear();
  for (const auto& p : params) {
    const auto present = read_pod<std::uint8_t>(is);
    if (!present) continue;
    auto [it, inserted] = state.try_emplace(p.value, make(*p.value));
    const auto tensors = get(it->second);
    HSD_CHECK_EQ(tensors.size(), slots, "optimizer load_state");
    for (Tensor* t : tensors) read_f32_array(is, t->data(), t->size());
  }
}

}  // namespace

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Sgd: lr <= 0");
}

void Sgd::step(const std::vector<Param>& params) {
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr) continue;
    Tensor& val = *p.value;
    const Tensor& grad = *p.grad;
    HSD_CHECK_EQ(grad.size(), val.size(), "optimizer step: param ", p.name);
    if (momentum_ > 0.0) {
      auto [it, inserted] = velocity_.try_emplace(p.value, Tensor(val.shape()));
      Tensor& vel = it->second;
      for (std::size_t i = 0; i < val.size(); ++i) {
        const float g = grad[i] + static_cast<float>(weight_decay_) * val[i];
        vel[i] = static_cast<float>(momentum_) * vel[i] + g;
        val[i] -= static_cast<float>(lr_) * vel[i];
      }
    } else {
      for (std::size_t i = 0; i < val.size(); ++i) {
        const float g = grad[i] + static_cast<float>(weight_decay_) * val[i];
        val[i] -= static_cast<float>(lr_) * g;
      }
    }
  }
}

void Sgd::save_state(std::ostream& os, const std::vector<Param>& params) const {
  write_accumulators(os, params, velocity_, 1, [](const Tensor& v) {
    return std::vector<const Tensor*>{&v};
  });
}

void Sgd::load_state(std::istream& is, const std::vector<Param>& params) {
  read_accumulators(
      is, params, velocity_, 1, [](const Tensor& p) { return Tensor(p.shape()); },
      [](Tensor& v) { return std::vector<Tensor*>{&v}; });
}

RmsProp::RmsProp(double lr, double decay, double eps, double weight_decay)
    : lr_(lr), decay_(decay), eps_(eps), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("RmsProp: lr <= 0");
  if (decay <= 0.0 || decay >= 1.0) throw std::invalid_argument("RmsProp: decay");
}

void RmsProp::step(const std::vector<Param>& params) {
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr) continue;
    Tensor& val = *p.value;
    const Tensor& grad = *p.grad;
    HSD_CHECK_EQ(grad.size(), val.size(), "optimizer step: param ", p.name);
    auto [it, inserted] = mean_square_.try_emplace(p.value, Tensor(val.shape()));
    Tensor& ms = it->second;
    for (std::size_t i = 0; i < val.size(); ++i) {
      const double g = static_cast<double>(grad[i]) + weight_decay_ * val[i];
      ms[i] = static_cast<float>(decay_ * ms[i] + (1.0 - decay_) * g * g);
      val[i] -= static_cast<float>(lr_ * g / (std::sqrt(static_cast<double>(ms[i])) + eps_));
    }
  }
}

void RmsProp::save_state(std::ostream& os, const std::vector<Param>& params) const {
  write_accumulators(os, params, mean_square_, 1, [](const Tensor& ms) {
    return std::vector<const Tensor*>{&ms};
  });
}

void RmsProp::load_state(std::istream& is, const std::vector<Param>& params) {
  read_accumulators(
      is, params, mean_square_, 1, [](const Tensor& p) { return Tensor(p.shape()); },
      [](Tensor& ms) { return std::vector<Tensor*>{&ms}; });
}

StepDecaySchedule::StepDecaySchedule(Optimizer& optimizer, std::size_t period,
                                     double gamma)
    : optimizer_(optimizer), period_(period), gamma_(gamma) {
  if (period == 0) throw std::invalid_argument("StepDecaySchedule: period == 0");
  if (gamma <= 0.0 || gamma > 1.0) throw std::invalid_argument("StepDecaySchedule: gamma");
}

void StepDecaySchedule::advance() {
  steps_++;
  if (steps_ % period_ == 0) {
    optimizer_.set_learning_rate(optimizer_.learning_rate() * gamma_);
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps, double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr <= 0");
}

void Adam::step(const std::vector<Param>& params) {
  HSD_SPAN("nn/adam_step");
  step_count_++;
  const double bc1 = 1.0 - std::pow(beta1_, step_count_);
  const double bc2 = 1.0 - std::pow(beta2_, step_count_);
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr) continue;
    Tensor& val = *p.value;
    const Tensor& grad = *p.grad;
    HSD_CHECK_EQ(grad.size(), val.size(), "optimizer step: param ", p.name);
    auto [it, inserted] =
        moments_.try_emplace(p.value, Moments{Tensor(val.shape()), Tensor(val.shape())});
    Tensor& m = it->second.m;
    Tensor& v = it->second.v;
    for (std::size_t i = 0; i < val.size(); ++i) {
      const double g = static_cast<double>(grad[i]) + weight_decay_ * val[i];
      m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(beta2_ * v[i] + (1.0 - beta2_) * g * g);
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      val[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

void Adam::save_state(std::ostream& os, const std::vector<Param>& params) const {
  write_pod(os, static_cast<std::int64_t>(step_count_));
  write_accumulators(os, params, moments_, 2, [](const Moments& mo) {
    return std::vector<const Tensor*>{&mo.m, &mo.v};
  });
}

void Adam::load_state(std::istream& is, const std::vector<Param>& params) {
  step_count_ = static_cast<long>(read_pod<std::int64_t>(is));
  read_accumulators(
      is, params, moments_, 2,
      [](const Tensor& p) { return Moments{Tensor(p.shape()), Tensor(p.shape())}; },
      [](Moments& mo) { return std::vector<Tensor*>{&mo.m, &mo.v}; });
}

}  // namespace hsd::nn
