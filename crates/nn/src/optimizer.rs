//! Optimisers operating on flat parameter/gradient slices.
//!
//! The encoder keeps its parameters in several tensors (embedding table,
//! layer weights, biases). Rather than special-casing each one, the
//! optimisers here are addressed by a *slot* index: each distinct tensor gets
//! a slot, and the optimiser lazily allocates whatever per-parameter state it
//! needs (momentum buffers, Adam moments) for that slot the first time it is
//! stepped. This mirrors how the SBERT trainer treats parameter groups.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::{NnError, Result};

/// Common interface for gradient-descent optimisers.
pub trait Optimizer {
    /// Applies one update step: `params -= f(grads)` for the tensor in `slot`.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when `params` and `grads` differ in
    /// length or the slot was previously used with a different length.
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by LR schedules / FL hyperparameters).
    fn set_learning_rate(&mut self, lr: f32);

    /// Clears all accumulated state (momentum, moments, step counts).
    fn reset(&mut self);
}

/// Stochastic gradient descent with classical momentum and optional weight
/// decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidHyperparameter`] for non-positive learning
    /// rates or momentum outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Result<Self> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(NnError::InvalidHyperparameter(format!("lr={lr}")));
        }
        if !(0.0..1.0).contains(&momentum) {
            return Err(NnError::InvalidHyperparameter(format!(
                "momentum={momentum}"
            )));
        }
        if weight_decay < 0.0 {
            return Err(NnError::InvalidHyperparameter(format!(
                "weight_decay={weight_decay}"
            )));
        }
        Ok(Self {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        })
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::ShapeMismatch(format!(
                "sgd step: params {} vs grads {}",
                params.len(),
                grads.len()
            )));
        }
        let velocity = self
            .velocity
            .entry(slot)
            .or_insert_with(|| vec![0.0; params.len()]);
        if velocity.len() != params.len() {
            return Err(NnError::ShapeMismatch(format!(
                "sgd step: slot {slot} was sized {} but now receives {}",
                velocity.len(),
                params.len()
            )));
        }
        // Element-wise over three equal-length slices: zipped so the compiler
        // drops the bounds checks and vectorises (see `mc_tensor::vector::axpy`
        // for why that cannot change a bit of the result).
        for ((p, &grad), vel) in params.iter_mut().zip(grads).zip(velocity.iter_mut()) {
            let g = grad + self.weight_decay * *p;
            *vel = self.momentum * *vel + g;
            *p -= self.lr * *vel;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// Adam optimiser (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    weight_decay: f32,
    /// Per-slot (first moment, second moment, step count).
    state: HashMap<usize, AdamSlot>,
    /// `(1 - beta1^t, 1 - beta2^t)` at index `t - 1`, filled as step counts
    /// are first reached. A pure function of the betas, which never change.
    #[serde(default)]
    bias_corrections: Vec<(f32, f32)>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimiser with the given learning rate and default
    /// betas (0.9, 0.999).
    ///
    /// # Errors
    /// Returns [`NnError::InvalidHyperparameter`] for invalid rates/betas.
    pub fn new(lr: f32) -> Result<Self> {
        Self::with_config(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Creates an Adam optimiser with explicit hyper-parameters.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidHyperparameter`] when any value is outside
    /// its valid range.
    pub fn with_config(
        lr: f32,
        beta1: f32,
        beta2: f32,
        epsilon: f32,
        weight_decay: f32,
    ) -> Result<Self> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(NnError::InvalidHyperparameter(format!("lr={lr}")));
        }
        for (name, b) in [("beta1", beta1), ("beta2", beta2)] {
            if !(0.0..1.0).contains(&b) {
                return Err(NnError::InvalidHyperparameter(format!("{name}={b}")));
            }
        }
        if epsilon <= 0.0 || weight_decay < 0.0 {
            return Err(NnError::InvalidHyperparameter(
                "epsilon must be > 0 and weight_decay >= 0".into(),
            ));
        }
        Ok(Self {
            lr,
            beta1,
            beta2,
            epsilon,
            weight_decay,
            state: HashMap::new(),
            bias_corrections: Vec::new(),
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::ShapeMismatch(format!(
                "adam step: params {} vs grads {}",
                params.len(),
                grads.len()
            )));
        }
        let entry = self.state.entry(slot).or_insert_with(|| AdamSlot {
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        });
        if entry.m.len() != params.len() {
            return Err(NnError::ShapeMismatch(format!(
                "adam step: slot {slot} was sized {} but now receives {}",
                entry.m.len(),
                params.len()
            )));
        }
        entry.t += 1;
        let (beta1, beta2) = (self.beta1, self.beta2);
        let correction = |t: u64| (1.0 - beta1.powf(t as f32), 1.0 - beta2.powf(t as f32));
        // Slots step at different times (an embedding-table row only when a
        // batch activates it), but a count is at most one past the largest
        // any slot has reached, so the table grows by one entry at a time and
        // each count's two `powf`s are computed once. (A count beyond that —
        // state restored without its table — is simply computed.)
        let index = (entry.t - 1) as usize;
        let (bias1, bias2) = match self.bias_corrections.get(index) {
            Some(&cached) => cached,
            None => {
                let fresh = correction(entry.t);
                if index == self.bias_corrections.len() {
                    self.bias_corrections.push(fresh);
                }
                fresh
            }
        };
        let moments = entry.m.iter_mut().zip(entry.v.iter_mut());
        // Element-wise and zipped, as in `Sgd::step`; SIMD division and
        // square root are correctly rounded, so the vector form is exact.
        for ((p, &grad), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            let g = grad + self.weight_decay * *p;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises f(x) = (x - 3)^2 and returns the final x.
    fn minimise_quadratic<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut x = vec![0.0f32];
        for _ in 0..steps {
            let grad = vec![2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &grad).unwrap();
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0).unwrap();
        let x = minimise_quadratic(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    fn sgd_with_momentum_converges_faster_than_without() {
        let mut plain = Sgd::new(0.02, 0.0, 0.0).unwrap();
        let mut momentum = Sgd::new(0.02, 0.9, 0.0).unwrap();
        let x_plain = minimise_quadratic(&mut plain, 30);
        let x_mom = minimise_quadratic(&mut momentum, 30);
        assert!((x_mom - 3.0).abs() < (x_plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3).unwrap();
        let x = minimise_quadratic(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-2, "x={x}");
    }

    /// Parameters and gradients where a wrong lane, a fused multiply-add, a
    /// flushed subnormal or an approximate `sqrt`/`div` would show.
    fn adversarial(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        const SPECIALS: [f32; 10] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -1.0e-45,
            3.0e-42,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NAN,
            1.0e-20,
        ];
        let mut rng = mc_tensor::rng::seeded(seed);
        let mut values = mc_tensor::rng::uniform_vec(n, scale, &mut rng);
        for (i, v) in values.iter_mut().enumerate() {
            if i % 4 == seed as usize % 4 {
                *v = SPECIALS[(i / 4 + seed as usize) % SPECIALS.len()];
            }
        }
        values
    }

    /// Bit patterns with every NaN folded to one.
    fn bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    /// The update rules written one operation at a time through `black_box`,
    /// so the optimiser can neither vectorise nor fuse them: what `step` must
    /// equal bit for bit in a `--release` build (debug builds do not
    /// vectorise `step` either, so there the comparison is trivial).
    struct ScalarReference {
        velocity: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        t: u64,
    }

    impl ScalarReference {
        fn new(n: usize) -> Self {
            Self {
                velocity: vec![0.0; n],
                m: vec![0.0; n],
                v: vec![0.0; n],
                t: 0,
            }
        }

        fn sgd(&mut self, lr: f32, momentum: f32, decay: f32, params: &mut [f32], grads: &[f32]) {
            use std::hint::black_box as bb;
            for i in 0..params.len() {
                let g = bb(grads[i] + bb(decay * params[i]));
                self.velocity[i] = bb(bb(momentum * self.velocity[i]) + g);
                params[i] = bb(params[i] - bb(lr * self.velocity[i]));
            }
        }

        fn adam(&mut self, cfg: [f32; 5], params: &mut [f32], grads: &[f32]) {
            use std::hint::black_box as bb;
            let [lr, beta1, beta2, epsilon, decay] = cfg;
            self.t += 1;
            let bias1 = 1.0 - beta1.powf(self.t as f32);
            let bias2 = 1.0 - beta2.powf(self.t as f32);
            for i in 0..params.len() {
                let g = bb(grads[i] + bb(decay * params[i]));
                self.m[i] = bb(bb(beta1 * self.m[i]) + bb(bb(1.0 - beta1) * g));
                self.v[i] = bb(bb(beta2 * self.v[i]) + bb(bb(bb(1.0 - beta2) * g) * g));
                let m_hat = bb(self.m[i] / bias1);
                let v_hat = bb(self.v[i] / bias2);
                let step = bb(bb(lr * m_hat) / bb(bb(v_hat.sqrt()) + epsilon));
                params[i] = bb(params[i] - step);
            }
        }
    }

    #[test]
    fn sgd_step_is_bit_equal_to_the_scalar_loop() {
        for n in 0..=67 {
            for (case, &(lr, momentum, decay)) in [
                (0.1f32, 0.9f32, 0.0f32),
                (3.0e3, 0.0, 0.5),
                (1.0e-30, 0.5, 1.0e-3),
            ]
            .iter()
            .enumerate()
            {
                let mut opt = Sgd::new(lr, momentum, decay).unwrap();
                let mut reference = ScalarReference::new(n);
                let mut actual = adversarial(n, case as u64, 2.0);
                let mut expected = actual.clone();
                for round in 0..3 {
                    let grads = adversarial(n, 10 + round + case as u64, 1.0e2);
                    opt.step(0, &mut actual, &grads).unwrap();
                    reference.sgd(lr, momentum, decay, &mut expected, &grads);
                    assert_eq!(
                        bits(&actual),
                        bits(&expected),
                        "n={n} case={case} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn adam_step_is_bit_equal_to_the_scalar_loop() {
        for n in 0..=67 {
            for (case, cfg) in [
                [0.02f32, 0.9, 0.999, 1e-8, 0.0],
                [5.0e2, 0.5, 0.25, 1.0e-30, 0.1],
                [1.0e-12, 0.0, 0.99, 1.0, 3.0],
            ]
            .into_iter()
            .enumerate()
            {
                let [lr, beta1, beta2, epsilon, decay] = cfg;
                let mut opt = Adam::with_config(lr, beta1, beta2, epsilon, decay).unwrap();
                // Two slots stepped at different rates, as embedding-table
                // rows are: slot 1 reaches a step count after slot 0 did, so
                // it reads the bias corrections slot 0 left in the table.
                let mut references = [ScalarReference::new(n), ScalarReference::new(n)];
                let mut actual = [adversarial(n, case as u64, 2.0), adversarial(n, 50, 0.1)];
                let mut expected = actual.clone();
                for round in 0..5u64 {
                    for slot in 0..2 {
                        if slot == 1 && round % 2 == 1 {
                            continue;
                        }
                        let scale = [1.0e2, 1.0e-20, 1.0e15][round as usize % 3];
                        let grads = adversarial(n, 10 + round + slot as u64, scale);
                        opt.step(slot, &mut actual[slot], &grads).unwrap();
                        references[slot].adam(cfg, &mut expected[slot], &grads);
                        assert_eq!(
                            bits(&actual[slot]),
                            bits(&expected[slot]),
                            "n={n} case={case} round={round} slot={slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adam_state_restored_without_its_bias_table_steps_the_same() {
        let mut opt = Adam::new(0.05).unwrap();
        let mut a = vec![0.3f32, -0.7, 1.1];
        for _ in 0..4 {
            opt.step(9, &mut a, &[0.2, -0.1, 0.4]).unwrap();
        }
        let mut restored = opt.clone();
        restored.bias_corrections.clear();
        let mut b = a.clone();
        opt.step(9, &mut a, &[0.5, 0.5, -0.5]).unwrap();
        restored.step(9, &mut b, &[0.5, 0.5, -0.5]).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5).unwrap();
        let mut params = vec![1.0f32];
        for _ in 0..10 {
            opt.step(0, &mut params, &[0.0]).unwrap();
        }
        assert!(params[0] < 1.0 && params[0] > 0.0);
    }

    #[test]
    fn invalid_hyperparameters_are_rejected() {
        assert!(Sgd::new(0.0, 0.0, 0.0).is_err());
        assert!(Sgd::new(0.1, 1.5, 0.0).is_err());
        assert!(Sgd::new(0.1, 0.0, -1.0).is_err());
        assert!(Adam::new(-0.1).is_err());
        assert!(Adam::with_config(0.1, 1.0, 0.9, 1e-8, 0.0).is_err());
        assert!(Adam::with_config(0.1, 0.9, 0.999, 0.0, 0.0).is_err());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut opt = Adam::new(0.1).unwrap();
        let mut params = vec![0.0; 3];
        assert!(opt.step(0, &mut params, &[0.0; 2]).is_err());
        // First valid use sizes the slot; a later mismatch is detected.
        opt.step(1, &mut params, &[0.1; 3]).unwrap();
        let mut smaller = vec![0.0; 2];
        assert!(opt.step(1, &mut smaller, &[0.1; 2]).is_err());
    }

    #[test]
    fn separate_slots_do_not_interfere() {
        let mut opt = Adam::new(0.5).unwrap();
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32; 4];
        opt.step(0, &mut a, &[1.0]).unwrap();
        opt.step(1, &mut b, &[1.0; 4]).unwrap();
        assert!(a[0] < 0.0);
        assert!(b.iter().all(|&x| x < 0.0));
    }

    #[test]
    fn reset_and_learning_rate_setters() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0).unwrap();
        let mut x = vec![0.0f32];
        opt.step(0, &mut x, &[1.0]).unwrap();
        opt.reset();
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.5);
        assert_eq!(opt.learning_rate(), 0.5);

        let mut adam = Adam::new(0.01).unwrap();
        adam.set_learning_rate(0.2);
        assert_eq!(adam.learning_rate(), 0.2);
        adam.reset();
    }
}
