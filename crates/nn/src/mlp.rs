//! A sequential stack of dense layers (multi-layer perceptron).
//!
//! The encoder in `mc-embedder` projects pooled n-gram embeddings through an
//! `Mlp` to produce the final query embedding. The MLP owns its layers,
//! exposes cached forward passes for backpropagation, and can flatten all of
//! its parameters into a single vector — the representation the federated
//! server aggregates with FedAvg.

use mc_tensor::Vector;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::layer::{DenseForward, DenseGrad, DenseLayer};
use crate::{Activation, NnError, Result};

/// A feed-forward stack of [`DenseLayer`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Gradients for every layer of an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpGrad {
    /// Per-layer gradients, front (input side) to back (output side).
    pub layers: Vec<DenseGrad>,
}

impl MlpGrad {
    /// Accumulates another gradient set.
    pub fn accumulate(&mut self, other: &MlpGrad) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::ShapeMismatch("gradient layer count".into()));
        }
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b)?;
        }
        Ok(())
    }

    /// Scales all gradients (e.g. by `1/batch_size`).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.layers.iter_mut() {
            g.scale(alpha);
        }
    }

    /// Global L2 norm across all layers.
    pub fn norm(&self) -> f32 {
        self.layers
            .iter()
            .map(|g| g.norm().powi(2))
            .sum::<f32>()
            .sqrt()
    }

    /// Clips the global gradient norm to `max_norm`, returning the scaling
    /// factor that was applied (1.0 when no clipping was needed).
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            self.scale(factor);
            factor
        } else {
            1.0
        }
    }
}

/// Cached activations of a full forward pass, used for backpropagation.
#[derive(Debug, Clone)]
pub struct MlpForward {
    /// The network input (layer 0's input; layer `i > 0` reads its input from
    /// `caches[i - 1].output`).
    input: Vec<f32>,
    caches: Vec<DenseForward>,
}

impl MlpForward {
    /// Final output of the network.
    pub fn output(&self) -> &[f32] {
        &self
            .caches
            .last()
            .expect("MlpForward always holds at least one layer cache")
            .output
    }

    /// The input layer `i` ran on.
    fn layer_input(&self, i: usize) -> &[f32] {
        match i.checked_sub(1) {
            Some(prev) => &self.caches[prev].output,
            None => &self.input,
        }
    }
}

impl Mlp {
    /// Builds an MLP from layer sizes `dims = [in, h1, ..., out]`, applying
    /// `hidden_activation` to all but the last layer which uses
    /// `output_activation`.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidHyperparameter`] when fewer than two sizes
    /// are given.
    pub fn new(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if dims.len() < 2 {
            return Err(NnError::InvalidHyperparameter(
                "Mlp::new requires at least [input, output] dimensions".into(),
            ));
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(DenseLayer::new(dims[i], dims[i + 1], act, rng));
        }
        Ok(Self { layers })
    }

    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when consecutive layer dimensions
    /// do not line up, or [`NnError::InvalidHyperparameter`] when empty.
    pub fn from_layers(layers: Vec<DenseLayer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidHyperparameter("empty layer list".into()));
        }
        for w in layers.windows(2) {
            if w[0].output_dim() != w[1].input_dim() {
                return Err(NnError::ShapeMismatch(format!(
                    "layer output {} does not feed layer input {}",
                    w[0].output_dim(),
                    w[1].input_dim()
                )));
            }
        }
        Ok(Self { layers })
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Borrow the layers.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutably borrow the layers (the optimiser needs this).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].output_dim()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Forward pass retaining per-layer caches for backpropagation.
    pub fn forward(&self, input: &[f32]) -> Result<MlpForward> {
        let mut forward = MlpForward {
            input: input.to_vec(),
            caches: Vec::with_capacity(self.layers.len()),
        };
        for (i, layer) in self.layers.iter().enumerate() {
            let cache = layer.forward(forward.layer_input(i))?;
            forward.caches.push(cache);
        }
        Ok(forward)
    }

    /// Inference-only forward pass.
    pub fn infer(&self, input: &[f32]) -> Result<Vec<f32>> {
        let (first, rest) = self
            .layers
            .split_first()
            .expect("an Mlp holds at least one layer");
        let mut current = first.infer(input)?;
        for layer in rest {
            current = layer.infer(&current)?;
        }
        Ok(current)
    }

    /// Backward pass: accumulates gradients for every layer into `grad` and
    /// returns the gradient w.r.t. the network input.
    pub fn backward(
        &self,
        forward: &MlpForward,
        d_output: &[f32],
        grad: &mut MlpGrad,
    ) -> Result<Vec<f32>> {
        if grad.layers.len() != self.layers.len() {
            return Err(NnError::ShapeMismatch("MlpGrad layer count".into()));
        }
        let step = |i: usize, d: &[f32], grad: &mut MlpGrad| {
            self.layers[i].backward(
                forward.layer_input(i),
                &forward.caches[i],
                d,
                &mut grad.layers[i],
            )
        };
        let last = self.layers.len() - 1;
        let mut d = step(last, d_output, grad)?;
        for i in (0..last).rev() {
            d = step(i, &d, grad)?;
        }
        Ok(d)
    }

    /// Zero gradients shaped for this network.
    pub fn zero_grad(&self) -> MlpGrad {
        MlpGrad {
            layers: self.layers.iter().map(|l| l.zero_grad()).collect(),
        }
    }

    /// Flattens all parameters into a single [`Vector`] (the FL exchange
    /// format).
    pub fn parameters(&self) -> Vector {
        let mut flat = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            layer.write_parameters(&mut flat);
        }
        Vector::from_vec(flat)
    }

    /// Loads parameters from a flat [`Vector`] produced by [`Mlp::parameters`].
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when the vector has the wrong length.
    pub fn set_parameters(&mut self, flat: &Vector) -> Result<()> {
        if flat.len() != self.parameter_count() {
            return Err(NnError::ShapeMismatch(format!(
                "set_parameters: expected {}, got {}",
                self.parameter_count(),
                flat.len()
            )));
        }
        let mut offset = 0;
        let slice = flat.as_slice();
        for layer in self.layers.iter_mut() {
            offset += layer.read_parameters(&slice[offset..])?;
        }
        Ok(())
    }

    /// Flattens all gradients in the same layout as [`Mlp::parameters`].
    pub fn flatten_grad(&self, grad: &MlpGrad) -> Vector {
        let mut flat = Vec::with_capacity(self.parameter_count());
        for g in &grad.layers {
            flat.extend_from_slice(g.d_weights.as_slice());
            flat.extend_from_slice(&g.d_bias);
        }
        Vector::from_vec(flat)
    }

    /// Applies a flat parameter delta: `params += alpha * delta`.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when the delta has the wrong length.
    pub fn apply_delta(&mut self, alpha: f32, delta: &Vector) -> Result<()> {
        let mut params = self.parameters();
        params
            .axpy(alpha, delta)
            .map_err(|e| NnError::ShapeMismatch(e.to_string()))?;
        self.set_parameters(&params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::rng::seeded;

    fn mlp() -> Mlp {
        let mut rng = seeded(3);
        Mlp::new(&[6, 5, 4], Activation::Tanh, Activation::Identity, &mut rng).unwrap()
    }

    #[test]
    fn construction_validates_dims() {
        let mut rng = seeded(1);
        assert!(Mlp::new(&[4], Activation::Tanh, Activation::Identity, &mut rng).is_err());
        let m = mlp();
        assert_eq!(m.layer_count(), 2);
        assert_eq!(m.input_dim(), 6);
        assert_eq!(m.output_dim(), 4);
        assert_eq!(m.parameter_count(), 6 * 5 + 5 + 5 * 4 + 4);
    }

    #[test]
    fn from_layers_checks_compatibility() {
        let mut rng = seeded(2);
        let l1 = DenseLayer::new(3, 4, Activation::Relu, &mut rng);
        let l2 = DenseLayer::new(5, 2, Activation::Identity, &mut rng);
        assert!(Mlp::from_layers(vec![l1.clone(), l2]).is_err());
        assert!(Mlp::from_layers(vec![]).is_err());
        let l3 = DenseLayer::new(4, 2, Activation::Identity, &mut rng);
        assert!(Mlp::from_layers(vec![l1, l3]).is_ok());
    }

    #[test]
    fn forward_and_infer_agree() {
        let m = mlp();
        let x = vec![0.1, -0.2, 0.3, 0.0, 0.5, -0.1];
        let f = m.forward(&x).unwrap();
        let inf = m.infer(&x).unwrap();
        assert_eq!(f.output(), inf.as_slice());
        assert_eq!(inf.len(), 4);
    }

    #[test]
    fn full_network_gradient_check() {
        let m = mlp();
        let x = vec![0.2, -0.4, 0.1, 0.7, -0.3, 0.05];
        // Loss = sum of outputs.
        let f = m.forward(&x).unwrap();
        let mut grad = m.zero_grad();
        let d_input = m.backward(&f, &[1.0; 4], &mut grad).unwrap();
        let loss_of = |m: &Mlp, x: &[f32]| -> f32 { m.infer(x).unwrap().iter().sum() };
        let h = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let numeric = (loss_of(&m, &xp) - loss_of(&m, &xm)) / (2.0 * h);
            assert!(
                (numeric - d_input[i]).abs() < 2e-2,
                "d_input[{i}]: numeric={numeric} analytic={}",
                d_input[i]
            );
        }
    }

    #[test]
    fn parameter_round_trip_and_delta() {
        let m = mlp();
        let params = m.parameters();
        assert_eq!(params.len(), m.parameter_count());
        let mut copy = mlp();
        copy.set_parameters(&params).unwrap();
        assert_eq!(copy.parameters(), params);

        let mut shifted = mlp();
        let delta = Vector::filled(m.parameter_count(), 0.5);
        shifted.set_parameters(&params).unwrap();
        shifted.apply_delta(2.0, &delta).unwrap();
        let diff = shifted.parameters().sub(&params).unwrap();
        assert!(diff.as_slice().iter().all(|&d| (d - 1.0).abs() < 1e-6));

        assert!(copy.set_parameters(&Vector::zeros(3)).is_err());
        assert!(copy.apply_delta(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn gradient_clipping_reduces_norm() {
        let m = mlp();
        let x = vec![1.0; 6];
        let f = m.forward(&x).unwrap();
        let mut grad = m.zero_grad();
        m.backward(&f, &[10.0; 4], &mut grad).unwrap();
        let before = grad.norm();
        assert!(before > 1.0);
        let factor = grad.clip_global_norm(1.0);
        assert!(factor < 1.0);
        assert!((grad.norm() - 1.0).abs() < 1e-3);
        // Clipping an already-small gradient is a no-op.
        assert_eq!(grad.clip_global_norm(100.0), 1.0);
    }

    #[test]
    fn grad_accumulate_checks_shapes() {
        let m = mlp();
        let mut g1 = m.zero_grad();
        let g2 = m.zero_grad();
        assert!(g1.accumulate(&g2).is_ok());
        let other = Mlp::new(
            &[2, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut seeded(9),
        )
        .unwrap();
        assert!(g1.accumulate(&other.zero_grad()).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let m = mlp();
        let json = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = vec![0.3; 6];
        assert_eq!(m.infer(&x).unwrap(), back.infer(&x).unwrap());
    }
}
