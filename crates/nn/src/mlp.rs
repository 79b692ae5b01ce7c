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
    /// Buffers [`Mlp::backward`] reuses from call to call: a layer's
    /// delta, and the gradient passed down between layers (two, swapped).
    /// Not gradient state.
    scratch: [Vec<f32>; 3],
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

    /// Resets every layer's gradient to zero, keeping the allocations.
    pub fn clear(&mut self) {
        for g in self.layers.iter_mut() {
            g.clear();
        }
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
    /// writes the gradient w.r.t. the network input into `d_input` (cleared
    /// first). Intermediate buffers live in `grad`, so a training loop that
    /// reuses one `grad` and one `d_input` allocates nothing per call.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when `grad` or `d_output` does not
    /// match this network.
    pub fn backward(
        &self,
        forward: &MlpForward,
        d_output: &[f32],
        grad: &mut MlpGrad,
        d_input: &mut Vec<f32>,
    ) -> Result<()> {
        if grad.layers.len() != self.layers.len() {
            return Err(NnError::ShapeMismatch("MlpGrad layer count".into()));
        }
        let [delta, upper, lower] = &mut grad.scratch;
        let last = self.layers.len() - 1;
        for i in (0..=last).rev() {
            // The gradient arriving at layer `i`'s output, and where the one
            // leaving its input goes.
            let d: &[f32] = if i == last { d_output } else { upper };
            let out = if i == 0 { &mut *d_input } else { &mut *lower };
            self.layers[i].backward(
                forward.layer_input(i),
                &forward.caches[i],
                d,
                &mut grad.layers[i],
                delta,
                out,
            )?;
            std::mem::swap(upper, lower);
        }
        Ok(())
    }

    /// Zero gradients shaped for this network.
    pub fn zero_grad(&self) -> MlpGrad {
        MlpGrad {
            layers: self.layers.iter().map(|l| l.zero_grad()).collect(),
            scratch: Default::default(),
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
        assert_eq!(m.input_dim(), 6);
        assert_eq!(m.output_dim(), 4);
        assert_eq!(m.parameter_count(), 6 * 5 + 5 + 5 * 4 + 4);
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
        let mut d_input = Vec::new();
        m.backward(&f, &[1.0; 4], &mut grad, &mut d_input).unwrap();
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
        let mut moved = params.clone();
        moved.axpy(2.0, &delta).unwrap();
        shifted.set_parameters(&moved).unwrap();
        let diff = shifted.parameters().sub(&params).unwrap();
        assert!(diff.as_slice().iter().all(|&d| (d - 1.0).abs() < 1e-6));

        assert!(copy.set_parameters(&Vector::zeros(3)).is_err());
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
