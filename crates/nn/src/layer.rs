//! Dense (fully-connected) layers with manual backpropagation.

use mc_tensor::{rng, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::{Activation, NnError, Result};

/// A dense layer computing `activation(x * W + b)` for row-vector inputs.
///
/// Weights are stored as an `input_dim x output_dim` matrix so a mini-batch
/// (rows = samples) can be pushed through with a single parallel matmul.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

/// Accumulated gradients for one dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrad {
    /// Gradient of the loss w.r.t. the weight matrix.
    pub d_weights: Matrix,
    /// Gradient of the loss w.r.t. the bias vector.
    pub d_bias: Vec<f32>,
}

impl DenseGrad {
    /// Zero gradients matching a layer's shape.
    pub fn zeros(input_dim: usize, output_dim: usize) -> Self {
        Self {
            d_weights: Matrix::zeros(input_dim, output_dim),
            d_bias: vec![0.0; output_dim],
        }
    }

    /// Adds another gradient (used when accumulating over a mini-batch).
    pub fn accumulate(&mut self, other: &DenseGrad) -> Result<()> {
        self.d_weights
            .add_scaled(1.0, &other.d_weights)
            .map_err(|e| NnError::ShapeMismatch(e.to_string()))?;
        if self.d_bias.len() != other.d_bias.len() {
            return Err(NnError::ShapeMismatch("bias gradient length".into()));
        }
        for (a, b) in self.d_bias.iter_mut().zip(&other.d_bias) {
            *a += b;
        }
        Ok(())
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.d_weights.as_mut_slice().fill(0.0);
        self.d_bias.fill(0.0);
    }

    /// Scales the accumulated gradient (e.g. by `1/batch_size`).
    pub fn scale(&mut self, alpha: f32) {
        self.d_weights.scale(alpha);
        for b in self.d_bias.iter_mut() {
            *b *= alpha;
        }
    }

    /// L2 norm over all gradient entries (for clipping / diagnostics).
    pub fn norm(&self) -> f32 {
        let w = self.d_weights.frobenius_norm();
        let b = mc_tensor::vector::norm(&self.d_bias);
        (w * w + b * b).sqrt()
    }
}

/// The values a forward pass produces that the backward pass needs besides
/// the layer's input, which the caller already holds (it is the previous
/// layer's output, or the network input).
#[derive(Debug, Clone)]
pub struct DenseForward {
    /// Pre-activation values `x * W + b`.
    pub pre_activation: Vec<f32>,
    /// Post-activation output.
    pub output: Vec<f32>,
}

impl DenseLayer {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let weights = match activation {
            Activation::Relu | Activation::Gelu => rng::he_matrix(input_dim, output_dim, rng),
            _ => rng::xavier_matrix(input_dim, output_dim, rng),
        };
        Self {
            weights,
            bias: vec![0.0; output_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutably borrow the weight matrix (the optimiser updates in place).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutably borrow the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// `x * W + b` for a single row vector.
    fn pre_activation(&self, input: &[f32]) -> Result<Vec<f32>> {
        if input.len() != self.input_dim() {
            return Err(NnError::ShapeMismatch(format!(
                "dense forward: input {} vs expected {}",
                input.len(),
                self.input_dim()
            )));
        }
        let mut pre = self
            .weights
            .vecmat(input)
            .map_err(|e| NnError::ShapeMismatch(e.to_string()))?;
        for (p, b) in pre.iter_mut().zip(&self.bias) {
            *p += *b;
        }
        Ok(pre)
    }

    /// Forward pass for a single row vector, returning the cache the backward
    /// pass needs.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when `input.len() != input_dim`.
    pub fn forward(&self, input: &[f32]) -> Result<DenseForward> {
        let pre_activation = self.pre_activation(input)?;
        let output = pre_activation
            .iter()
            .map(|&p| self.activation.apply(p))
            .collect();
        Ok(DenseForward {
            pre_activation,
            output,
        })
    }

    /// Inference-only forward pass: one allocation, the output, activated in
    /// place.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when `input.len() != input_dim`.
    pub fn infer(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut output = self.pre_activation(input)?;
        self.activation.apply_slice(&mut output);
        Ok(output)
    }

    /// Backward pass: given the `input` the forward pass ran on, its cache
    /// and `d_output` (gradient of the loss w.r.t. this layer's output),
    /// accumulates parameter gradients into `grad` and writes the gradient
    /// w.r.t. the layer input into `d_input`. `delta` is scratch. Both
    /// buffers are cleared first, so a training loop that keeps them
    /// allocates nothing per call.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when `d_output.len() != output_dim`.
    pub fn backward(
        &self,
        input: &[f32],
        cache: &DenseForward,
        d_output: &[f32],
        grad: &mut DenseGrad,
        delta: &mut Vec<f32>,
        d_input: &mut Vec<f32>,
    ) -> Result<()> {
        if d_output.len() != self.output_dim() {
            return Err(NnError::ShapeMismatch(format!(
                "dense backward: d_output {} vs expected {}",
                d_output.len(),
                self.output_dim()
            )));
        }
        // delta = d_output * activation'(pre_activation)
        let act = self.activation;
        delta.clear();
        delta.extend(
            d_output
                .iter()
                .zip(&cache.pre_activation)
                .zip(&cache.output)
                .map(|((&d, &pre), &out)| d * act.derivative_from_forward(pre, out)),
        );
        // dW += input^T (outer) delta ; db += delta
        grad.d_weights
            .add_outer(1.0, input, delta)
            .map_err(|e| NnError::ShapeMismatch(e.to_string()))?;
        for (b, d) in grad.d_bias.iter_mut().zip(delta.iter()) {
            *b += d;
        }
        // d_input = W * delta  (weights are input_dim x output_dim)
        self.weights
            .matvec_into(delta, d_input)
            .map_err(|e| NnError::ShapeMismatch(e.to_string()))
    }

    /// Zero-shaped gradient for this layer.
    pub fn zero_grad(&self) -> DenseGrad {
        DenseGrad::zeros(self.input_dim(), self.output_dim())
    }

    /// Flattens the parameters (weights row-major, then bias) into `out`.
    pub fn write_parameters(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads parameters back from a flat slice, returning how many values
    /// were consumed.
    ///
    /// # Errors
    /// Returns [`NnError::ShapeMismatch`] when the slice is too short.
    pub fn read_parameters(&mut self, flat: &[f32]) -> Result<usize> {
        let need = self.parameter_count();
        if flat.len() < need {
            return Err(NnError::ShapeMismatch(format!(
                "read_parameters: need {need}, got {}",
                flat.len()
            )));
        }
        let w_len = self.weights.len();
        self.weights.as_mut_slice().copy_from_slice(&flat[..w_len]);
        self.bias.copy_from_slice(&flat[w_len..need]);
        Ok(need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_tensor::rng::seeded;

    fn layer(activation: Activation) -> DenseLayer {
        let mut rng = seeded(42);
        DenseLayer::new(4, 3, activation, &mut rng)
    }

    #[test]
    fn forward_shapes_are_checked() {
        let l = layer(Activation::Tanh);
        assert!(l.forward(&[1.0, 2.0]).is_err());
        let f = l.forward(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(f.output.len(), 3);
        assert_eq!(f.pre_activation.len(), 3);
        assert_eq!(l.parameter_count(), 15);
    }

    #[test]
    fn identity_forward_matches_manual_computation() {
        let mut l = DenseLayer::new(3, 2, Activation::Identity, &mut seeded(1));
        // Row-major 3x2 weights, then the bias.
        l.read_parameters(&[1.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.5, -0.5])
            .unwrap();
        let out = l.infer(&[1.0, 2.0, 3.0]).unwrap();
        // pre = [1*1+2*0+3*1, 1*0+2*2+3*1] + bias = [4+0.5, 7-0.5]
        assert_eq!(out, vec![4.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_numerical_gradients() {
        // Scalar loss L = sum(output). Check dL/dW, dL/db, dL/dx numerically.
        let mut l = layer(Activation::Tanh);
        let x = vec![0.3, -0.2, 0.5, 0.1];
        let cache = l.forward(&x).unwrap();
        let d_output = vec![1.0; 3];
        let mut grad = l.zero_grad();
        let mut d_input = Vec::new();
        l.backward(
            &x,
            &cache,
            &d_output,
            &mut grad,
            &mut Vec::new(),
            &mut d_input,
        )
        .unwrap();

        let loss_of = |l: &DenseLayer, x: &[f32]| -> f32 { l.infer(x).unwrap().iter().sum() };
        let h = 1e-3;

        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let numeric = (loss_of(&l, &xp) - loss_of(&l, &xm)) / (2.0 * h);
            assert!(
                (numeric - d_input[i]).abs() < 1e-2,
                "d_input[{i}]: numeric={numeric} analytic={}",
                d_input[i]
            );
        }

        // Weight gradient (spot-check a few entries).
        for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
            let orig = l.weights().get(r, c);
            l.weights_mut().set(r, c, orig + h);
            let up = loss_of(&l, &x);
            l.weights_mut().set(r, c, orig - h);
            let down = loss_of(&l, &x);
            l.weights_mut().set(r, c, orig);
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (numeric - grad.d_weights.get(r, c)).abs() < 1e-2,
                "dW[{r},{c}]: numeric={numeric} analytic={}",
                grad.d_weights.get(r, c)
            );
        }

        // Bias gradient.
        for i in 0..3 {
            let orig = l.bias()[i];
            l.bias_mut()[i] = orig + h;
            let up = loss_of(&l, &x);
            l.bias_mut()[i] = orig - h;
            let down = loss_of(&l, &x);
            l.bias_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - grad.d_bias[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn gradient_accumulation_and_scaling() {
        let l = layer(Activation::Identity);
        let mut g1 = l.zero_grad();
        let mut g2 = l.zero_grad();
        let x = [1.0, 1.0, 1.0, 1.0];
        let cache = l.forward(&x).unwrap();
        let (mut delta, mut d_input) = (Vec::new(), Vec::new());
        for g in [&mut g1, &mut g2] {
            l.backward(&x, &cache, &[1.0, 1.0, 1.0], g, &mut delta, &mut d_input)
                .unwrap();
        }
        let single_norm = g1.norm();
        g1.accumulate(&g2).unwrap();
        assert!((g1.norm() - 2.0 * single_norm).abs() < 1e-4);
        g1.scale(0.5);
        assert!((g1.norm() - single_norm).abs() < 1e-4);
        assert!(g1.accumulate(&DenseGrad::zeros(1, 1)).is_err());
    }

    #[test]
    fn parameter_flattening_round_trips() {
        let l = layer(Activation::Gelu);
        let mut flat = Vec::new();
        l.write_parameters(&mut flat);
        assert_eq!(flat.len(), l.parameter_count());
        let mut rng = seeded(7);
        let mut other = DenseLayer::new(4, 3, Activation::Gelu, &mut rng);
        let consumed = other.read_parameters(&flat).unwrap();
        assert_eq!(consumed, flat.len());
        assert_eq!(other.weights(), l.weights());
        assert_eq!(other.bias(), l.bias());
        assert!(other.read_parameters(&flat[..3]).is_err());
    }

    #[test]
    fn backward_rejects_wrong_output_grad_shape() {
        let l = layer(Activation::Relu);
        let x = [0.0, 0.0, 0.0, 0.0];
        let cache = l.forward(&x).unwrap();
        let mut grad = l.zero_grad();
        let (mut delta, mut d_input) = (Vec::new(), Vec::new());
        assert!(l
            .backward(&x, &cache, &[1.0], &mut grad, &mut delta, &mut d_input)
            .is_err());
    }
}
