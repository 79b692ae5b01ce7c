//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Element-wise activation applied by a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x` — used by the final projection layer so embeddings can
    /// occupy the full output space before L2 normalisation.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent — the default hidden activation; it keeps hidden
    /// activations bounded, which stabilises the contrastive objective on
    /// the small per-client datasets FL training works with.
    Tanh,
    /// Gaussian Error Linear Unit (tanh approximation), matching the
    /// activation modern transformer encoders use.
    Gelu,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Gelu => {
                // tanh approximation of GELU.
                const SQRT_2_OVER_PI: f32 = 0.797_884_6;
                0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
            }
        }
    }

    /// Derivative of the activation expressed in terms of the *pre-activation*
    /// input `x` (all four variants are cheap enough that recomputing from the
    /// stored pre-activation is simpler than caching outputs).
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Gelu => {
                // Numerically differentiating GELU's tanh approximation is
                // accurate to ~1e-4 and keeps the closed form short.
                let h = 1e-3;
                (self.apply(x + h) - self.apply(x - h)) / (2.0 * h)
            }
        }
    }

    /// [`Activation::derivative`] at `pre`, given `output == self.apply(pre)`
    /// from the forward pass. Tanh's derivative is a function of its output,
    /// so it is read from there instead of calling `tanh` a second time —
    /// the same bits, because `output` is the very `pre.tanh()` that
    /// `derivative` would recompute.
    #[inline]
    pub(crate) fn derivative_from_forward(self, pre: f32, output: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - output * output,
            _ => self.derivative(pre),
        }
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice(self, xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = self.apply(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_derivative(act: Activation, x: f32) -> f32 {
        let h = 1e-3;
        (act.apply(x + h) - act.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_is_bounded_and_odd() {
        let a = Activation::Tanh;
        assert!(a.apply(100.0) <= 1.0);
        assert!(a.apply(-100.0) >= -1.0);
        assert!((a.apply(0.7) + a.apply(-0.7)).abs() < 1e-6);
    }

    #[test]
    fn identity_passes_through() {
        assert_eq!(Activation::Identity.apply(3.25), 3.25);
        assert_eq!(Activation::Identity.derivative(-7.0), 1.0);
    }

    #[test]
    fn gelu_matches_known_values() {
        let g = Activation::Gelu;
        assert!(g.apply(0.0).abs() < 1e-6);
        assert!((g.apply(1.0) - 0.8412).abs() < 1e-3);
        assert!((g.apply(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn analytic_derivatives_match_numerical_ones() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Gelu] {
            for &x in &[-2.0f32, -0.5, 0.1, 0.9, 2.3] {
                let analytic = act.derivative(x);
                let numeric = numerical_derivative(act, x);
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "{act:?} at {x}: analytic={analytic} numeric={numeric}"
                );
            }
        }
        // ReLU checked away from the kink.
        for &x in &[-1.0f32, 1.0, 3.0] {
            assert!(
                (Activation::Relu.derivative(x) - numerical_derivative(Activation::Relu, x)).abs()
                    < 1e-3
            );
        }
    }

    /// The backward pass reads tanh's derivative from the forward output;
    /// it must be the bits `derivative(pre)` recomputes. Checked on a dense
    /// sweep of tanh's curved region, on every 65 537th bit pattern (every
    /// exponent, both signs, subnormals, NaNs) and on the special values.
    #[test]
    fn derivative_from_forward_is_bit_equal_to_derivative() {
        let curved = (-40_000..=40_000).map(|k| k as f32 * 2.5e-4);
        let patterns = (0..=u32::MAX).step_by(65_537).map(f32::from_bits);
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45,
            -1.0e-45,
            3.0e-42,
            f32::EPSILON,
            9.01,
            -9.02,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let activations = [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Gelu,
        ];
        for pre in curved.chain(patterns).chain(specials) {
            for act in activations {
                let from_forward = act.derivative_from_forward(pre, act.apply(pre));
                let recomputed = act.derivative(pre);
                assert!(
                    from_forward.to_bits() == recomputed.to_bits()
                        || (from_forward.is_nan() && recomputed.is_nan()),
                    "{act:?} at {pre:e} ({:#010x}): {from_forward:e} vs {recomputed:e}",
                    pre.to_bits()
                );
            }
        }
    }

    #[test]
    fn apply_slice_transforms_in_place() {
        let mut xs = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 2.0]);
    }
}
