//! Element-wise activation functions.

use hpcnet_tensor::kernels::Scalar;
use serde::{Deserialize, Serialize};

/// Supported activations.
///
/// Derivatives are computed **from the post-activation value** so that
/// backprop (including the gradient-checkpointed variant) never needs to
/// retain pre-activation buffers. Every variant here admits that form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(z) = z` — used on output layers of regression surrogates.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply in place to a buffer, at either precision. At `f32` (the
    /// serving-only reduced-precision path, DESIGN.md §14.2) the constants
    /// are the `f32` ones and transcendentals are evaluated natively in
    /// `f32`; accuracy against the `f64` path is pinned by the envelope
    /// proptest in `tests/proptests.rs`, and at serving time the
    /// QualityGuard demotes any miss back to `f64` per request.
    #[inline]
    pub fn apply<T: Scalar>(&self, z: &mut [T]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for v in z {
                    if *v < T::ZERO {
                        *v = T::ZERO;
                    }
                }
            }
            Activation::LeakyRelu => {
                for v in z {
                    if *v < T::ZERO {
                        *v = *v * T::LEAKY_SLOPE;
                    }
                }
            }
            Activation::Tanh => {
                for v in z {
                    *v = v.tanh();
                }
            }
            Activation::Sigmoid => {
                for v in z {
                    *v = T::ONE / (T::ONE + (-*v).exp());
                }
            }
        }
    }

    /// Derivative expressed in terms of the post-activation value `a`.
    #[inline]
    pub fn derivative_from_output(&self, a: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            // a == 0 ⇒ z <= 0: use subgradient 0, the common convention.
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            // post-activation is negative iff the pre-activation was.
            Activation::LeakyRelu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }

    /// Short display name used in topology summaries and checkpoints.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 5] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn apply_known_values() {
        let mut z = vec![-2.0, 0.0, 3.0];
        Activation::Relu.apply(&mut z);
        assert_eq!(z, vec![0.0, 0.0, 3.0]);

        let mut z = vec![-2.0, 3.0];
        Activation::LeakyRelu.apply(&mut z);
        assert_eq!(z, vec![-0.02, 3.0]);

        let mut z = vec![0.0];
        Activation::Sigmoid.apply(&mut z);
        assert_eq!(z, vec![0.5]);

        let mut z = vec![0.0];
        Activation::Tanh.apply(&mut z);
        assert_eq!(z, vec![0.0]);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ALL {
            for &z0 in &[-1.7, -0.3, 0.2, 1.9] {
                let mut lo = [z0 - eps];
                let mut hi = [z0 + eps];
                let mut mid = [z0];
                act.apply(&mut lo);
                act.apply(&mut hi);
                act.apply(&mut mid);
                let fd = (hi[0] - lo[0]) / (2.0 * eps);
                let analytic = act.derivative_from_output(mid[0]);
                assert!(
                    (fd - analytic).abs() < 1e-5,
                    "{} at {z0}: fd={fd} analytic={analytic}",
                    act.name()
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
