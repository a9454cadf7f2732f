//! Neural-network layers and the forward pass.
//!
//! The three model families the paper uses map onto three structural motifs,
//! all expressible with the layer set below:
//!
//! * **MobileNet** — a plain stack of (separable) dense layers with ReLU.
//! * **ResNet** — residual blocks: `y = x + F(x)`.
//! * **DenseNet** — dense blocks: `y = concat(x, F(x))`.

use crate::error::InferenceError;
use crate::tensor::Matrix;

/// Element-wise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the activation in place.
    pub fn apply(self, values: &mut [f32]) {
        if self == Activation::Relu {
            for v in values.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Wire-format tag used by the model serializer.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Activation::None => 0,
            Activation::Relu => 1,
        }
    }

    /// Parses a wire-format tag.
    pub fn from_tag(tag: u8) -> Result<Self, InferenceError> {
        match tag {
            0 => Ok(Activation::None),
            1 => Ok(Activation::Relu),
            other => Err(InferenceError::MalformedModel(format!(
                "unknown activation tag {other}"
            ))),
        }
    }
}

/// A single layer of a [`crate::model::ModelGraph`].
#[derive(Clone, Debug, PartialEq)]
pub enum Layer {
    /// Fully-connected layer: `y = act(W·x + b)`.
    Dense {
        /// Weight matrix of shape `output_dim × input_dim`.
        weights: Matrix,
        /// Bias of length `output_dim`.
        bias: Vec<f32>,
        /// Activation applied to the output.
        activation: Activation,
    },
    /// Residual connection: `y = x + F(x)`, where `F` preserves width
    /// (ResNet motif).
    Residual {
        /// The residual branch.
        branch: Vec<Layer>,
    },
    /// Dense-block connection: `y = concat(x, F(x))` (DenseNet motif).
    DenseBlock {
        /// The growth branch.
        branch: Vec<Layer>,
    },
    /// Softmax over the activation vector (final classifier layer).
    Softmax,
}

impl Layer {
    /// Output width of this layer given the input width, or an error if the
    /// widths are inconsistent.
    pub fn output_dim(
        &self,
        input_dim: usize,
        layer_index: usize,
    ) -> Result<usize, InferenceError> {
        match self {
            Layer::Dense { weights, bias, .. } => {
                if weights.cols() != input_dim {
                    return Err(InferenceError::ShapeMismatch {
                        layer: layer_index,
                        expected: weights.cols(),
                        actual: input_dim,
                    });
                }
                if bias.len() != weights.rows() {
                    return Err(InferenceError::MalformedModel(format!(
                        "layer {layer_index}: bias length {} does not match output dim {}",
                        bias.len(),
                        weights.rows()
                    )));
                }
                Ok(weights.rows())
            }
            Layer::Residual { branch } => {
                let branch_out = output_dim_of(branch, input_dim, layer_index)?;
                if branch_out != input_dim {
                    return Err(InferenceError::ShapeMismatch {
                        layer: layer_index,
                        expected: input_dim,
                        actual: branch_out,
                    });
                }
                Ok(input_dim)
            }
            Layer::DenseBlock { branch } => {
                let branch_out = output_dim_of(branch, input_dim, layer_index)?;
                input_dim.checked_add(branch_out).ok_or_else(|| {
                    InferenceError::MalformedModel(format!(
                        "layer {layer_index}: dense block output too wide"
                    ))
                })
            }
            Layer::Softmax => Ok(input_dim),
        }
    }

    /// Number of `f32` parameters in this layer (recursively).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Dense { weights, bias, .. } => weights.len() + bias.len(),
            Layer::Residual { branch } | Layer::DenseBlock { branch } => {
                branch.iter().map(Layer::parameter_count).sum()
            }
            Layer::Softmax => 0,
        }
    }

    /// Number of primitive operations (dense matvecs + element-wise ops) in
    /// this layer, used by the TFLM-style interpreter to charge per-op
    /// dispatch overhead.
    #[must_use]
    pub fn op_count(&self) -> usize {
        match self {
            Layer::Dense { .. } => 2, // matvec + bias/activation
            Layer::Residual { branch } => 1 + branch.iter().map(Layer::op_count).sum::<usize>(),
            Layer::DenseBlock { branch } => 1 + branch.iter().map(Layer::op_count).sum::<usize>(),
            Layer::Softmax => 1,
        }
    }

    /// Validates that all parameters are finite.
    pub fn validate(&self) -> Result<(), InferenceError> {
        match self {
            Layer::Dense { weights, bias, .. } => {
                weights.validate_finite()?;
                if bias.iter().all(|b| b.is_finite()) {
                    Ok(())
                } else {
                    Err(InferenceError::NonFiniteParameter)
                }
            }
            Layer::Residual { branch } | Layer::DenseBlock { branch } => {
                branch.iter().try_for_each(Layer::validate)
            }
            Layer::Softmax => Ok(()),
        }
    }
}

/// Output width of a layer sequence given the input width.
pub fn output_dim_of(
    layers: &[Layer],
    input_dim: usize,
    base_index: usize,
) -> Result<usize, InferenceError> {
    let mut dim = input_dim;
    for (i, layer) in layers.iter().enumerate() {
        dim = layer.output_dim(dim, base_index + i)?;
    }
    Ok(dim)
}

/// Applies softmax in place (numerically stabilized).
pub fn softmax_in_place(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in values.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(out_dim: usize, in_dim: usize, value: f32, activation: Activation) -> Layer {
        Layer::Dense {
            weights: Matrix::from_vec(out_dim, in_dim, vec![value; out_dim * in_dim]),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut values = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply(&mut values);
        assert_eq!(values, vec![0.0, 0.0, 2.0]);
        let mut values = vec![-1.0, 2.0];
        Activation::None.apply(&mut values);
        assert_eq!(values, vec![-1.0, 2.0]);
    }

    #[test]
    fn activation_tags_roundtrip() {
        for act in [Activation::None, Activation::Relu] {
            assert_eq!(Activation::from_tag(act.tag()).unwrap(), act);
        }
        assert!(Activation::from_tag(9).is_err());
    }

    #[test]
    fn dense_output_dim_checks_input_width() {
        let layer = dense(4, 8, 0.1, Activation::Relu);
        assert_eq!(layer.output_dim(8, 0).unwrap(), 4);
        assert!(matches!(
            layer.output_dim(5, 0),
            Err(InferenceError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn residual_requires_width_preservation() {
        let good = Layer::Residual {
            branch: vec![dense(6, 6, 0.1, Activation::Relu)],
        };
        assert_eq!(good.output_dim(6, 0).unwrap(), 6);

        let bad = Layer::Residual {
            branch: vec![dense(4, 6, 0.1, Activation::Relu)],
        };
        assert!(bad.output_dim(6, 0).is_err());
    }

    #[test]
    fn dense_block_grows_width() {
        let block = Layer::DenseBlock {
            branch: vec![dense(3, 6, 0.1, Activation::Relu)],
        };
        assert_eq!(block.output_dim(6, 0).unwrap(), 9);
    }

    #[test]
    fn parameter_and_op_counts() {
        let layer = dense(4, 8, 0.1, Activation::Relu);
        assert_eq!(layer.parameter_count(), 4 * 8 + 4);
        assert_eq!(layer.op_count(), 2);
        let block = Layer::Residual {
            branch: vec![
                dense(4, 4, 0.1, Activation::Relu),
                dense(4, 4, 0.1, Activation::None),
            ],
        };
        assert_eq!(block.parameter_count(), 2 * (16 + 4));
        assert_eq!(block.op_count(), 1 + 4);
        assert_eq!(Layer::Softmax.parameter_count(), 0);
    }

    #[test]
    fn bias_length_mismatch_is_malformed() {
        let layer = Layer::Dense {
            weights: Matrix::from_vec(2, 2, vec![0.0; 4]),
            bias: vec![0.0; 3],
            activation: Activation::None,
        };
        assert!(matches!(
            layer.output_dim(2, 0),
            Err(InferenceError::MalformedModel(_))
        ));
    }

    #[test]
    fn softmax_normalizes_and_is_stable() {
        let mut values = vec![1000.0, 1001.0, 1002.0];
        softmax_in_place(&mut values);
        let sum: f32 = values.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(values[2] > values[1] && values[1] > values[0]);
        // Empty input is a no-op.
        let mut empty: Vec<f32> = vec![];
        softmax_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn validate_rejects_nan_in_nested_branch() {
        let block = Layer::Residual {
            branch: vec![Layer::Dense {
                weights: Matrix::from_vec(1, 1, vec![f32::NAN]),
                bias: vec![0.0],
                activation: Activation::None,
            }],
        };
        assert!(block.validate().is_err());
    }
}
