//! The two inference backends and the paper's four Inference APIs.
//!
//! SeMIRT integrates inference frameworks through four functions (paper
//! Fig. 5): `MODEL_LOAD`, `RUNTIME_INIT`, `MODEL_EXEC` and `PREPARE_OUTPUT`.
//! This module implements them for two backends whose memory and latency
//! profiles mirror Apache TVM and TFLM:
//!
//! * [`Framework::Tvm`] — `RUNTIME_INIT` pre-transforms (transposes) every
//!   weight matrix into an execution-friendly layout, so the runtime buffer
//!   holds a full copy of the parameters plus the activation workspace
//!   (Table I: buffer > model), initialization is relatively expensive, and
//!   `MODEL_EXEC` runs [`Matrix::matvec_transposed_into`]: each pass over a
//!   layer's output streams the transposed rows of four nonzero inputs,
//!   eight lanes wide on x86_64 CPUs with AVX2.  Every output still adds its
//!   terms one at a time in input order, with no fused multiply-add.
//! * [`Framework::Tflm`] — `RUNTIME_INIT` only allocates an activation arena
//!   (Table I: buffer ≪ model), and `MODEL_EXEC` interprets the graph
//!   directly from the loaded weights with per-op dispatch overhead.
//!
//! Both backends compute the same function with the same rounding, so their
//! predictions are bit-identical; the unit tests check both bit for bit
//! against the reference forward pass.
//!
//! On SeMIRT's cold start the blob `MODEL_LOAD` reads is the plaintext that
//! `decrypt_model` left in the fetch's own copy of the sealed blob (it
//! decrypts in place), and `MODEL_LOAD` converts each layer's weights and
//! bias as whole slices.  The copies that stay are the loaded model's
//! weights and, for the TVM-style backend, each worker's transposed copy,
//! made in 16 × 16 tiles by [`Matrix::transposed`]: it is Table I's
//! per-thread runtime buffer, and the enclave heap is charged for it.

use crate::error::InferenceError;
use crate::layers::{softmax_in_place, Layer};
use crate::model::{ModelGraph, ModelId};
use crate::tensor::Matrix;
use crate::zoo::ModelKind;

/// The inference framework a function is built against.
///
/// In the paper this choice is baked into the SeMIRT container image and thus
/// into the enclave identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    /// Apache-TVM-like ahead-of-time backend.
    Tvm,
    /// TFLM-like interpreter backend.
    Tflm,
}

impl Framework {
    /// Both frameworks.
    pub const ALL: [Framework; 2] = [Framework::Tvm, Framework::Tflm];

    /// The label used in the paper's figures ("TVM" / "TFLM").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Framework::Tvm => "TVM",
            Framework::Tflm => "TFLM",
        }
    }

    /// `MODEL_LOAD`: deserializes (an already decrypted) model blob into an
    /// in-enclave representation.
    pub fn model_load(
        self,
        model_id: &ModelId,
        bytes: &[u8],
    ) -> Result<LoadedModel, InferenceError> {
        let graph = ModelGraph::from_bytes(bytes)?;
        Ok(LoadedModel {
            id: model_id.clone(),
            framework: self,
            serialized_bytes: bytes.len() as u64,
            graph,
        })
    }

    /// `RUNTIME_INIT`: builds the per-thread model runtime for a loaded
    /// model.
    #[must_use]
    pub fn runtime_init(self, model: &LoadedModel) -> ModelRuntime {
        let arena_len = model.graph.max_activation_width() * 2;
        match self {
            Framework::Tvm => {
                // Pre-transform every dense layer's weights; the transformed
                // copies live in the runtime buffer, which is why TVM's
                // buffer exceeds the model size in Table I.
                let mut transformed = Vec::new();
                collect_transposed(&model.graph.layers, &mut transformed);
                ModelRuntime {
                    model_id: model.id.clone(),
                    framework: self,
                    transformed,
                    _arena: vec![0.0; arena_len],
                    executions: 0,
                }
            }
            Framework::Tflm => ModelRuntime {
                model_id: model.id.clone(),
                framework: self,
                transformed: Vec::new(),
                _arena: vec![0.0; arena_len],
                executions: 0,
            },
        }
    }

    /// Runtime buffer footprint in bytes for a model of `model_bytes`
    /// parameters and `max_width` activation width — the quantity Fig. 10's
    /// memory-saving ratios are computed from.
    #[must_use]
    pub fn runtime_buffer_bytes(self, model_bytes: u64, max_width: usize) -> u64 {
        let activations = (max_width * 2 * std::mem::size_of::<f32>()) as u64;
        match self {
            // Transformed weight copy + activations + graph metadata.
            Framework::Tvm => model_bytes + activations + model_bytes / 16,
            // Activations + interpreter scratch only.
            Framework::Tflm => activations + activations / 2 + 64 * 1024,
        }
    }

    /// Full-scale runtime buffer size for one of the paper's models
    /// (Table I).
    #[must_use]
    pub fn table1_buffer_bytes(self, kind: ModelKind) -> u64 {
        const MB: u64 = 1024 * 1024;
        match (self, kind) {
            (Framework::Tvm, ModelKind::MbNet) => 30 * MB,
            (Framework::Tvm, ModelKind::RsNet) => 205 * MB,
            (Framework::Tvm, ModelKind::DsNet) => 55 * MB,
            (Framework::Tflm, ModelKind::MbNet) => 5 * MB,
            (Framework::Tflm, ModelKind::RsNet) => 24 * MB,
            (Framework::Tflm, ModelKind::DsNet) => 12 * MB,
        }
    }
}

fn collect_transposed(layers: &[Layer], out: &mut Vec<Matrix>) {
    for layer in layers {
        match layer {
            Layer::Dense { weights, .. } => out.push(weights.transposed()),
            Layer::Residual { branch } | Layer::DenseBlock { branch } => {
                collect_transposed(branch, out);
            }
            Layer::Softmax => {}
        }
    }
}

/// A model deserialized inside the enclave (shared across threads in SeMIRT's
/// plaintext model cache).
#[derive(Clone, Debug)]
pub struct LoadedModel {
    id: ModelId,
    framework: Framework,
    serialized_bytes: u64,
    graph: ModelGraph,
}

impl LoadedModel {
    /// The model id this blob was loaded for.
    #[must_use]
    pub fn id(&self) -> &ModelId {
        &self.id
    }

    /// The framework that loaded the model.
    #[must_use]
    pub fn framework(&self) -> Framework {
        self.framework
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// Size of the serialized blob this model was loaded from (≈ the enclave
    /// memory the decrypted model occupies).
    #[must_use]
    pub fn model_bytes(&self) -> u64 {
        self.serialized_bytes
    }

    /// Runtime buffer footprint this model needs under its framework.
    #[must_use]
    pub fn runtime_buffer_bytes(&self) -> u64 {
        self.framework
            .runtime_buffer_bytes(self.serialized_bytes, self.graph.max_activation_width())
    }
}

/// A per-thread model runtime (`model_rt` in Algorithm 2): activation arena
/// plus, for the TVM-style backend, the transformed weights.
#[derive(Clone, Debug)]
pub struct ModelRuntime {
    model_id: ModelId,
    framework: Framework,
    transformed: Vec<Matrix>,
    /// The activation arena `RUNTIME_INIT` allocates.  Execution allocates
    /// its own activations, so nothing reads it; it is held because
    /// dropping it changes how the allocator reuses the weights' memory
    /// between set-ups, which slows the full-size model's cold path.
    _arena: Vec<f32>,
    executions: u64,
}

impl ModelRuntime {
    /// The model this runtime was initialized for.
    #[must_use]
    pub fn model_id(&self) -> &ModelId {
        &self.model_id
    }

    /// The framework of this runtime.
    #[must_use]
    pub fn framework(&self) -> Framework {
        self.framework
    }

    /// Number of `MODEL_EXEC` calls served by this runtime.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether this runtime matches `model` (SeMIRT re-initializes the
    /// runtime when the thread switches models, Algorithm 2 lines 14–15).
    #[must_use]
    pub fn matches(&self, model: &LoadedModel) -> bool {
        self.model_id == model.id && self.framework == model.framework
    }

    /// `MODEL_EXEC`: runs the model on `input` and returns the class
    /// probabilities.
    pub fn model_exec(
        &mut self,
        model: &LoadedModel,
        input: &[f32],
    ) -> Result<Vec<f32>, InferenceError> {
        if !self.matches(model) {
            return Err(InferenceError::RuntimeModelMismatch);
        }
        if input.len() != model.graph.input_dim {
            return Err(InferenceError::InputDimensionMismatch {
                expected: model.graph.input_dim,
                actual: input.len(),
            });
        }
        self.executions += 1;
        match self.framework {
            Framework::Tvm => {
                let mut dense_index = 0usize;
                Ok(exec_tvm(
                    &model.graph.layers,
                    &self.transformed,
                    &mut dense_index,
                    input.to_vec(),
                ))
            }
            Framework::Tflm => Ok(exec_interpreted(&model.graph.layers, input.to_vec())),
        }
    }

    /// `PREPARE_OUTPUT`: serializes the prediction vector into the byte
    /// buffer that will be encrypted with the request key and returned.
    #[must_use]
    pub fn prepare_output(&self, output: &[f32]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(4 + output.len() * 4);
        bytes.extend_from_slice(&(output.len() as u32).to_le_bytes());
        for value in output {
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        bytes
    }

    /// Parses a buffer produced by [`ModelRuntime::prepare_output`] (client
    /// side, after decryption).
    pub fn parse_output(bytes: &[u8]) -> Result<Vec<f32>, InferenceError> {
        if bytes.len() < 4 {
            return Err(InferenceError::MalformedModel("output too short".into()));
        }
        let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() != 4 + count * 4 {
            return Err(InferenceError::MalformedModel(
                "output length mismatch".into(),
            ));
        }
        Ok(bytes[4..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// TVM-style execution: consumes the pre-transposed matrices in graph order.
fn exec_tvm(
    layers: &[Layer],
    transformed: &[Matrix],
    dense_index: &mut usize,
    mut activation: Vec<f32>,
) -> Vec<f32> {
    for layer in layers {
        activation = match layer {
            Layer::Dense {
                weights,
                bias,
                activation: act,
            } => {
                let transposed = &transformed[*dense_index];
                *dense_index += 1;
                let mut out = vec![0.0f32; weights.rows()];
                transposed.matvec_transposed_into(&activation, &mut out);
                for (o, b) in out.iter_mut().zip(bias.iter()) {
                    *o += b;
                }
                act.apply(&mut out);
                out
            }
            Layer::Residual { branch } => {
                let branch_out = exec_tvm(branch, transformed, dense_index, activation.clone());
                activation
                    .iter()
                    .zip(branch_out.iter())
                    .map(|(a, b)| a + b)
                    .collect()
            }
            Layer::DenseBlock { branch } => {
                let branch_out = exec_tvm(branch, transformed, dense_index, activation.clone());
                let mut out = activation;
                out.extend(branch_out);
                out
            }
            Layer::Softmax => {
                let mut out = activation;
                softmax_in_place(&mut out);
                out
            }
        };
    }
    activation
}

/// TFLM-style execution: straight interpretation of the row-major weights.
fn exec_interpreted(layers: &[Layer], activation: Vec<f32>) -> Vec<f32> {
    crate::model::run_layers(layers, activation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scaled_model(kind: ModelKind) -> (ModelId, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = kind.generate(0.01, &mut rng);
        (kind.default_id(), graph.to_bytes())
    }

    #[test]
    fn framework_labels() {
        assert_eq!(Framework::Tvm.label(), "TVM");
        assert_eq!(Framework::Tflm.label(), "TFLM");
        assert_eq!(Framework::ALL.len(), 2);
    }

    #[test]
    fn both_backends_produce_identical_predictions() {
        for kind in ModelKind::ALL {
            let (id, bytes) = scaled_model(kind);
            let tvm_model = Framework::Tvm.model_load(&id, &bytes).unwrap();
            let tflm_model = Framework::Tflm.model_load(&id, &bytes).unwrap();
            let mut tvm_rt = Framework::Tvm.runtime_init(&tvm_model);
            let mut tflm_rt = Framework::Tflm.runtime_init(&tflm_model);

            let input: Vec<f32> = (0..tvm_model.graph().input_dim)
                .map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.05)
                .collect();
            let tvm_out = tvm_rt.model_exec(&tvm_model, &input).unwrap();
            let tflm_out = tflm_rt.model_exec(&tflm_model, &input).unwrap();
            let reference = tvm_model.graph().forward(&input).unwrap();
            let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tvm_out), bits(&tflm_out), "{kind:?}: tvm vs tflm");
            assert_eq!(
                bits(&tflm_out),
                bits(&reference),
                "{kind:?}: tflm vs reference"
            );
        }
    }

    #[test]
    fn runtime_guards_model_and_input_mismatches() {
        let (id, bytes) = scaled_model(ModelKind::MbNet);
        let (other_id, other_bytes) = scaled_model(ModelKind::DsNet);
        let model = Framework::Tvm.model_load(&id, &bytes).unwrap();
        let other = Framework::Tvm.model_load(&other_id, &other_bytes).unwrap();
        let mut rt = Framework::Tvm.runtime_init(&model);

        // Wrong model for this runtime.
        let input = vec![0.0f32; other.graph().input_dim];
        assert!(matches!(
            rt.model_exec(&other, &input),
            Err(InferenceError::RuntimeModelMismatch)
        ));
        // Wrong input width.
        assert!(matches!(
            rt.model_exec(&model, &[0.0; 3]),
            Err(InferenceError::InputDimensionMismatch { .. })
        ));
        assert_eq!(rt.executions(), 0);
        // Correct call succeeds and bumps the counter.
        let input = vec![0.1f32; model.graph().input_dim];
        rt.model_exec(&model, &input).unwrap();
        assert_eq!(rt.executions(), 1);
    }

    #[test]
    fn prepare_and_parse_output_roundtrip() {
        let (id, bytes) = scaled_model(ModelKind::DsNet);
        let model = Framework::Tflm.model_load(&id, &bytes).unwrap();
        let mut rt = Framework::Tflm.runtime_init(&model);
        let input = vec![0.2f32; model.graph().input_dim];
        let output = rt.model_exec(&model, &input).unwrap();
        let serialized = rt.prepare_output(&output);
        let parsed = ModelRuntime::parse_output(&serialized).unwrap();
        assert_eq!(parsed, output);

        assert!(ModelRuntime::parse_output(&serialized[..3]).is_err());
        let mut bad = serialized.clone();
        bad.truncate(serialized.len() - 2);
        assert!(ModelRuntime::parse_output(&bad).is_err());
    }

    #[test]
    fn tvm_buffers_exceed_model_size_and_tflm_buffers_do_not() {
        let (id, bytes) = scaled_model(ModelKind::RsNet);
        let tvm = Framework::Tvm.model_load(&id, &bytes).unwrap();
        let tflm = Framework::Tflm.model_load(&id, &bytes).unwrap();
        assert!(tvm.runtime_buffer_bytes() > tvm.model_bytes());
        assert!(tflm.runtime_buffer_bytes() < tflm.model_bytes());
    }

    #[test]
    fn table1_buffer_sizes_match_the_paper() {
        const MB: u64 = 1024 * 1024;
        assert_eq!(
            Framework::Tvm.table1_buffer_bytes(ModelKind::MbNet),
            30 * MB
        );
        assert_eq!(
            Framework::Tvm.table1_buffer_bytes(ModelKind::RsNet),
            205 * MB
        );
        assert_eq!(
            Framework::Tvm.table1_buffer_bytes(ModelKind::DsNet),
            55 * MB
        );
        assert_eq!(
            Framework::Tflm.table1_buffer_bytes(ModelKind::MbNet),
            5 * MB
        );
        assert_eq!(
            Framework::Tflm.table1_buffer_bytes(ModelKind::RsNet),
            24 * MB
        );
        assert_eq!(
            Framework::Tflm.table1_buffer_bytes(ModelKind::DsNet),
            12 * MB
        );
    }

    #[test]
    fn runtime_matches_checks_framework_too() {
        let (id, bytes) = scaled_model(ModelKind::MbNet);
        let tvm_model = Framework::Tvm.model_load(&id, &bytes).unwrap();
        let tflm_model = Framework::Tflm.model_load(&id, &bytes).unwrap();
        let rt = Framework::Tvm.runtime_init(&tvm_model);
        assert!(rt.matches(&tvm_model));
        assert!(!rt.matches(&tflm_model));
    }

    #[test]
    fn malformed_blob_fails_model_load() {
        let err = Framework::Tvm
            .model_load(&ModelId::new("x"), b"definitely not a model")
            .unwrap_err();
        assert!(matches!(err, InferenceError::MalformedModel(_)));
    }
}
