//! Model graphs, identities and the serialized model format.
//!
//! Models are what the model owner encrypts and uploads to cloud storage
//! (paper §III, step 2).  The serialized format here plays the role of the
//! TVM/TFLM model artifacts: a self-describing binary blob that the enclave
//! deserializes after decryption.

use crate::error::InferenceError;
use crate::layers::{output_dim_of, softmax_in_place, Activation, Layer};
use crate::tensor::Matrix;
use std::fmt;

/// Magic bytes at the start of every serialized model.
const MAGIC: &[u8; 8] = b"SESEMIMD";
/// Serialization format version.
const FORMAT_VERSION: u32 = 1;

/// A model identifier (`M_oid` in the paper) — chosen by the model owner and
/// used as the routing / access-control key throughout the system.  Model ids
/// are public information (FnPacker routes on them), only the parameters are
/// confidential.
///
/// The id is interned behind an `Arc<str>`, so a clone is a refcount bump,
/// not an allocation.  Comparison, hashing and ordering all delegate to the
/// underlying `str`, so maps and sorts behave exactly as they did when the
/// inner type was `String`, and hashing an id still reads its bytes: the
/// cluster simulator's per-request path carries a dense model index instead,
/// resolved once when a request arrives.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(std::sync::Arc<str>);

impl ModelId {
    /// Creates a model id.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        ModelId(id.into().into())
    }

    /// String form of the id.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModelId({})", self.0)
    }
}

impl From<&str> for ModelId {
    fn from(value: &str) -> Self {
        ModelId::new(value)
    }
}

/// A feed-forward model graph.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelGraph {
    /// Human-readable model name (e.g. `"mobilenet-v1"`).
    pub name: String,
    /// Width of the input feature vector.
    pub input_dim: usize,
    /// The layer stack.
    pub layers: Vec<Layer>,
}

impl ModelGraph {
    /// Creates a graph after validating its shapes and parameters.
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        layers: Vec<Layer>,
    ) -> Result<Self, InferenceError> {
        let graph = ModelGraph {
            name: name.into(),
            input_dim,
            layers,
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Validates shape consistency and parameter finiteness.
    pub fn validate(&self) -> Result<(), InferenceError> {
        if self.input_dim == 0 {
            return Err(InferenceError::MalformedModel(
                "input dimension must be positive".to_string(),
            ));
        }
        output_dim_of(&self.layers, self.input_dim, 0)?;
        self.layers.iter().try_for_each(Layer::validate)
    }

    /// Output width of the model.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        output_dim_of(&self.layers, self.input_dim, 0).expect("graph validated at construction")
    }

    /// Total number of `f32` parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::parameter_count).sum()
    }

    /// Size of the parameters in bytes.
    #[must_use]
    pub fn parameter_bytes(&self) -> u64 {
        (self.parameter_count() * std::mem::size_of::<f32>()) as u64
    }

    /// Total number of primitive ops (for the interpreter's dispatch cost).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.layers.iter().map(Layer::op_count).sum()
    }

    /// The widest intermediate activation produced while running the model;
    /// determines the size of the TFLM-style arena.
    #[must_use]
    pub fn max_activation_width(&self) -> usize {
        fn walk(layers: &[Layer], input_dim: usize, widest: &mut usize) -> usize {
            let mut dim = input_dim;
            for layer in layers {
                match layer {
                    Layer::Dense { weights, .. } => {
                        dim = weights.rows();
                    }
                    Layer::Residual { branch } => {
                        walk(branch, dim, widest);
                        // output width unchanged
                    }
                    Layer::DenseBlock { branch } => {
                        let branch_out = walk(branch, dim, widest);
                        dim += branch_out;
                    }
                    Layer::Softmax => {}
                }
                *widest = (*widest).max(dim);
            }
            dim
        }
        let mut widest = self.input_dim;
        walk(&self.layers, self.input_dim, &mut widest);
        widest
    }

    /// Reference forward pass (the backends implement their own execution
    /// paths; this one exists for correctness cross-checks).
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, InferenceError> {
        if input.len() != self.input_dim {
            return Err(InferenceError::InputDimensionMismatch {
                expected: self.input_dim,
                actual: input.len(),
            });
        }
        Ok(run_layers(&self.layers, input.to_vec()))
    }

    /// Serializes the model into the SeSeMI binary model format, into a
    /// buffer of exactly its length.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = MAGIC.len() + 4 + 4 + self.name.len() + 8 + 4 + layers_len(&self.layers);
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        write_string(&mut out, &self.name);
        out.extend_from_slice(&(self.input_dim as u64).to_le_bytes());
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for layer in &self.layers {
            write_layer(&mut out, layer);
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Parses a model from the binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, InferenceError> {
        let mut cursor = Cursor::new(bytes);
        let magic = cursor.take(8)?;
        if magic != MAGIC {
            return Err(InferenceError::MalformedModel("bad magic".to_string()));
        }
        let version = cursor.read_u32()?;
        if version != FORMAT_VERSION {
            return Err(InferenceError::MalformedModel(format!(
                "unsupported format version {version}"
            )));
        }
        let name = cursor.read_string()?;
        let input_dim = cursor.read_u64()? as usize;
        let layer_count = cursor.read_count()?;
        if layer_count > 1_000_000 {
            return Err(InferenceError::MalformedModel(
                "unreasonable layer count".to_string(),
            ));
        }
        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            layers.push(read_layer(&mut cursor, 0)?);
        }
        if !cursor.is_exhausted() {
            return Err(InferenceError::MalformedModel(
                "trailing bytes after model".to_string(),
            ));
        }
        ModelGraph::new(name, input_dim, layers)
    }
}

/// Runs a layer sequence on an owned activation vector.
pub(crate) fn run_layers(layers: &[Layer], mut activation: Vec<f32>) -> Vec<f32> {
    for layer in layers {
        activation = run_layer(layer, activation);
    }
    activation
}

fn run_layer(layer: &Layer, activation: Vec<f32>) -> Vec<f32> {
    match layer {
        Layer::Dense {
            weights,
            bias,
            activation: act,
        } => {
            let mut out = vec![0.0f32; weights.rows()];
            weights.matvec_into(&activation, &mut out);
            for (o, b) in out.iter_mut().zip(bias.iter()) {
                *o += b;
            }
            act.apply(&mut out);
            out
        }
        Layer::Residual { branch } => {
            let branch_out = run_layers(branch, activation.clone());
            activation
                .iter()
                .zip(branch_out.iter())
                .map(|(a, b)| a + b)
                .collect()
        }
        Layer::DenseBlock { branch } => {
            let branch_out = run_layers(branch, activation.clone());
            let mut out = activation;
            out.extend(branch_out);
            out
        }
        Layer::Softmax => {
            let mut out = activation;
            softmax_in_place(&mut out);
            out
        }
    }
}

// --- serialization helpers -------------------------------------------------

fn write_string(out: &mut Vec<u8>, value: &str) {
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

/// The serialized length of `layers`, as [`write_layer`] writes them.
fn layers_len(layers: &[Layer]) -> usize {
    layers
        .iter()
        .map(|layer| match layer {
            // Tag, rows, cols, activation, then the parameters.
            Layer::Dense { .. } => 1 + 4 + 4 + 1 + layer.parameter_count() * 4,
            // Tag and branch length, then the branch.
            Layer::Residual { branch } | Layer::DenseBlock { branch } => 1 + 4 + layers_len(branch),
            Layer::Softmax => 1,
        })
        .sum()
}

/// Appends `values` as little-endian `f32`s, as one slice.
fn write_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (bytes, value) in out[start..].chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&value.to_le_bytes());
    }
}

fn write_layer(out: &mut Vec<u8>, layer: &Layer) {
    match layer {
        Layer::Dense {
            weights,
            bias,
            activation,
        } => {
            out.push(0);
            out.extend_from_slice(&(weights.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(weights.cols() as u32).to_le_bytes());
            out.push(activation.tag());
            write_f32s(out, weights.data());
            write_f32s(out, bias);
        }
        Layer::Residual { branch } => {
            out.push(1);
            out.extend_from_slice(&(branch.len() as u32).to_le_bytes());
            for inner in branch {
                write_layer(out, inner);
            }
        }
        Layer::DenseBlock { branch } => {
            out.push(2);
            out.extend_from_slice(&(branch.len() as u32).to_le_bytes());
            for inner in branch {
                write_layer(out, inner);
            }
        }
        Layer::Softmax => out.push(3),
    }
}

const MAX_LAYER_NESTING: usize = 16;

fn read_layer(cursor: &mut Cursor<'_>, depth: usize) -> Result<Layer, InferenceError> {
    if depth > MAX_LAYER_NESTING {
        return Err(InferenceError::MalformedModel(
            "layer nesting too deep".to_string(),
        ));
    }
    let tag = cursor.read_u8()?;
    match tag {
        0 => {
            let rows = cursor.read_u32()? as usize;
            let cols = cursor.read_u32()? as usize;
            let activation = Activation::from_tag(cursor.read_u8()?)?;
            // The weights and the bias, 4 bytes each, must all be there
            // before anything is allocated for them.
            let count = rows.checked_mul(cols).ok_or_else(|| {
                InferenceError::MalformedModel("weight matrix too large".to_string())
            })?;
            let parameters = count.checked_add(rows).ok_or_else(|| {
                InferenceError::MalformedModel("weight matrix too large".to_string())
            })?;
            cursor.ensure_items(parameters, 4)?;
            Ok(Layer::Dense {
                weights: Matrix::from_vec(rows, cols, cursor.read_f32s(count)?),
                bias: cursor.read_f32s(rows)?,
                activation,
            })
        }
        1 | 2 => {
            let count = cursor.read_count()?;
            if count > 10_000 {
                return Err(InferenceError::MalformedModel(
                    "unreasonable branch length".to_string(),
                ));
            }
            let mut branch = Vec::with_capacity(count);
            for _ in 0..count {
                branch.push(read_layer(cursor, depth + 1)?);
            }
            if tag == 1 {
                Ok(Layer::Residual { branch })
            } else {
                Ok(Layer::DenseBlock { branch })
            }
        }
        3 => Ok(Layer::Softmax),
        other => Err(InferenceError::MalformedModel(format!(
            "unknown layer tag {other}"
        ))),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, offset: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], InferenceError> {
        if self.offset + len > self.bytes.len() {
            return Err(InferenceError::MalformedModel(
                "truncated model".to_string(),
            ));
        }
        let slice = &self.bytes[self.offset..self.offset + len];
        self.offset += len;
        Ok(slice)
    }

    fn read_u8(&mut self) -> Result<u8, InferenceError> {
        Ok(self.take(1)?[0])
    }

    fn read_u32(&mut self) -> Result<u32, InferenceError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Fails unless `items` items of `item_bytes` bytes each are left: the
    /// check a count read from the blob passes before anything is
    /// allocated for it.
    fn ensure_items(&self, items: usize, item_bytes: usize) -> Result<(), InferenceError> {
        let left = self.bytes.len() - self.offset;
        if items
            .checked_mul(item_bytes)
            .map_or(true, |needed| needed > left)
        {
            return Err(InferenceError::MalformedModel(format!(
                "{items} items of {item_bytes} bytes claimed, {left} bytes left"
            )));
        }
        Ok(())
    }

    /// Reads a `u32` count of items that take at least one byte each,
    /// bounded by the bytes left.
    fn read_count(&mut self) -> Result<usize, InferenceError> {
        let count = self.read_u32()? as usize;
        self.ensure_items(count, 1)?;
        Ok(count)
    }

    fn read_u64(&mut self) -> Result<u64, InferenceError> {
        let bytes = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `count` little-endian `f32`s as one slice.  `count * 4` must
    /// not overflow: `read_layer` bounds it with `ensure_items` first.
    fn read_f32s(&mut self, count: usize) -> Result<Vec<f32>, InferenceError> {
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    fn read_string(&mut self) -> Result<String, InferenceError> {
        let len = self.read_u32()? as usize;
        if len > 4096 {
            return Err(InferenceError::MalformedModel("name too long".to_string()));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| InferenceError::MalformedModel("name is not utf-8".to_string()))
    }

    fn is_exhausted(&self) -> bool {
        self.offset == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_model() -> ModelGraph {
        let dense = |rows: usize, cols: usize, scale: f32| Layer::Dense {
            weights: Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|i| (i as f32 * 0.013 - 0.3) * scale)
                    .collect(),
            ),
            bias: (0..rows).map(|i| i as f32 * 0.01).collect(),
            activation: Activation::Relu,
        };
        ModelGraph::new(
            "test-net",
            8,
            vec![
                dense(16, 8, 0.5),
                Layer::Residual {
                    branch: vec![dense(16, 16, 0.2)],
                },
                Layer::DenseBlock {
                    branch: vec![dense(4, 16, 0.3)],
                },
                dense(3, 20, 0.4),
                Layer::Softmax,
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_counts() {
        let model = small_model();
        assert_eq!(model.output_dim(), 3);
        assert_eq!(model.max_activation_width(), 20);
        assert!(model.parameter_count() > 0);
        assert_eq!(model.parameter_bytes(), model.parameter_count() as u64 * 4);
        assert!(model.op_count() >= 8);
    }

    #[test]
    fn forward_produces_probability_distribution() {
        let model = small_model();
        let input: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let output = model.forward(&input).unwrap();
        assert_eq!(output.len(), 3);
        let sum: f32 = output.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(output.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn forward_rejects_wrong_input_dim() {
        let model = small_model();
        assert!(matches!(
            model.forward(&[0.0; 5]),
            Err(InferenceError::InputDimensionMismatch {
                expected: 8,
                actual: 5
            })
        ));
    }

    #[test]
    fn serialization_roundtrip_preserves_model_and_outputs() {
        let model = small_model();
        let bytes = model.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        let restored = ModelGraph::from_bytes(&bytes).unwrap();
        assert_eq!(restored, model);
        let input: Vec<f32> = (0..8).map(|i| (i as f32).sin()).collect();
        assert_eq!(
            model.forward(&input).unwrap(),
            restored.forward(&input).unwrap()
        );
    }

    // RSNET's layer headers (451 bytes) used to overrun a
    // `parameter_count() * 4 + 256` reservation, so its last writes doubled
    // the buffer: at scale 0.002, 362,819 bytes in a capacity of 725,248.
    #[test]
    fn to_bytes_reserves_exactly_the_serialized_length() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for kind in crate::zoo::ModelKind::ALL {
            for scale in [0.002, 0.01] {
                let bytes = kind.generate(scale, &mut rng).to_bytes();
                assert_eq!(bytes.capacity(), bytes.len(), "{} at {scale}", kind.label());
            }
        }
    }

    #[test]
    fn malformed_blobs_are_rejected() {
        let model = small_model();
        let bytes = model.to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(ModelGraph::from_bytes(&bad).is_err());

        // Truncated.
        assert!(ModelGraph::from_bytes(&bytes[..bytes.len() / 2]).is_err());

        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0u8; 4]);
        assert!(ModelGraph::from_bytes(&trailing).is_err());

        // Unknown version.
        let mut versioned = bytes;
        versioned[8] = 0xFF;
        assert!(ModelGraph::from_bytes(&versioned).is_err());

        // Empty input.
        assert!(ModelGraph::from_bytes(&[]).is_err());
    }

    #[test]
    fn zero_input_dim_is_rejected() {
        assert!(ModelGraph::new("bad", 0, vec![Layer::Softmax]).is_err());
    }

    #[test]
    fn model_id_display_and_conversion() {
        let id: ModelId = "hospital/diagnosis-v2".into();
        assert_eq!(id.as_str(), "hospital/diagnosis-v2");
        assert_eq!(id.to_string(), "hospital/diagnosis-v2");
        assert!(format!("{id:?}").contains("hospital"));
    }

    /// The header of a blob holding one layer, up to that layer.
    fn one_layer_header() -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        write_string(&mut blob, "claims");
        blob.extend_from_slice(&4u64.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob
    }

    #[test]
    fn counts_past_the_bytes_left_are_refused_before_allocating() {
        // A dense layer of 2^24 × 2^24 weights would reserve 4 PiB; asking
        // for that before checking the bytes left aborted the process.
        let mut dense = one_layer_header();
        dense.push(0);
        dense.extend_from_slice(&(1u32 << 24).to_le_bytes());
        dense.extend_from_slice(&(1u32 << 24).to_le_bytes());
        dense.push(Activation::Relu.tag());
        dense.extend_from_slice(&[0u8; 64]);
        // A layer count and a branch length past the bytes left.
        let mut layers = one_layer_header();
        let at = layers.len() - 4;
        layers[at..].copy_from_slice(&999_999u32.to_le_bytes());
        layers.push(3);
        let mut branch = one_layer_header();
        branch.push(2);
        branch.extend_from_slice(&9_999u32.to_le_bytes());
        branch.push(3);
        for blob in [dense, layers, branch] {
            assert!(
                matches!(
                    ModelGraph::from_bytes(&blob),
                    Err(InferenceError::MalformedModel(_))
                ),
                "{blob:?}"
            );
        }
    }

    /// A small zoo model of each kind, serialized once per process.
    fn zoo_blobs() -> &'static [Vec<u8>] {
        static BLOBS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        BLOBS.get_or_init(|| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            crate::zoo::ModelKind::ALL
                .iter()
                .map(|kind| kind.generate(0.0001, &mut rng).to_bytes())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bit flips, a length field overwritten with `0x7fffffff` or
        /// `u32::MAX`, and truncation, alone or together, of a zoo model's
        /// bytes: the parser returns a model or a typed error, and never
        /// panics or aborts.
        #[test]
        fn mutated_zoo_blobs_never_panic_the_parser(
            kind in 0usize..3,
            flips in proptest::collection::vec(0u64..u64::MAX, 0..6),
            overwrite in 0u64..u64::MAX,
            cut in 0u64..u64::MAX,
        ) {
            let mut bytes = zoo_blobs()[kind].clone();
            let len = bytes.len() as u64;
            for flip in flips {
                let bit = (flip % (len * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            if overwrite % 2 == 0 {
                let at = ((overwrite >> 2) % (len - 3)) as usize;
                let value = if overwrite & 2 == 0 { 0x7fff_ffff } else { u32::MAX };
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            if cut % 2 == 0 {
                bytes.truncate(((cut >> 1) % len) as usize);
            }
            let parsed = std::panic::catch_unwind(|| ModelGraph::from_bytes(&bytes));
            prop_assert!(parsed.is_ok(), "from_bytes panicked on {} mutated bytes", bytes.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn roundtrip_random_small_models(
            input_dim in 1usize..6,
            hidden in 1usize..6,
            outputs in 1usize..4,
            seed in 0u64..500,
        ) {
            let mut state = seed.wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            };
            let l1 = Layer::Dense {
                weights: Matrix::from_vec(hidden, input_dim, (0..hidden * input_dim).map(|_| next()).collect()),
                bias: (0..hidden).map(|_| next()).collect(),
                activation: Activation::Relu,
            };
            let l2 = Layer::Dense {
                weights: Matrix::from_vec(outputs, hidden, (0..outputs * hidden).map(|_| next()).collect()),
                bias: (0..outputs).map(|_| next()).collect(),
                activation: Activation::None,
            };
            let model = ModelGraph::new("prop", input_dim, vec![l1, l2, Layer::Softmax]).unwrap();
            let restored = ModelGraph::from_bytes(&model.to_bytes()).unwrap();
            prop_assert_eq!(restored, model);
        }
    }
}
