//! Encrypted inference requests and responses.
//!
//! The model user encrypts the input features with her request key `K_R`
//! before sending the request; the result is encrypted with the same key
//! inside the enclave before leaving it (paper §III, steps 3–6).  The model
//! id and user id travel in the clear — they are routing metadata (FnPacker
//! routes on the model id) — but they are bound into the AEAD associated
//! data so the ciphertext cannot be replayed for a different model or user.

use crate::error::RuntimeError;
use rand::RngCore;
use sesemi_crypto::aead::{AeadKey, SealedBox};
use sesemi_crypto::gcm::Aes128Gcm;
use sesemi_inference::ModelId;
use sesemi_keyservice::PartyId;

fn request_aad(user: &PartyId, model: &ModelId) -> Vec<u8> {
    let mut aad = Vec::with_capacity(64);
    aad.extend_from_slice(b"sesemi-request");
    aad.extend_from_slice(user.as_bytes());
    aad.extend_from_slice(model.as_str().as_bytes());
    aad
}

fn response_aad(user: &PartyId, model: &ModelId) -> Vec<u8> {
    let mut aad = Vec::with_capacity(64);
    aad.extend_from_slice(b"sesemi-response");
    aad.extend_from_slice(user.as_bytes());
    aad.extend_from_slice(model.as_str().as_bytes());
    aad
}

/// Serializes an input feature vector.
#[must_use]
pub fn encode_input(features: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + features.len() * 4);
    out.extend_from_slice(&(features.len() as u32).to_le_bytes());
    for value in features {
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Parses an input feature vector.
pub fn decode_input(bytes: &[u8]) -> Result<Vec<f32>, RuntimeError> {
    if bytes.len() < 4 {
        return Err(RuntimeError::RequestDecryption);
    }
    let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if bytes.len() != 4 + count * 4 {
        return Err(RuntimeError::RequestDecryption);
    }
    Ok(bytes[4..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// An encrypted inference request as it travels through FnPacker and the
/// serverless platform.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceRequest {
    /// The requesting user (public routing metadata).
    pub user: PartyId,
    /// The target model (public routing metadata).
    pub model: ModelId,
    /// The AEAD-protected input features.
    pub payload: SealedBox,
}

impl InferenceRequest {
    /// Client side: encrypts `features` under the user's request key.
    pub fn encrypt<R: RngCore>(
        user: PartyId,
        model: ModelId,
        features: &[f32],
        request_key: &AeadKey,
        rng: &mut R,
    ) -> Self {
        let cipher = Aes128Gcm::new(request_key);
        let aad = request_aad(&user, &model);
        let payload = SealedBox::seal(&cipher, rng, &encode_input(features), &aad);
        InferenceRequest {
            user,
            model,
            payload,
        }
    }

    /// Enclave side: decrypts the input features with the provisioned request
    /// key, verifying the binding to this user and model.
    pub fn decrypt(&self, request_key: &AeadKey) -> Result<Vec<f32>, RuntimeError> {
        let cipher = Aes128Gcm::new(request_key);
        if self.payload.aad != request_aad(&self.user, &self.model) {
            return Err(RuntimeError::RequestDecryption);
        }
        let plaintext = self
            .payload
            .open(&cipher)
            .map_err(|_| RuntimeError::RequestDecryption)?;
        decode_input(&plaintext)
    }
}

/// An encrypted inference response.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceResponse {
    /// The user the response is for.
    pub user: PartyId,
    /// The model that produced it.
    pub model: ModelId,
    /// The AEAD-protected serialized prediction vector.
    pub payload: SealedBox,
}

impl InferenceResponse {
    /// Enclave side: encrypts the serialized output under the request key.
    pub fn encrypt<R: RngCore>(
        user: PartyId,
        model: ModelId,
        serialized_output: &[u8],
        request_key: &AeadKey,
        rng: &mut R,
    ) -> Self {
        let cipher = Aes128Gcm::new(request_key);
        let aad = response_aad(&user, &model);
        let payload = SealedBox::seal(&cipher, rng, serialized_output, &aad);
        InferenceResponse {
            user,
            model,
            payload,
        }
    }

    /// Client side: decrypts the prediction vector.
    pub fn decrypt(&self, request_key: &AeadKey) -> Result<Vec<f32>, RuntimeError> {
        let cipher = Aes128Gcm::new(request_key);
        if self.payload.aad != response_aad(&self.user, &self.model) {
            return Err(RuntimeError::RequestDecryption);
        }
        let plaintext = self
            .payload
            .open(&cipher)
            .map_err(|_| RuntimeError::RequestDecryption)?;
        sesemi_inference::ModelRuntime::parse_output(&plaintext)
            .map_err(|_| RuntimeError::RequestDecryption)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_crypto::rng::SessionRng;

    fn user(seed: u8) -> PartyId {
        PartyId::from_identity_key(&AeadKey::from_bytes([seed; 16]))
    }

    #[test]
    fn input_encoding_roundtrip() {
        let features = vec![0.5f32, -1.25, 3.75, 0.0];
        assert_eq!(decode_input(&encode_input(&features)).unwrap(), features);
        assert!(decode_input(&[1, 2]).is_err());
        let mut bad = encode_input(&features);
        bad.pop();
        assert!(decode_input(&bad).is_err());
    }

    #[test]
    fn request_roundtrip_with_correct_key() {
        let mut rng = SessionRng::from_seed(1);
        let key = AeadKey::from_bytes([9u8; 16]);
        let features = vec![1.0f32, 2.0, 3.0];
        let request =
            InferenceRequest::encrypt(user(1), ModelId::new("mbnet"), &features, &key, &mut rng);
        assert_eq!(request.decrypt(&key).unwrap(), features);
    }

    #[test]
    fn request_with_wrong_key_or_swapped_metadata_fails() {
        let mut rng = SessionRng::from_seed(2);
        let key = AeadKey::from_bytes([9u8; 16]);
        let wrong_key = AeadKey::from_bytes([8u8; 16]);
        let mut request =
            InferenceRequest::encrypt(user(1), ModelId::new("mbnet"), &[1.0, 2.0], &key, &mut rng);
        assert!(matches!(
            request.decrypt(&wrong_key),
            Err(RuntimeError::RequestDecryption)
        ));
        // The cloud swaps the model id to route the ciphertext to a different
        // model: the AAD binding catches it.
        request.model = ModelId::new("rsnet");
        assert!(request.decrypt(&key).is_err());
    }

    #[test]
    fn response_roundtrip_and_tamper_detection() {
        let mut rng = SessionRng::from_seed(3);
        let key = AeadKey::from_bytes([5u8; 16]);
        let output = vec![0.1f32, 0.7, 0.2];
        let serialized = {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(output.len() as u32).to_le_bytes());
            for v in &output {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes
        };
        let response =
            InferenceResponse::encrypt(user(2), ModelId::new("dsnet"), &serialized, &key, &mut rng);
        assert_eq!(response.decrypt(&key).unwrap(), output);

        let mut tampered = response.clone();
        tampered.payload.ciphertext[0] ^= 1;
        assert!(tampered.decrypt(&key).is_err());
        // A response cannot be replayed as a request for another user.
        let other_key = AeadKey::from_bytes([6u8; 16]);
        assert!(response.decrypt(&other_key).is_err());
    }

    #[test]
    fn request_and_response_domains_are_separated() {
        let mut rng = SessionRng::from_seed(4);
        let key = AeadKey::from_bytes([7u8; 16]);
        let request = InferenceRequest::encrypt(user(3), ModelId::new("m"), &[1.0], &key, &mut rng);
        // Interpret the request ciphertext as a response: must fail because
        // the AAD domain separates them.
        let as_response = InferenceResponse {
            user: request.user,
            model: request.model.clone(),
            payload: request.payload.clone(),
        };
        assert!(as_response.decrypt(&key).is_err());
    }
}
