//! Key provisioning and model fetching interfaces.
//!
//! SeMIRT needs two external dependencies while serving a request: the
//! KeyService (to obtain `K_M` and `K_R` after mutual attestation) and the
//! cloud storage holding the encrypted model.  Both are abstracted behind
//! traits so the runtime can be unit-tested in isolation and driven either by
//! the real in-process services or by the cluster simulator.

use crate::error::RuntimeError;
use parking_lot::Mutex;
use rand::RngCore;
use sesemi_crypto::aead::AeadKey;
use sesemi_crypto::rng::SessionRng;
use sesemi_enclave::ratls::HandshakeInitiator;
use sesemi_enclave::{Enclave, Measurement, QuoteVerifier};
use sesemi_inference::ModelId;
use sesemi_keyservice::service::{decode_response, encode_request, KeyService, Request, Response};
use sesemi_keyservice::{KeyServiceError, PartyId};
use sesemi_sim::SimDuration;
use std::collections::HashMap;
use std::sync::Arc;

/// Provides model and request keys to an attesting SeMIRT enclave.
pub trait KeyProvider: Send + Sync {
    /// Performs the `KEY_PROVISIONING` exchange for `(user, model)` on behalf
    /// of `enclave`, returning `(K_M, K_R)` and the simulated latency of the
    /// exchange (mutual attestation + provisioning).
    fn fetch_keys(
        &self,
        enclave: &Enclave,
        user: PartyId,
        model: &ModelId,
    ) -> Result<(AeadKey, AeadKey, SimDuration), RuntimeError>;
}

/// Fetches encrypted model blobs from storage.
pub trait ModelFetcher: Send + Sync {
    /// Returns the encrypted model bytes and the simulated transfer latency.
    fn fetch_encrypted_model(
        &self,
        model: &ModelId,
    ) -> Result<(Vec<u8>, SimDuration), RuntimeError>;
}

/// The production [`KeyProvider`]: talks to the in-process [`KeyService`]
/// over a mutually attested RA-TLS channel, exactly the protocol of the
/// paper's Appendix A.
pub struct KeyServiceProvider {
    service: Arc<KeyService>,
    verifier: QuoteVerifier,
    expected_keyservice: Measurement,
    rng: Mutex<SessionRng>,
}

impl KeyServiceProvider {
    /// Creates a provider that will pin `expected_keyservice` (the published
    /// `E_K`) when attesting the KeyService.
    #[must_use]
    pub fn new(
        service: Arc<KeyService>,
        verifier: QuoteVerifier,
        expected_keyservice: Measurement,
        seed: u64,
    ) -> Self {
        KeyServiceProvider {
            service,
            verifier,
            expected_keyservice,
            rng: Mutex::new(SessionRng::from_seed(seed)),
        }
    }
}

impl KeyProvider for KeyServiceProvider {
    fn fetch_keys(
        &self,
        enclave: &Enclave,
        user: PartyId,
        model: &ModelId,
    ) -> Result<(AeadKey, AeadKey, SimDuration), RuntimeError> {
        // Draw this fetch's seed under the lock and run the handshake without
        // it: one provider serves every instance of a deployment, so holding
        // the lock would run every key fetch in the process one at a time.
        let mut rng = SessionRng::from_seed(self.rng.lock().next_u64());
        // Mutual attestation: SeMIRT proves its identity, verifies E_K.
        let (initiator, quote_latency) =
            HandshakeInitiator::new_attested(enclave, &mut rng).map_err(RuntimeError::from)?;
        let (responder_hello, connection, responder_quote_latency) = self
            .service
            .accept_connection(&initiator.hello(), &mut rng)
            .map_err(RuntimeError::from)?;
        let mut channel = initiator
            .finish(&responder_hello, &self.verifier, &self.expected_keyservice)
            .map_err(RuntimeError::from)?;

        // Provisioning request over the attested channel.
        let request = Request::Provision {
            user,
            model: model.clone(),
        };
        let record = channel.send(&encode_request(&request));
        let (response_record, service_latency) = self
            .service
            .handle_record(connection, &record)
            .map_err(RuntimeError::from)?;
        let plaintext = channel
            .recv(&response_record)
            .map_err(|e| RuntimeError::KeyProvisioning(KeyServiceError::Channel(e.to_string())))?;
        let response = decode_response(&plaintext).map_err(RuntimeError::from)?;
        self.service.close_connection(connection);

        let handshake_latency = enclave.cost_model().ratls_handshake(1);
        let total = handshake_latency + quote_latency + responder_quote_latency + service_latency;
        match response {
            Response::Keys {
                model_key,
                request_key,
            } => Ok((model_key, request_key, total)),
            Response::Error(err) => Err(RuntimeError::KeyProvisioning(err)),
            _ => Err(RuntimeError::KeyProvisioning(
                KeyServiceError::InvalidPayload,
            )),
        }
    }
}

/// A simple in-memory encrypted-model store used by tests, examples and the
/// single-node experiments (the paper's cluster NFS equivalent).
#[derive(Default)]
pub struct InMemoryModelStore {
    models: Mutex<HashMap<ModelId, Vec<u8>>>,
    latency_per_mb: SimDuration,
}

impl InMemoryModelStore {
    /// Creates an empty store with a ~cluster-NFS latency profile.
    #[must_use]
    pub fn new() -> Self {
        InMemoryModelStore {
            models: Mutex::new(HashMap::new()),
            latency_per_mb: SimDuration::from_micros(900),
        }
    }

    /// Uploads an encrypted model blob.
    pub fn put(&self, model: ModelId, encrypted_bytes: Vec<u8>) {
        self.models.lock().insert(model, encrypted_bytes);
    }

    /// Number of stored models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.lock().len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.lock().is_empty()
    }
}

impl ModelFetcher for InMemoryModelStore {
    fn fetch_encrypted_model(
        &self,
        model: &ModelId,
    ) -> Result<(Vec<u8>, SimDuration), RuntimeError> {
        let models = self.models.lock();
        let bytes = models
            .get(model)
            .cloned()
            .ok_or_else(|| RuntimeError::ModelFetch(format!("model {model} not in storage")))?;
        let mb = bytes.len() as f64 / (1024.0 * 1024.0);
        let latency = SimDuration::from_millis(2) + self.latency_per_mb.mul_f64(mb);
        Ok((bytes, latency))
    }
}

/// Helper used by owners (and tests): encrypts a serialized model under the
/// model key, producing the blob that is uploaded to cloud storage.
pub fn encrypt_model<R: RngCore>(
    model_id: &ModelId,
    model_bytes: &[u8],
    model_key: &AeadKey,
    rng: &mut R,
) -> Vec<u8> {
    use sesemi_crypto::aead::SealedBox;
    use sesemi_crypto::gcm::Aes128Gcm;
    let cipher = Aes128Gcm::new(model_key);
    SealedBox::seal(&cipher, rng, model_bytes, model_id.as_str().as_bytes()).to_bytes()
}

/// Decrypts a model blob produced by [`encrypt_model`] (inside the enclave).
pub fn decrypt_model(
    model_id: &ModelId,
    encrypted: &[u8],
    model_key: &AeadKey,
) -> Result<Vec<u8>, RuntimeError> {
    use sesemi_crypto::aead::SealedBox;
    use sesemi_crypto::gcm::Aes128Gcm;
    let cipher = Aes128Gcm::new(model_key);
    let sealed = SealedBox::from_bytes(encrypted).map_err(|_| RuntimeError::ModelDecryption)?;
    if sealed.aad != model_id.as_str().as_bytes() {
        return Err(RuntimeError::ModelDecryption);
    }
    sealed
        .open(&cipher)
        .map_err(|_| RuntimeError::ModelDecryption)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_encryption_roundtrip_and_binding() {
        let mut rng = SessionRng::from_seed(1);
        let key = AeadKey::from_bytes([1u8; 16]);
        let model_id = ModelId::new("mbnet");
        let blob = encrypt_model(&model_id, b"model bytes", &key, &mut rng);
        assert_eq!(
            decrypt_model(&model_id, &blob, &key).unwrap(),
            b"model bytes"
        );

        // Wrong key.
        let wrong = AeadKey::from_bytes([2u8; 16]);
        assert!(decrypt_model(&model_id, &blob, &wrong).is_err());
        // Wrong model id (cloud swaps blobs between models).
        assert!(decrypt_model(&ModelId::new("rsnet"), &blob, &key).is_err());
        // Tampered blob.
        let mut tampered = blob.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(decrypt_model(&model_id, &tampered, &key).is_err());
    }

    #[test]
    fn in_memory_store_serves_models_with_size_dependent_latency() {
        let store = InMemoryModelStore::new();
        assert!(store.is_empty());
        store.put(ModelId::new("small"), vec![0u8; 1024]);
        store.put(ModelId::new("large"), vec![0u8; 10 * 1024 * 1024]);
        assert_eq!(store.len(), 2);

        let (small_bytes, small_latency) =
            store.fetch_encrypted_model(&ModelId::new("small")).unwrap();
        let (large_bytes, large_latency) =
            store.fetch_encrypted_model(&ModelId::new("large")).unwrap();
        assert_eq!(small_bytes.len(), 1024);
        assert_eq!(large_bytes.len(), 10 * 1024 * 1024);
        assert!(large_latency > small_latency);

        assert!(matches!(
            store.fetch_encrypted_model(&ModelId::new("missing")),
            Err(RuntimeError::ModelFetch(_))
        ));
    }
}
