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
use sesemi_enclave::ratls::{HandshakeInitiator, ResumptionSession, SecureChannel};
use sesemi_enclave::{Enclave, Measurement, QuoteVerifier};
use sesemi_inference::ModelId;
use sesemi_keyservice::service::{
    decode_response, encode_request, ConnectionId, KeyService, Request, Response,
};
use sesemi_keyservice::{KeyServiceError, PartyId};
use std::collections::HashMap;
use std::sync::Arc;

/// Provides model and request keys to an attesting SeMIRT enclave.
pub trait KeyProvider: Send + Sync {
    /// Performs the `KEY_PROVISIONING` exchange for `(user, model)` on behalf
    /// of `enclave`, returning `(K_M, K_R)`.
    ///
    /// `session` is the enclave's attested session with the key source: a
    /// provider may resume it instead of attesting again, and leaves in it
    /// the session a later fetch should resume, or `None`.
    fn fetch_keys(
        &self,
        enclave: &Enclave,
        session: &mut Option<ResumptionSession>,
        user: PartyId,
        model: &ModelId,
    ) -> Result<(AeadKey, AeadKey), RuntimeError>;
}

/// Fetches encrypted model blobs from storage.
pub trait ModelFetcher: Send + Sync {
    /// Returns the encrypted model bytes.
    fn fetch_encrypted_model(&self, model: &ModelId) -> Result<Vec<u8>, RuntimeError>;
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

impl KeyServiceProvider {
    fn opened(&self, id: ConnectionId) -> OpenConnection<'_> {
        OpenConnection {
            service: &self.service,
            id,
        }
    }

    /// Sends the `Provision` record on an open connection and reads the
    /// answer.  `Err` means the exchange itself failed: a record did not
    /// authenticate or the answer did not decode.
    fn provision(
        &self,
        channel: &mut SecureChannel,
        connection: ConnectionId,
        request: &[u8],
    ) -> Result<Response, RuntimeError> {
        let record = channel.send(request);
        let response_record = self
            .service
            .handle_record(connection, &record)
            .map_err(RuntimeError::from)?;
        let plaintext = channel
            .recv(&response_record)
            .map_err(|e| RuntimeError::KeyProvisioning(KeyServiceError::Channel(e.to_string())))?;
        decode_response(&plaintext).map_err(RuntimeError::from)
    }
}

/// Closes a KeyService connection when dropped, so every exit from a fetch
/// releases the connection and the KeyService TCS it holds.
struct OpenConnection<'a> {
    service: &'a KeyService,
    id: ConnectionId,
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.service.close_connection(self.id);
    }
}

impl KeyProvider for KeyServiceProvider {
    /// Resumes `session` when there is one; otherwise, or when the
    /// KeyService declines its ticket, runs one full mutually attested
    /// handshake, which yields the session for the next fetch.  A failed
    /// exchange drops the session; an authenticated refusal such as
    /// `NotAuthorized` keeps it.
    fn fetch_keys(
        &self,
        enclave: &Enclave,
        session: &mut Option<ResumptionSession>,
        user: PartyId,
        model: &ModelId,
    ) -> Result<(AeadKey, AeadKey), RuntimeError> {
        // Draw this fetch's seed under the lock and run the handshake without
        // it: one provider serves every instance of a deployment, so holding
        // the lock would run every key fetch in the process one at a time.
        let mut rng = SessionRng::from_seed(self.rng.lock().next_u64());
        let request = encode_request(&Request::Provision {
            user,
            model: model.clone(),
        });

        let resumed = match session.as_ref() {
            Some(resumable) => {
                let hello = resumable.resume(&mut rng);
                match self.service.accept_resumption(&hello, &mut rng) {
                    Ok((nonce, id)) => Some((self.opened(id), resumable.finish(&hello, &nonce))),
                    // Declined: drop the ticket and attest in full below.
                    Err(KeyServiceError::AttestationFailed(_)) => None,
                    Err(err) => return Err(err.into()),
                }
            }
            None => None,
        };
        let (connection, mut channel, ticket) = match resumed {
            Some((connection, channel)) => (connection, channel, None),
            None => {
                *session = None;
                // Mutual attestation: SeMIRT proves its identity, verifies E_K.
                let initiator = HandshakeInitiator::new_attested(enclave, &mut rng)?;
                let (hello, id) = self
                    .service
                    .accept_connection(&initiator.hello(), &mut rng)?;
                let connection = self.opened(id);
                let channel =
                    initiator.finish(&hello, &self.verifier, &self.expected_keyservice)?;
                (connection, channel, hello.ticket)
            }
        };
        let response = self.provision(&mut channel, connection.id, &request);
        if response.is_err() {
            *session = None;
        } else if let Some(ticket) = ticket {
            *session = Some(ResumptionSession::new(ticket, &channel));
        }
        match response? {
            Response::Keys {
                model_key,
                request_key,
            } => Ok((model_key, request_key)),
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
}

impl InMemoryModelStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        InMemoryModelStore::default()
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
    fn fetch_encrypted_model(&self, model: &ModelId) -> Result<Vec<u8>, RuntimeError> {
        self.models
            .lock()
            .get(model)
            .cloned()
            .ok_or_else(|| RuntimeError::ModelFetch(format!("model {model} not in storage")))
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
    fn in_memory_store_serves_stored_models_and_refuses_missing_ones() {
        let store = InMemoryModelStore::new();
        assert!(store.is_empty());
        store.put(ModelId::new("small"), vec![1u8; 1024]);
        store.put(ModelId::new("large"), vec![2u8; 10 * 1024 * 1024]);
        assert_eq!(store.len(), 2);

        let small = store.fetch_encrypted_model(&ModelId::new("small")).unwrap();
        let large = store.fetch_encrypted_model(&ModelId::new("large")).unwrap();
        assert_eq!(small, vec![1u8; 1024]);
        assert_eq!(large, vec![2u8; 10 * 1024 * 1024]);

        assert!(matches!(
            store.fetch_encrypted_model(&ModelId::new("missing")),
            Err(RuntimeError::ModelFetch(_))
        ));
    }
}
