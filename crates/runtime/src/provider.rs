//! Key provisioning and model fetching interfaces.
//!
//! SeMIRT needs two external dependencies while serving a request: the
//! KeyService (to obtain `K_M` and `K_R` after mutual attestation) and the
//! cloud storage holding the encrypted model.  Both are abstracted behind
//! traits so the runtime can be unit-tested in isolation and driven either by
//! the real in-process services or by the cluster simulator.
//!
//! The model blob is copied once on its way into the enclave:
//! [`ModelFetcher::fetch_encrypted_model`] returns an owned copy, which
//! stands for `OC_LOAD_MODEL`'s copy from untrusted memory into the enclave
//! and stays.  [`decrypt_model`] takes that copy by value, decrypts it in
//! place and returns the plaintext in the same allocation (moved to its
//! front), and [`encrypt_model`] copies the owner's model bytes once, into
//! the blob it returns, and seals them there.  The blob's format is
//! [`SealedBox`]'s, and only `sesemi_crypto::aead` reads or writes it.

use crate::error::RuntimeError;
use parking_lot::Mutex;
use rand::RngCore;
use sesemi_crypto::aead::{AeadKey, SealedBox};
use sesemi_crypto::gcm::Aes128Gcm;
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
/// model key, producing the blob that is uploaded to cloud storage: a
/// [`SealedBox`]'s bytes with the model id as the AAD, sealed in one buffer
/// ([`SealedBox::seal_to_bytes`]).
pub fn encrypt_model<R: RngCore>(
    model_id: &ModelId,
    model_bytes: &[u8],
    model_key: &AeadKey,
    rng: &mut R,
) -> Vec<u8> {
    let cipher = Aes128Gcm::new(model_key);
    SealedBox::seal_to_bytes(&cipher, rng, model_bytes, model_id.as_str().as_bytes())
}

/// Decrypts a model blob produced by [`encrypt_model`] (inside the enclave)
/// in place, with [`SealedBox::open_bytes`]: the blob must name `model_id`
/// and carry a valid tag, and the plaintext comes back in the blob's own
/// allocation.  Any failure is [`RuntimeError::ModelDecryption`].
pub fn decrypt_model(
    model_id: &ModelId,
    blob: Vec<u8>,
    model_key: &AeadKey,
) -> Result<Vec<u8>, RuntimeError> {
    let cipher = Aes128Gcm::new(model_key);
    SealedBox::open_bytes(&cipher, blob, model_id.as_str().as_bytes())
        .map_err(|_| RuntimeError::ModelDecryption)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sesemi_crypto::aead::{NONCE_LEN, TAG_LEN};

    #[test]
    fn model_encryption_roundtrip_and_binding() {
        let mut rng = SessionRng::from_seed(1);
        let key = AeadKey::from_bytes([1u8; 16]);
        let model_id = ModelId::new("mbnet");
        let blob = encrypt_model(&model_id, b"model bytes", &key, &mut rng);
        // The plaintext comes back in the blob's own allocation.
        let copy = blob.clone();
        let at = copy.as_ptr();
        let plaintext = decrypt_model(&model_id, copy, &key).unwrap();
        assert_eq!(plaintext, b"model bytes");
        assert_eq!(plaintext.as_ptr(), at);

        // Wrong key.
        let wrong = AeadKey::from_bytes([2u8; 16]);
        assert!(decrypt_model(&model_id, blob.clone(), &wrong).is_err());
        // Wrong model id (cloud swaps blobs between models).
        assert!(decrypt_model(&ModelId::new("rsnet"), blob.clone(), &key).is_err());
        // Tampered blob.
        let mut tampered = blob;
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(decrypt_model(&model_id, tampered, &key).is_err());
    }

    /// A model id, a key, model bytes long enough to fill the hardware
    /// GCM's stride and leave a partial block, and the bytes sealed with
    /// [`encrypt_model`].
    fn sealed_model() -> (ModelId, AeadKey, Vec<u8>, Vec<u8>) {
        let mut rng = SessionRng::from_seed(21);
        let model_id = ModelId::new("owner/mbnet");
        let key = AeadKey::generate(&mut rng);
        let mut model_bytes = vec![0u8; 300];
        rng.fill_bytes(&mut model_bytes);
        let blob = encrypt_model(&model_id, &model_bytes, &key, &mut rng);
        (model_id, key, model_bytes, blob)
    }

    #[test]
    fn encrypt_model_writes_the_sealed_box_wire_format() {
        let (model_id, key, model_bytes, _) = sealed_model();
        let blob = encrypt_model(&model_id, &model_bytes, &key, &mut SessionRng::from_seed(8));
        let sealed = SealedBox::seal(
            &Aes128Gcm::new(&key),
            &mut SessionRng::from_seed(8),
            &model_bytes,
            model_id.as_str().as_bytes(),
        );
        assert_eq!(blob, sealed.to_bytes());
        assert_eq!(
            decrypt_model(&model_id, sealed.to_bytes(), &key).unwrap(),
            model_bytes
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The model blob comes from untrusted storage.  Truncation into
        /// each region of it (nonce, AAD length, AAD, body, tag), a bit flip
        /// in each, its AAD length set to `0x7fffffff` or `u32::MAX`, and
        /// appended bytes: every mutant is refused with `ModelDecryption`,
        /// without a panic.
        #[test]
        fn mutated_model_blobs_are_refused(
            region in 0usize..5,
            offset: u64,
            bit in 0u32..8,
            appended in 1usize..40,
        ) {
            let (model_id, key, _, blob) = sealed_model();
            let header = NONCE_LEN + 4 + model_id.as_str().len();
            let body_end = blob.len() - TAG_LEN;
            let (name, range) = [
                ("nonce", 0..NONCE_LEN),
                ("AAD length", NONCE_LEN..NONCE_LEN + 4),
                ("AAD", NONCE_LEN + 4..header),
                ("body", header..body_end),
                ("tag", body_end..blob.len()),
            ][region].clone();
            let at = range.start + (offset % range.len() as u64) as usize;
            let mut flipped = blob.clone();
            flipped[at] ^= 1 << bit;
            let mut mutants = vec![
                (format!("truncated to {at} bytes, in the {name}"), blob[..at].to_vec()),
                (format!("bit {bit} of byte {at} flipped, in the {name}"), flipped),
                (format!("{appended} bytes appended"), [&blob[..], &vec![0xA5; appended]].concat()),
            ];
            for length in [0x7fff_ffff, u32::MAX] {
                let mut claimed = blob.clone();
                claimed[NONCE_LEN..NONCE_LEN + 4].copy_from_slice(&length.to_be_bytes());
                mutants.push((format!("AAD length {length:#x}"), claimed));
            }
            for (mutation, mutant) in mutants {
                let opened = std::panic::catch_unwind(|| decrypt_model(&model_id, mutant, &key));
                prop_assert!(
                    matches!(opened, Ok(Err(RuntimeError::ModelDecryption))),
                    "{}: {:?}",
                    mutation,
                    opened.map(|result| result.map(|plaintext| plaintext.len()))
                );
            }
        }
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
