//! The in-enclave key store and Algorithm 1.
//!
//! Everything in this module is state that lives *inside* the KeyService
//! enclave; the untrusted host only ever sees the encrypted payloads defined
//! in [`crate::messages`].

use crate::error::KeyServiceError;
use crate::messages::{OwnerRequest, UserRequest};
use sesemi_crypto::aead::AeadKey;
use sesemi_crypto::sha256::{sha256, Digest};
use sesemi_enclave::Measurement;
use sesemi_inference::ModelId;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An owner or user identity: `id = SHA-256(K_id)` (Algorithm 1, line 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId([u8; 32]);

impl PartyId {
    /// Derives the identity from a long-term key.
    #[must_use]
    pub fn from_identity_key(key: &AeadKey) -> Self {
        PartyId(*sha256(key.as_bytes()).as_bytes())
    }

    /// Raw bytes of the identity.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a party id from raw bytes (wire decoding).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        PartyId(bytes)
    }

    /// Short fingerprint for logs.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "party-{}", self.fingerprint())
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "party-{}", self.fingerprint())
    }
}

/// The access-control tuple ⟨M_oid ∥ E_S ∥ uid⟩ used by both `KS_R` and
/// `ACM`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AccessTuple {
    /// Model id.
    pub model: ModelId,
    /// Enclave identity allowed to receive the keys.
    pub enclave: Measurement,
    /// User id.
    pub user: PartyId,
}

/// The KeyService enclave state (Algorithm 1's `KS_I`, `KS_M`, `KS_R`,
/// `ACM`).
#[derive(Debug, Default)]
pub struct KeyStore {
    /// ⟨id, K_id⟩ — registered identities.
    ks_i: HashMap<PartyId, AeadKey>,
    /// ⟨M_oid, (owner, K_M)⟩ — model keys, remembering which owner added
    /// them so a different owner cannot overwrite them.
    ks_m: HashMap<ModelId, (PartyId, AeadKey)>,
    /// ⟨M_oid ∥ E_S ∥ uid, K_R⟩ — request keys.
    ks_r: HashMap<AccessTuple, AeadKey>,
    /// ⟨M_oid ∥ E_S ∥ uid⟩ — owner grants.
    acm: HashSet<AccessTuple>,
    /// Digests of every accepted sealed owner/user payload, for replay
    /// rejection: without this, an adversary who recorded a sealed
    /// `GRANT_ACCESS` could replay it after the owner's `REVOKE_ACCESS` and
    /// silently restore the grant.  Sealed payloads embed a random AEAD
    /// nonce, so two independently sealed copies of the same request never
    /// collide — only true byte-for-byte replays are refused.
    seen_payloads: HashSet<(PartyId, Digest)>,
}

impl KeyStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `USER_REGISTRATION(K_id)`: registers an owner or user identity key and
    /// returns the derived id.  Registration is idempotent for the same key.
    pub fn user_registration(&mut self, identity_key: AeadKey) -> PartyId {
        let id = PartyId::from_identity_key(&identity_key);
        self.ks_i.insert(id, identity_key);
        id
    }

    fn identity_key(&self, party: &PartyId) -> Result<&AeadKey, KeyServiceError> {
        self.ks_i.get(party).ok_or(KeyServiceError::UnknownParty)
    }

    /// Rejects a sealed payload the store has already accepted from `party`
    /// (anti-replay); records fresh payloads.  Called only after the payload
    /// authenticated under the party's identity key, so the set tracks
    /// genuine requests, not attacker-controlled garbage.
    fn check_fresh(
        &mut self,
        party: PartyId,
        sealed_payload: &[u8],
    ) -> Result<(), KeyServiceError> {
        let digest = sha256(sealed_payload);
        if !self.seen_payloads.insert((party, digest)) {
            return Err(KeyServiceError::Conflict(
                "replayed owner/user request".to_string(),
            ));
        }
        Ok(())
    }

    /// Handles an owner request (`ADD_MODEL_KEY` or `GRANT_ACCESS`).  The
    /// payload is encrypted under the owner's long-term key, so only a holder
    /// of that key can have produced it (Algorithm 1 lines 9–16).
    pub fn handle_owner_request(
        &mut self,
        owner: PartyId,
        sealed_payload: &[u8],
    ) -> Result<(), KeyServiceError> {
        let key = self.identity_key(&owner)?.clone();
        let request = OwnerRequest::open(&key, sealed_payload)?;
        self.check_fresh(owner, sealed_payload)?;
        match request {
            OwnerRequest::AddModelKey { model, model_key } => {
                match self.ks_m.get(&model) {
                    Some((existing_owner, _)) if *existing_owner != owner => {
                        // A different owner already registered this model id.
                        Err(KeyServiceError::Conflict(format!(
                            "model {model} is owned by another party"
                        )))
                    }
                    _ => {
                        self.ks_m.insert(model, (owner, model_key));
                        Ok(())
                    }
                }
            }
            OwnerRequest::GrantAccess {
                model,
                enclave,
                user,
            } => {
                // Only the owner of the model may grant access to it.
                match self.ks_m.get(&model) {
                    Some((existing_owner, _)) if *existing_owner == owner => {
                        self.acm.insert(AccessTuple {
                            model,
                            enclave,
                            user,
                        });
                        Ok(())
                    }
                    _ => Err(KeyServiceError::NotAuthorized),
                }
            }
            OwnerRequest::RevokeAccess {
                model,
                enclave,
                user,
            } => {
                // Only the owner of the model may revoke access to it.
                // Revoking a grant that does not exist is a no-op (revocation
                // is idempotent).
                match self.ks_m.get(&model) {
                    Some((existing_owner, _)) if *existing_owner == owner => {
                        self.acm.remove(&AccessTuple {
                            model,
                            enclave,
                            user,
                        });
                        Ok(())
                    }
                    _ => Err(KeyServiceError::NotAuthorized),
                }
            }
        }
    }

    /// Handles a user request (`ADD_REQ_KEY`), Algorithm 1 lines 17–20.
    pub fn handle_user_request(
        &mut self,
        user: PartyId,
        sealed_payload: &[u8],
    ) -> Result<(), KeyServiceError> {
        let key = self.identity_key(&user)?.clone();
        let request = UserRequest::open(&key, sealed_payload)?;
        self.check_fresh(user, sealed_payload)?;
        match request {
            UserRequest::AddRequestKey {
                model,
                enclave,
                request_key,
            } => {
                self.ks_r.insert(
                    AccessTuple {
                        model,
                        enclave,
                        user,
                    },
                    request_key,
                );
                Ok(())
            }
        }
    }

    /// `KEY_PROVISIONING(uid, M_oid, RAReport)`: returns `(K_M, K_R)` iff the
    /// attested enclave identity is authorized by *both* the owner's grant
    /// (`ACM`) and the user's request-key binding (`KS_R`), Algorithm 1
    /// lines 21–26.
    pub fn key_provisioning(
        &self,
        user: PartyId,
        model: &ModelId,
        attested_enclave: Measurement,
    ) -> Result<(AeadKey, AeadKey), KeyServiceError> {
        let tuple = AccessTuple {
            model: model.clone(),
            enclave: attested_enclave,
            user,
        };
        if !self.acm.contains(&tuple) {
            return Err(KeyServiceError::NotAuthorized);
        }
        let request_key = self
            .ks_r
            .get(&tuple)
            .ok_or(KeyServiceError::NotAuthorized)?
            .clone();
        let model_key = self
            .ks_m
            .get(model)
            .map(|(_, key)| key.clone())
            .ok_or(KeyServiceError::NotAuthorized)?;
        Ok((model_key, request_key))
    }

    /// Number of registered parties.
    #[must_use]
    pub fn registered_parties(&self) -> usize {
        self.ks_i.len()
    }

    /// Number of registered model keys.
    #[must_use]
    pub fn registered_models(&self) -> usize {
        self.ks_m.len()
    }

    /// Number of stored request keys.
    #[must_use]
    pub fn registered_request_keys(&self) -> usize {
        self.ks_r.len()
    }

    /// Number of access-control grants.
    #[must_use]
    pub fn grants(&self) -> usize {
        self.acm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{OwnerRequest, UserRequest};
    use crate::mutation::{mutate, Mutation};
    use proptest::prelude::*;
    use sesemi_crypto::aead::NONCE_LEN;
    use sesemi_crypto::rng::SessionRng;
    use sesemi_enclave::CodeIdentity;

    fn key(seed: u8) -> AeadKey {
        AeadKey::from_bytes([seed; 16])
    }

    fn enclave_id(tag: &str) -> Measurement {
        CodeIdentity::new(tag, tag.as_bytes().to_vec(), "1").measure()
    }

    struct World {
        store: KeyStore,
        owner: PartyId,
        owner_key: AeadKey,
        user: PartyId,
        user_key: AeadKey,
        rng: SessionRng,
    }

    fn world() -> World {
        let mut store = KeyStore::new();
        let owner_key = key(1);
        let user_key = key(2);
        let owner = store.user_registration(owner_key.clone());
        let user = store.user_registration(user_key.clone());
        World {
            store,
            owner,
            owner_key,
            user,
            user_key,
            rng: SessionRng::from_seed(99),
        }
    }

    fn provision_setup(w: &mut World, model: &str, enclave: Measurement) -> (AeadKey, AeadKey) {
        let model_id = ModelId::new(model);
        let model_key = key(10);
        let request_key = key(20);
        let add_model = OwnerRequest::AddModelKey {
            model: model_id.clone(),
            model_key: model_key.clone(),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();

        let grant = OwnerRequest::GrantAccess {
            model: model_id.clone(),
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &grant).unwrap();

        let add_req = UserRequest::AddRequestKey {
            model: model_id,
            enclave,
            request_key: request_key.clone(),
        }
        .seal(&w.user_key, &mut w.rng);
        w.store.handle_user_request(w.user, &add_req).unwrap();
        (model_key, request_key)
    }

    #[test]
    fn registration_derives_sha256_identity() {
        let mut store = KeyStore::new();
        let identity_key = key(7);
        let id = store.user_registration(identity_key.clone());
        assert_eq!(id, PartyId::from_identity_key(&identity_key));
        assert_eq!(store.registered_parties(), 1);
        // Idempotent for the same key.
        assert_eq!(store.user_registration(identity_key), id);
        assert_eq!(store.registered_parties(), 1);
    }

    #[test]
    fn full_authorized_provisioning_flow() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        let (model_key, request_key) = provision_setup(&mut w, "diagnosis", enclave);
        let (km, kr) = w
            .store
            .key_provisioning(w.user, &ModelId::new("diagnosis"), enclave)
            .unwrap();
        assert_eq!(km, model_key);
        assert_eq!(kr, request_key);
        assert_eq!(w.store.registered_models(), 1);
        assert_eq!(w.store.registered_request_keys(), 1);
        assert_eq!(w.store.grants(), 1);
    }

    #[test]
    fn provisioning_fails_without_owner_grant() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        let model_id = ModelId::new("diagnosis");
        // Owner adds the model key but grants nothing.
        let add_model = OwnerRequest::AddModelKey {
            model: model_id.clone(),
            model_key: key(10),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();
        // User adds a request key.
        let add_req = UserRequest::AddRequestKey {
            model: model_id.clone(),
            enclave,
            request_key: key(20),
        }
        .seal(&w.user_key, &mut w.rng);
        w.store.handle_user_request(w.user, &add_req).unwrap();

        assert_eq!(
            w.store.key_provisioning(w.user, &model_id, enclave),
            Err(KeyServiceError::NotAuthorized)
        );
    }

    #[test]
    fn provisioning_fails_without_user_request_key() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        let model_id = ModelId::new("diagnosis");
        let add_model = OwnerRequest::AddModelKey {
            model: model_id.clone(),
            model_key: key(10),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();
        let grant = OwnerRequest::GrantAccess {
            model: model_id.clone(),
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &grant).unwrap();

        assert_eq!(
            w.store.key_provisioning(w.user, &model_id, enclave),
            Err(KeyServiceError::NotAuthorized)
        );
    }

    #[test]
    fn provisioning_fails_for_wrong_enclave_identity() {
        let mut w = world();
        let good_enclave = enclave_id("semirt");
        provision_setup(&mut w, "diagnosis", good_enclave);
        // A different (e.g. tampered or differently-configured) enclave asks
        // for the keys.
        let evil_enclave = enclave_id("semirt-modified");
        assert_eq!(
            w.store
                .key_provisioning(w.user, &ModelId::new("diagnosis"), evil_enclave),
            Err(KeyServiceError::NotAuthorized)
        );
    }

    #[test]
    fn provisioning_fails_for_unauthorized_user() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        provision_setup(&mut w, "diagnosis", enclave);
        let other_key = key(3);
        let other_user = w.store.user_registration(other_key);
        assert_eq!(
            w.store
                .key_provisioning(other_user, &ModelId::new("diagnosis"), enclave),
            Err(KeyServiceError::NotAuthorized)
        );
    }

    #[test]
    fn unregistered_parties_cannot_submit_requests() {
        let mut w = world();
        let ghost_key = key(9);
        let ghost = PartyId::from_identity_key(&ghost_key);
        let payload = OwnerRequest::AddModelKey {
            model: ModelId::new("m"),
            model_key: key(10),
        }
        .seal(&ghost_key, &mut w.rng);
        assert_eq!(
            w.store.handle_owner_request(ghost, &payload),
            Err(KeyServiceError::UnknownParty)
        );
    }

    #[test]
    fn payload_encrypted_with_wrong_key_is_rejected() {
        let mut w = world();
        // An attacker (who doesn't know the owner's key) forges a payload
        // encrypted with some other key and submits it under the owner's id.
        let attacker_key = key(66);
        let payload = OwnerRequest::AddModelKey {
            model: ModelId::new("m"),
            model_key: key(10),
        }
        .seal(&attacker_key, &mut w.rng);
        assert_eq!(
            w.store.handle_owner_request(w.owner, &payload),
            Err(KeyServiceError::InvalidPayload)
        );
    }

    #[test]
    fn users_cannot_grant_access_to_models_they_do_not_own() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        // Owner registers the model.
        let add_model = OwnerRequest::AddModelKey {
            model: ModelId::new("m"),
            model_key: key(10),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();

        // A second "owner" (actually the user acting as an owner) tries to
        // grant themselves access to the model they do not own.
        let malicious_grant = OwnerRequest::GrantAccess {
            model: ModelId::new("m"),
            enclave,
            user: w.user,
        }
        .seal(&w.user_key, &mut w.rng);
        assert_eq!(
            w.store.handle_owner_request(w.user, &malicious_grant),
            Err(KeyServiceError::NotAuthorized)
        );
    }

    #[test]
    fn a_different_owner_cannot_overwrite_a_model_key() {
        let mut w = world();
        let add_model = OwnerRequest::AddModelKey {
            model: ModelId::new("m"),
            model_key: key(10),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();

        let other_owner_key = key(4);
        let other_owner = w.store.user_registration(other_owner_key.clone());
        let overwrite = OwnerRequest::AddModelKey {
            model: ModelId::new("m"),
            model_key: key(11),
        }
        .seal(&other_owner_key, &mut w.rng);
        assert!(matches!(
            w.store.handle_owner_request(other_owner, &overwrite),
            Err(KeyServiceError::Conflict(_))
        ));
    }

    #[test]
    fn owner_can_rotate_their_own_model_key() {
        let mut w = world();
        for seed in [10u8, 11] {
            let payload = OwnerRequest::AddModelKey {
                model: ModelId::new("m"),
                model_key: key(seed),
            }
            .seal(&w.owner_key, &mut w.rng);
            w.store.handle_owner_request(w.owner, &payload).unwrap();
        }
        assert_eq!(w.store.registered_models(), 1);
    }

    #[test]
    fn revocation_removes_the_grant_and_is_owner_only() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        provision_setup(&mut w, "diagnosis", enclave);
        let model_id = ModelId::new("diagnosis");
        assert!(w.store.key_provisioning(w.user, &model_id, enclave).is_ok());

        // A non-owner cannot revoke.
        let revoke = OwnerRequest::RevokeAccess {
            model: model_id.clone(),
            enclave,
            user: w.user,
        };
        let forged = revoke.clone().seal(&w.user_key, &mut w.rng);
        assert_eq!(
            w.store.handle_owner_request(w.user, &forged),
            Err(KeyServiceError::NotAuthorized)
        );
        // The grant is still in place after the failed revocation.
        assert!(w.store.key_provisioning(w.user, &model_id, enclave).is_ok());

        // The owner revokes: provisioning is refused from then on.
        let sealed = revoke.seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &sealed).unwrap();
        assert_eq!(w.store.grants(), 0);
        assert_eq!(
            w.store.key_provisioning(w.user, &model_id, enclave),
            Err(KeyServiceError::NotAuthorized)
        );

        // Revocation is idempotent.
        let again = OwnerRequest::RevokeAccess {
            model: model_id,
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        assert_eq!(w.store.handle_owner_request(w.owner, &again), Ok(()));
    }

    #[test]
    fn replayed_grants_cannot_undo_a_revocation() {
        // The untrusted host records the owner's sealed GRANT_ACCESS bytes.
        // After the owner revokes, replaying the recorded ciphertext must not
        // restore the grant: byte-identical payloads are refused.
        let mut w = world();
        let enclave = enclave_id("semirt");
        let model_id = ModelId::new("diagnosis");
        let add_model = OwnerRequest::AddModelKey {
            model: model_id.clone(),
            model_key: key(10),
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &add_model).unwrap();

        let recorded_grant = OwnerRequest::GrantAccess {
            model: model_id.clone(),
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store
            .handle_owner_request(w.owner, &recorded_grant)
            .unwrap();

        let revoke = OwnerRequest::RevokeAccess {
            model: model_id.clone(),
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &revoke).unwrap();
        assert_eq!(w.store.grants(), 0);

        // Replay of the recorded grant: refused, grant stays revoked.
        assert!(matches!(
            w.store.handle_owner_request(w.owner, &recorded_grant),
            Err(KeyServiceError::Conflict(_))
        ));
        assert_eq!(w.store.grants(), 0);

        // A *fresh* re-grant from the owner (new nonce) still works.
        let regrant = OwnerRequest::GrantAccess {
            model: model_id,
            enclave,
            user: w.user,
        }
        .seal(&w.owner_key, &mut w.rng);
        w.store.handle_owner_request(w.owner, &regrant).unwrap();
        assert_eq!(w.store.grants(), 1);
    }

    #[test]
    fn replayed_user_requests_are_rejected() {
        let mut w = world();
        let enclave = enclave_id("semirt");
        let add_req = UserRequest::AddRequestKey {
            model: ModelId::new("m"),
            enclave,
            request_key: key(20),
        }
        .seal(&w.user_key, &mut w.rng);
        w.store.handle_user_request(w.user, &add_req).unwrap();
        assert!(matches!(
            w.store.handle_user_request(w.user, &add_req),
            Err(KeyServiceError::Conflict(_))
        ));
    }

    fn counts(store: &KeyStore) -> [usize; 4] {
        [
            store.registered_parties(),
            store.registered_models(),
            store.registered_request_keys(),
            store.grants(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A sealed owner or user payload mangled on its way to the
        /// KeyService is refused as `InvalidPayload` and changes nothing: no
        /// count moves and provisioning answers as before, so a mutated
        /// `RevokeAccess` revokes nothing and a mutated `GrantAccess` grants
        /// nothing.  The genuine payload then does change the answer.
        #[test]
        fn mutated_sealed_payloads_are_refused_and_change_nothing(
            payload in 0usize..4,
            kind in 0usize..6,
            at: usize,
            len in 1usize..200,
            bytes: [u8; 200],
        ) {
            let mut w = world();
            let model = ModelId::new("diagnosis");
            let granted = enclave_id("semirt");
            let other = enclave_id("semirt-2");
            provision_setup(&mut w, "diagnosis", granted);
            // The user's request key for `other`, so a grant for it would show.
            let add_req = UserRequest::AddRequestKey {
                model: model.clone(),
                enclave: other,
                request_key: key(21),
            }
            .seal(&w.user_key, &mut w.rng);
            w.store.handle_user_request(w.user, &add_req).unwrap();

            // Each payload, when genuine, changes provisioning's answer.
            let sealed = match payload {
                0 => OwnerRequest::AddModelKey {
                    model: model.clone(),
                    model_key: key(11),
                }
                .seal(&w.owner_key, &mut w.rng),
                1 => OwnerRequest::GrantAccess {
                    model: model.clone(),
                    enclave: other,
                    user: w.user,
                }
                .seal(&w.owner_key, &mut w.rng),
                2 => OwnerRequest::RevokeAccess {
                    model: model.clone(),
                    enclave: granted,
                    user: w.user,
                }
                .seal(&w.owner_key, &mut w.rng),
                _ => UserRequest::AddRequestKey {
                    model: model.clone(),
                    enclave: granted,
                    request_key: key(22),
                }
                .seal(&w.user_key, &mut w.rng),
            };
            let from_owner = payload < 3;
            let submit = |w: &mut World, bytes: &[u8]| {
                if from_owner {
                    w.store.handle_owner_request(w.owner, bytes)
                } else {
                    w.store.handle_user_request(w.user, bytes)
                }
            };
            let answers = |w: &World| {
                [granted, other].map(|enclave| w.store.key_provisioning(w.user, &model, enclave))
            };
            let mutation = [
                Mutation::Truncate,
                Mutation::FlipBit,
                Mutation::Length { offset: NONCE_LEN, value: 0x7fff_ffff },
                Mutation::Length { offset: NONCE_LEN, value: u32::MAX },
                Mutation::Extend,
                Mutation::Random,
            ][kind];

            let (counts_before, answers_before) = (counts(&w.store), answers(&w));
            let result = submit(&mut w, &mutate(&sealed, mutation, at, &bytes[..len]));
            prop_assert!(
                result == Err(KeyServiceError::InvalidPayload),
                "{mutation:?} of payload {payload}: {result:?}"
            );
            prop_assert_eq!(counts(&w.store), counts_before);
            prop_assert_eq!(answers(&w), answers_before.clone());

            prop_assert_eq!(submit(&mut w, &sealed), Ok(()));
            prop_assert!(answers(&w) != answers_before, "payload {payload} changed nothing");
        }
    }

    #[test]
    fn party_id_formatting() {
        let id = PartyId::from_identity_key(&key(1));
        assert!(id.to_string().starts_with("party-"));
        assert_eq!(id.fingerprint().len(), 8);
        assert_eq!(PartyId::from_bytes(*id.as_bytes()), id);
    }
}
