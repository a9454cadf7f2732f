//! Owner-side and user-side clients for the KeyService.
//!
//! These implement the key-setup stage of the paper's workflow (§III step 1):
//! the party attests KeyService (pinning its published measurement `E_K`),
//! registers its long-term identity key over the RA-TLS channel, and then
//! submits sealed owner/user operations.
//!
//! Transport is in-process: a client talks to a [`KeyService`] value
//! directly, exchanging the same encrypted records that would travel over the
//! network in a deployment.

use crate::error::KeyServiceError;
use crate::keystore::PartyId;
use crate::messages::{OwnerRequest, UserRequest};
use crate::service::{
    decode_response, encode_request, ConnectionId, KeyService, Request, Response,
};
use rand::RngCore;
use sesemi_crypto::aead::AeadKey;
use sesemi_enclave::ratls::{HandshakeInitiator, SecureChannel};
use sesemi_enclave::{Measurement, QuoteVerifier};
use sesemi_inference::ModelId;

/// Shared connection state for both client roles.
struct Session {
    identity_key: AeadKey,
    party: Option<PartyId>,
    channel: SecureChannel,
    connection: ConnectionId,
}

impl Session {
    fn connect<R: RngCore>(
        service: &KeyService,
        verifier: &QuoteVerifier,
        expected_keyservice: &Measurement,
        identity_key: AeadKey,
        rng: &mut R,
    ) -> Result<Self, KeyServiceError> {
        let initiator = HandshakeInitiator::new_client(rng);
        let (responder_hello, connection) = service.accept_connection(&initiator.hello(), rng)?;
        let channel = initiator
            .finish(&responder_hello, verifier, expected_keyservice)
            .map_err(KeyServiceError::from)?;
        Ok(Session {
            identity_key,
            party: None,
            channel,
            connection,
        })
    }

    fn call(
        &mut self,
        service: &KeyService,
        request: &Request,
    ) -> Result<Response, KeyServiceError> {
        let record = self.channel.send(&encode_request(request));
        let response_record = service.handle_record(self.connection, &record)?;
        let plaintext = self
            .channel
            .recv(&response_record)
            .map_err(|e| KeyServiceError::Channel(e.to_string()))?;
        decode_response(&plaintext)
    }

    fn register(&mut self, service: &KeyService) -> Result<PartyId, KeyServiceError> {
        let response = self.call(
            service,
            &Request::Register {
                identity_key: self.identity_key.clone(),
            },
        )?;
        match response {
            Response::Registered(party) => {
                self.party = Some(party);
                Ok(party)
            }
            Response::Error(err) => Err(err),
            _ => Err(KeyServiceError::InvalidPayload),
        }
    }

    fn party(&self) -> Result<PartyId, KeyServiceError> {
        self.party.ok_or(KeyServiceError::UnknownParty)
    }
}

/// A model owner's client.
pub struct OwnerClient {
    session: Session,
}

impl OwnerClient {
    /// Connects to the KeyService, verifying its attested measurement.
    pub fn connect<R: RngCore>(
        service: &KeyService,
        verifier: &QuoteVerifier,
        expected_keyservice: &Measurement,
        identity_key: AeadKey,
        rng: &mut R,
    ) -> Result<Self, KeyServiceError> {
        Ok(OwnerClient {
            session: Session::connect(service, verifier, expected_keyservice, identity_key, rng)?,
        })
    }

    /// Registers the owner's identity key (`USER_REGISTRATION`).
    pub fn register(&mut self, service: &KeyService) -> Result<PartyId, KeyServiceError> {
        self.session.register(service)
    }

    /// The owner's registered identity, if `register` has been called.
    #[must_use]
    pub fn party(&self) -> Option<PartyId> {
        self.session.party
    }

    /// `ADD_MODEL_KEY`: registers the decryption key for a model.
    pub fn add_model_key<R: RngCore>(
        &mut self,
        service: &KeyService,
        model: &ModelId,
        model_key: &AeadKey,
        rng: &mut R,
    ) -> Result<(), KeyServiceError> {
        let owner = self.session.party()?;
        let payload = OwnerRequest::AddModelKey {
            model: model.clone(),
            model_key: model_key.clone(),
        }
        .seal(&self.session.identity_key, rng);
        match self
            .session
            .call(service, &Request::OwnerOp { owner, payload })?
        {
            Response::Ok => Ok(()),
            Response::Error(err) => Err(err),
            _ => Err(KeyServiceError::InvalidPayload),
        }
    }

    /// `GRANT_ACCESS`: authorizes `user` to run `model` inside enclaves whose
    /// measurement is `enclave`.
    pub fn grant_access<R: RngCore>(
        &mut self,
        service: &KeyService,
        model: &ModelId,
        enclave: Measurement,
        user: PartyId,
        rng: &mut R,
    ) -> Result<(), KeyServiceError> {
        let owner = self.session.party()?;
        let payload = OwnerRequest::GrantAccess {
            model: model.clone(),
            enclave,
            user,
        }
        .seal(&self.session.identity_key, rng);
        match self
            .session
            .call(service, &Request::OwnerOp { owner, payload })?
        {
            Response::Ok => Ok(()),
            Response::Error(err) => Err(err),
            _ => Err(KeyServiceError::InvalidPayload),
        }
    }

    /// `REVOKE_ACCESS`: withdraws a previously granted
    /// `(model, enclave, user)` authorization.
    pub fn revoke_access<R: RngCore>(
        &mut self,
        service: &KeyService,
        model: &ModelId,
        enclave: Measurement,
        user: PartyId,
        rng: &mut R,
    ) -> Result<(), KeyServiceError> {
        let owner = self.session.party()?;
        let payload = OwnerRequest::RevokeAccess {
            model: model.clone(),
            enclave,
            user,
        }
        .seal(&self.session.identity_key, rng);
        match self
            .session
            .call(service, &Request::OwnerOp { owner, payload })?
        {
            Response::Ok => Ok(()),
            Response::Error(err) => Err(err),
            _ => Err(KeyServiceError::InvalidPayload),
        }
    }

    /// Closes the connection, releasing the KeyService-side TCS.
    pub fn disconnect(self, service: &KeyService) {
        service.close_connection(self.session.connection);
    }
}

/// A model user's client.
pub struct UserClient {
    session: Session,
}

impl UserClient {
    /// Connects to the KeyService, verifying its attested measurement.
    pub fn connect<R: RngCore>(
        service: &KeyService,
        verifier: &QuoteVerifier,
        expected_keyservice: &Measurement,
        identity_key: AeadKey,
        rng: &mut R,
    ) -> Result<Self, KeyServiceError> {
        Ok(UserClient {
            session: Session::connect(service, verifier, expected_keyservice, identity_key, rng)?,
        })
    }

    /// Registers the user's identity key (`USER_REGISTRATION`).
    pub fn register(&mut self, service: &KeyService) -> Result<PartyId, KeyServiceError> {
        self.session.register(service)
    }

    /// The user's registered identity, if `register` has been called.
    #[must_use]
    pub fn party(&self) -> Option<PartyId> {
        self.session.party
    }

    /// `ADD_REQ_KEY`: registers the request key for `(model, enclave)`.
    pub fn add_request_key<R: RngCore>(
        &mut self,
        service: &KeyService,
        model: &ModelId,
        enclave: Measurement,
        request_key: &AeadKey,
        rng: &mut R,
    ) -> Result<(), KeyServiceError> {
        let user = self.session.party()?;
        let payload = UserRequest::AddRequestKey {
            model: model.clone(),
            enclave,
            request_key: request_key.clone(),
        }
        .seal(&self.session.identity_key, rng);
        match self
            .session
            .call(service, &Request::UserOp { user, payload })?
        {
            Response::Ok => Ok(()),
            Response::Error(err) => Err(err),
            _ => Err(KeyServiceError::InvalidPayload),
        }
    }

    /// Closes the connection, releasing the KeyService-side TCS.
    pub fn disconnect(self, service: &KeyService) {
        service.close_connection(self.session.connection);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_crypto::rng::SessionRng;
    use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
    use sesemi_enclave::{CodeIdentity, Enclave, EnclaveConfig, SgxPlatform};
    use std::sync::Arc;

    const MB: u64 = 1024 * 1024;

    struct Fixture {
        service: KeyService,
        verifier: QuoteVerifier,
        semirt_measurement: Measurement,
    }

    fn fixture() -> Fixture {
        let platform = SgxPlatform::paper_sgx2_node("ks-node");
        let authority = AttestationAuthority::new(17);
        authority.register_platform("ks-node", AttestationScheme::EcdsaDcap);
        let enclave = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"keyservice code".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 8),
        )
        .unwrap();
        let verifier = authority.verifier();
        let service = KeyService::new(Arc::new(enclave), verifier.clone());
        let semirt_measurement =
            CodeIdentity::new("semirt", b"semirt code".to_vec(), "1.0").measure();
        Fixture {
            service,
            verifier,
            semirt_measurement,
        }
    }

    #[test]
    fn full_owner_and_user_setup_flow() {
        let fx = fixture();
        let mut rng = SessionRng::from_seed(5);
        let expected = fx.service.measurement();

        let mut owner = OwnerClient::connect(
            &fx.service,
            &fx.verifier,
            &expected,
            AeadKey::from_bytes([1u8; 16]),
            &mut rng,
        )
        .unwrap();
        let mut user = UserClient::connect(
            &fx.service,
            &fx.verifier,
            &expected,
            AeadKey::from_bytes([2u8; 16]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(fx.service.open_connections(), 2);

        let owner_id = owner.register(&fx.service).unwrap();
        let user_id = user.register(&fx.service).unwrap();
        assert_eq!(owner.party(), Some(owner_id));
        assert_eq!(user.party(), Some(user_id));

        let model = ModelId::new("diagnosis");
        let model_key = AeadKey::from_bytes([7u8; 16]);
        let request_key = AeadKey::from_bytes([8u8; 16]);
        owner
            .add_model_key(&fx.service, &model, &model_key, &mut rng)
            .unwrap();
        owner
            .grant_access(
                &fx.service,
                &model,
                fx.semirt_measurement,
                user_id,
                &mut rng,
            )
            .unwrap();
        user.add_request_key(
            &fx.service,
            &model,
            fx.semirt_measurement,
            &request_key,
            &mut rng,
        )
        .unwrap();

        let (parties, models, request_keys, grants) = fx.service.store_stats();
        assert_eq!((parties, models, request_keys, grants), (2, 1, 1, 1));

        // Provisioning succeeds for the attested SeMIRT identity...
        let response = fx.service.handle_request(
            Request::Provision {
                user: user_id,
                model: model.clone(),
            },
            Some(fx.semirt_measurement),
        );
        assert_eq!(
            response,
            Response::Keys {
                model_key,
                request_key
            }
        );
        // ...but not for an unattested caller or a different enclave.
        let response = fx.service.handle_request(
            Request::Provision {
                user: user_id,
                model: model.clone(),
            },
            None,
        );
        assert!(matches!(
            response,
            Response::Error(KeyServiceError::AttestationFailed(_))
        ));
        let other = CodeIdentity::new("rogue", b"rogue".to_vec(), "1").measure();
        let response = fx.service.handle_request(
            Request::Provision {
                user: user_id,
                model,
            },
            Some(other),
        );
        assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));

        owner.disconnect(&fx.service);
        user.disconnect(&fx.service);
        assert_eq!(fx.service.open_connections(), 0);
    }

    #[test]
    fn operations_before_registration_fail() {
        let fx = fixture();
        let mut rng = SessionRng::from_seed(6);
        let mut owner = OwnerClient::connect(
            &fx.service,
            &fx.verifier,
            &fx.service.measurement(),
            AeadKey::from_bytes([3u8; 16]),
            &mut rng,
        )
        .unwrap();
        let err = owner
            .add_model_key(
                &fx.service,
                &ModelId::new("m"),
                &AeadKey::from_bytes([4u8; 16]),
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, KeyServiceError::UnknownParty);
    }

    #[test]
    fn connecting_with_a_wrong_pinned_measurement_fails() {
        let fx = fixture();
        let mut rng = SessionRng::from_seed(7);
        let wrong = CodeIdentity::new("not-keyservice", b"x".to_vec(), "1").measure();
        let result = OwnerClient::connect(
            &fx.service,
            &fx.verifier,
            &wrong,
            AeadKey::from_bytes([5u8; 16]),
            &mut rng,
        );
        assert!(matches!(result, Err(KeyServiceError::AttestationFailed(_))));
    }

    #[test]
    fn tcs_capacity_bounds_concurrent_connections() {
        let fx = fixture();
        let mut rng = SessionRng::from_seed(8);
        let mut clients = Vec::new();
        // The KeyService enclave was configured with 8 TCSs; one extra
        // connection must be rejected until one disconnects.
        for i in 0..8 {
            clients.push(
                OwnerClient::connect(
                    &fx.service,
                    &fx.verifier,
                    &fx.service.measurement(),
                    AeadKey::from_bytes([i as u8 + 1; 16]),
                    &mut rng,
                )
                .unwrap(),
            );
        }
        let overflow = OwnerClient::connect(
            &fx.service,
            &fx.verifier,
            &fx.service.measurement(),
            AeadKey::from_bytes([99u8; 16]),
            &mut rng,
        );
        assert!(overflow.is_err());
        clients.pop().unwrap().disconnect(&fx.service);
        let retry = OwnerClient::connect(
            &fx.service,
            &fx.verifier,
            &fx.service.measurement(),
            AeadKey::from_bytes([99u8; 16]),
            &mut rng,
        );
        assert!(retry.is_ok());
    }
}
