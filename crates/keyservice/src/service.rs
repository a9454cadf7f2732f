//! The connection-level KeyService: an always-on enclave endpoint that
//! owners, users and SeMIRT enclaves talk to over RA-TLS channels.
//!
//! Each connection is handled by a thread bound to a TCS inside the
//! KeyService enclave (paper §V: "It supports multiple connections, and each
//! connection is handled by a thread, which corresponds to a TCS inside the
//! enclave").  Requests and responses travel as encrypted records over the
//! per-connection [`SecureChannel`]; the request payloads for owner/user
//! operations are *additionally* sealed under the party's long-term identity
//! key, exactly as in Algorithm 1.

use crate::error::KeyServiceError;
use crate::keystore::{KeyStore, PartyId};
use parking_lot::Mutex;
use rand::RngCore;
use sesemi_crypto::aead::{AeadKey, KEY_LEN};
use sesemi_enclave::enclave::TcsToken;
use sesemi_enclave::ratls::{respond, InitiatorHello, ResponderHello, SecureChannel};
use sesemi_enclave::{Enclave, Measurement, QuoteVerifier};
use sesemi_inference::ModelId;
use sesemi_sim::SimDuration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of an open connection to the KeyService.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnectionId(u64);

/// A request arriving over an established channel (after record decryption).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `USER_REGISTRATION`: register the sender's long-term identity key.
    Register {
        /// The long-term identity key to register.
        identity_key: AeadKey,
    },
    /// An owner operation (`ADD_MODEL_KEY` / `GRANT_ACCESS`); the payload is
    /// sealed under the owner's identity key.
    OwnerOp {
        /// The owner's registered identity.
        owner: PartyId,
        /// Sealed [`crate::messages::OwnerRequest`].
        payload: Vec<u8>,
    },
    /// A user operation (`ADD_REQ_KEY`); the payload is sealed under the
    /// user's identity key.
    UserOp {
        /// The user's registered identity.
        user: PartyId,
        /// Sealed [`crate::messages::UserRequest`].
        payload: Vec<u8>,
    },
    /// `KEY_PROVISIONING`: a SeMIRT enclave asks for the model and request
    /// keys needed to serve `user`'s request on `model`.  The enclave
    /// identity is taken from the mutually-attested channel, never from the
    /// request body.
    Provision {
        /// The user whose request is being served.
        user: PartyId,
        /// The model to be served.
        model: ModelId,
    },
}

/// A response returned over the channel.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Registration succeeded; contains the derived party id.
    Registered(PartyId),
    /// The operation succeeded.
    Ok,
    /// Key provisioning succeeded.
    Keys {
        /// Model decryption key `K_M`.
        model_key: AeadKey,
        /// Request key `K_R`.
        request_key: AeadKey,
    },
    /// The operation failed.
    Error(KeyServiceError),
}

struct Connection {
    channel: SecureChannel,
    peer_measurement: Option<Measurement>,
    _tcs: TcsToken,
}

/// The KeyService endpoint.
pub struct KeyService {
    enclave: Arc<Enclave>,
    verifier: QuoteVerifier,
    store: Mutex<KeyStore>,
    /// Connections are individually locked so records on different
    /// connections are handled concurrently (the paper's thread-per-TCS
    /// model, §V); the outer map lock is held only to look a connection up,
    /// insert one, or close one — never across keystore dispatch.
    connections: Mutex<HashMap<u64, Arc<Mutex<Connection>>>>,
    next_connection: AtomicU64,
    provisioning_compute: SimDuration,
}

impl KeyService {
    /// Creates a KeyService around an already-launched enclave.
    #[must_use]
    pub fn new(enclave: Arc<Enclave>, verifier: QuoteVerifier) -> Self {
        KeyService {
            enclave,
            verifier,
            store: Mutex::new(KeyStore::new()),
            connections: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            provisioning_compute: SimDuration::from_millis(3),
        }
    }

    /// The KeyService enclave's measurement (`E_K`), which owners and users
    /// pin before registering.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// The underlying enclave.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Accepts an RA-TLS connection: verifies the initiator's quote if
    /// present (mutual attestation for SeMIRT), produces the responder hello,
    /// and binds the connection to a TCS.
    pub fn accept_connection<R: RngCore>(
        &self,
        hello: &InitiatorHello,
        rng: &mut R,
    ) -> Result<(ResponderHello, ConnectionId, SimDuration), KeyServiceError> {
        // `tcs` is a scoped token: if `respond` rejects the handshake the
        // early return drops it and the TCS is released — a failed
        // attestation must never leak enclave concurrency.
        let tcs = self.enclave.enter().map_err(KeyServiceError::from)?;
        let result = respond(hello, &self.enclave, &self.verifier, rng)?;
        let id = self.next_connection.fetch_add(1, Ordering::Relaxed);
        self.connections.lock().insert(
            id,
            Arc::new(Mutex::new(Connection {
                channel: result.channel,
                peer_measurement: result.initiator_measurement,
                _tcs: tcs,
            })),
        );
        Ok((result.hello, ConnectionId(id), result.quote_latency))
    }

    /// Accepts a connection from a *peer replica*: like
    /// [`KeyService::accept_connection`], but the initiator must present a
    /// quote whose measurement equals `expected` — a mesh only admits peers
    /// running identical KeyService code.
    pub fn accept_peer_connection<R: RngCore>(
        &self,
        hello: &InitiatorHello,
        expected: &Measurement,
        rng: &mut R,
    ) -> Result<(ResponderHello, ConnectionId, SimDuration), KeyServiceError> {
        match hello.quote.as_ref().map(|quote| quote.measurement) {
            Some(measurement) if measurement == *expected => self.accept_connection(hello, rng),
            Some(_) => Err(KeyServiceError::AttestationFailed(
                "peer measurement does not match the replica set".to_string(),
            )),
            None => Err(KeyServiceError::AttestationFailed(
                "peer replicas must attest".to_string(),
            )),
        }
    }

    /// Handles one encrypted record on a connection and returns the encrypted
    /// response record plus the simulated in-enclave processing latency.
    ///
    /// A record that authenticates but carries a malformed request yields an
    /// encrypted [`Response::Error`] record, not an `Err`: `recv` has already
    /// advanced the channel's receive sequence, so swallowing the exchange
    /// would desync the channel and poison every later record on the
    /// connection.  `Err` is reserved for an unknown connection and for
    /// records that fail authentication (a failed `recv` does not advance
    /// the sequence, so the channel stays usable).
    pub fn handle_record(
        &self,
        connection: ConnectionId,
        record: &[u8],
    ) -> Result<(Vec<u8>, SimDuration), KeyServiceError> {
        let conn = self
            .connections
            .lock()
            .get(&connection.0)
            .cloned()
            .ok_or_else(|| KeyServiceError::Channel("unknown connection".to_string()))?;
        let mut conn = conn.lock();
        let plaintext = conn
            .channel
            .recv(record)
            .map_err(|e| KeyServiceError::Channel(e.to_string()))?;
        let response = match decode_request(&plaintext) {
            Ok(request) => self.dispatch(request, conn.peer_measurement),
            Err(err) => Response::Error(err),
        };
        let record = conn.channel.send(&encode_response(&response));
        Ok((record, self.provisioning_compute))
    }

    /// Handles an already-decoded request (used by in-process callers and by
    /// the simulator, which skips the record framing but not the logic).
    pub fn handle_request(
        &self,
        request: Request,
        peer_measurement: Option<Measurement>,
    ) -> Response {
        self.dispatch(request, peer_measurement)
    }

    fn dispatch(&self, request: Request, peer: Option<Measurement>) -> Response {
        let mut store = self.store.lock();
        match request {
            Request::Register { identity_key } => {
                Response::Registered(store.user_registration(identity_key))
            }
            Request::OwnerOp { owner, payload } => {
                match store.handle_owner_request(owner, &payload) {
                    Ok(()) => Response::Ok,
                    Err(err) => Response::Error(err),
                }
            }
            Request::UserOp { user, payload } => match store.handle_user_request(user, &payload) {
                Ok(()) => Response::Ok,
                Err(err) => Response::Error(err),
            },
            Request::Provision { user, model } => {
                // The enclave identity must come from mutual attestation.
                let Some(enclave_identity) = peer else {
                    return Response::Error(KeyServiceError::AttestationFailed(
                        "provisioning requires a mutually attested channel".to_string(),
                    ));
                };
                match store.key_provisioning(user, &model, enclave_identity) {
                    Ok((model_key, request_key)) => Response::Keys {
                        model_key,
                        request_key,
                    },
                    Err(err) => Response::Error(err),
                }
            }
        }
    }

    /// Closes a connection, releasing its TCS.
    pub fn close_connection(&self, connection: ConnectionId) {
        self.connections.lock().remove(&connection.0);
    }

    /// Number of currently open connections.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.connections.lock().len()
    }

    /// Read-only snapshot of store statistics: (parties, models, request
    /// keys, grants).
    #[must_use]
    pub fn store_stats(&self) -> (usize, usize, usize, usize) {
        let store = self.store.lock();
        (
            store.registered_parties(),
            store.registered_models(),
            store.registered_request_keys(),
            store.grants(),
        )
    }
}

// --- wire protocol ----------------------------------------------------------

/// Encodes a request for transmission over a secure channel.
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Register { identity_key } => {
            out.push(0);
            out.extend_from_slice(identity_key.as_bytes());
        }
        Request::OwnerOp { owner, payload } => {
            out.push(1);
            out.extend_from_slice(owner.as_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        }
        Request::UserOp { user, payload } => {
            out.push(2);
            out.extend_from_slice(user.as_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        }
        Request::Provision { user, model } => {
            out.push(3);
            out.extend_from_slice(user.as_bytes());
            let model_bytes = model.as_str().as_bytes();
            out.extend_from_slice(&(model_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(model_bytes);
        }
    }
    out
}

/// Decodes a request received over a secure channel.
pub fn decode_request(bytes: &[u8]) -> Result<Request, KeyServiceError> {
    if bytes.is_empty() {
        return Err(KeyServiceError::InvalidPayload);
    }
    let body = &bytes[1..];
    match bytes[0] {
        0 => {
            let key: [u8; KEY_LEN] = body
                .try_into()
                .map_err(|_| KeyServiceError::InvalidPayload)?;
            Ok(Request::Register {
                identity_key: AeadKey::from_bytes(key),
            })
        }
        1 | 2 => {
            if body.len() < 36 {
                return Err(KeyServiceError::InvalidPayload);
            }
            let mut party = [0u8; 32];
            party.copy_from_slice(&body[..32]);
            let len = u32::from_le_bytes([body[32], body[33], body[34], body[35]]) as usize;
            if body.len() != 36 + len {
                return Err(KeyServiceError::InvalidPayload);
            }
            let payload = body[36..].to_vec();
            if bytes[0] == 1 {
                Ok(Request::OwnerOp {
                    owner: PartyId::from_bytes(party),
                    payload,
                })
            } else {
                Ok(Request::UserOp {
                    user: PartyId::from_bytes(party),
                    payload,
                })
            }
        }
        3 => {
            if body.len() < 36 {
                return Err(KeyServiceError::InvalidPayload);
            }
            let mut party = [0u8; 32];
            party.copy_from_slice(&body[..32]);
            let len = u32::from_le_bytes([body[32], body[33], body[34], body[35]]) as usize;
            if body.len() != 36 + len {
                return Err(KeyServiceError::InvalidPayload);
            }
            let model =
                std::str::from_utf8(&body[36..]).map_err(|_| KeyServiceError::InvalidPayload)?;
            Ok(Request::Provision {
                user: PartyId::from_bytes(party),
                model: ModelId::new(model),
            })
        }
        _ => Err(KeyServiceError::InvalidPayload),
    }
}

/// Encodes a response for transmission over a secure channel.
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Registered(party) => {
            out.push(0);
            out.extend_from_slice(party.as_bytes());
        }
        Response::Ok => out.push(1),
        Response::Keys {
            model_key,
            request_key,
        } => {
            out.push(2);
            out.extend_from_slice(model_key.as_bytes());
            out.extend_from_slice(request_key.as_bytes());
        }
        Response::Error(err) => {
            out.push(3);
            out.push(error_code(err));
        }
    }
    out
}

/// Decodes a response received over a secure channel.
pub fn decode_response(bytes: &[u8]) -> Result<Response, KeyServiceError> {
    if bytes.is_empty() {
        return Err(KeyServiceError::InvalidPayload);
    }
    let body = &bytes[1..];
    match bytes[0] {
        0 => {
            let party: [u8; 32] = body
                .try_into()
                .map_err(|_| KeyServiceError::InvalidPayload)?;
            Ok(Response::Registered(PartyId::from_bytes(party)))
        }
        1 => Ok(Response::Ok),
        2 => {
            if body.len() != 2 * KEY_LEN {
                return Err(KeyServiceError::InvalidPayload);
            }
            let mut model_key = [0u8; KEY_LEN];
            let mut request_key = [0u8; KEY_LEN];
            model_key.copy_from_slice(&body[..KEY_LEN]);
            request_key.copy_from_slice(&body[KEY_LEN..]);
            Ok(Response::Keys {
                model_key: AeadKey::from_bytes(model_key),
                request_key: AeadKey::from_bytes(request_key),
            })
        }
        3 => {
            if body.len() != 1 {
                return Err(KeyServiceError::InvalidPayload);
            }
            Ok(Response::Error(error_from_code(body[0])))
        }
        _ => Err(KeyServiceError::InvalidPayload),
    }
}

fn error_code(err: &KeyServiceError) -> u8 {
    match err {
        KeyServiceError::UnknownParty => 0,
        KeyServiceError::InvalidPayload => 1,
        KeyServiceError::NotAuthorized => 2,
        KeyServiceError::AttestationFailed(_) => 3,
        KeyServiceError::Channel(_) => 4,
        KeyServiceError::Conflict(_) => 5,
    }
}

fn error_from_code(code: u8) -> KeyServiceError {
    match code {
        0 => KeyServiceError::UnknownParty,
        1 => KeyServiceError::InvalidPayload,
        2 => KeyServiceError::NotAuthorized,
        3 => KeyServiceError::AttestationFailed("remote".to_string()),
        5 => KeyServiceError::Conflict("remote".to_string()),
        _ => KeyServiceError::Channel("remote".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_encoding_roundtrips() {
        let requests = [
            Request::Register {
                identity_key: AeadKey::from_bytes([1u8; 16]),
            },
            Request::OwnerOp {
                owner: PartyId::from_bytes([2u8; 32]),
                payload: vec![1, 2, 3, 4],
            },
            Request::UserOp {
                user: PartyId::from_bytes([3u8; 32]),
                payload: vec![],
            },
            Request::Provision {
                user: PartyId::from_bytes([4u8; 32]),
                model: ModelId::new("mbnet"),
            },
        ];
        for request in requests {
            let encoded = encode_request(&request);
            assert_eq!(decode_request(&encoded).unwrap(), request);
        }
    }

    #[test]
    fn response_encoding_roundtrips() {
        let responses = [
            Response::Registered(PartyId::from_bytes([9u8; 32])),
            Response::Ok,
            Response::Keys {
                model_key: AeadKey::from_bytes([1u8; 16]),
                request_key: AeadKey::from_bytes([2u8; 16]),
            },
            Response::Error(KeyServiceError::NotAuthorized),
            Response::Error(KeyServiceError::UnknownParty),
        ];
        for response in responses {
            let encoded = encode_response(&response);
            assert_eq!(decode_response(&encoded).unwrap(), response);
        }
    }

    #[test]
    fn malformed_wire_data_is_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[9]).is_err());
        assert!(decode_request(&[0, 1, 2]).is_err());
        assert!(decode_request(&[1, 0, 0]).is_err());
        // Length field longer than the body.
        let mut bad = vec![1u8];
        bad.extend_from_slice(&[0u8; 32]);
        bad.extend_from_slice(&100u32.to_le_bytes());
        assert!(decode_request(&bad).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[2, 0]).is_err());
        assert!(decode_response(&[7]).is_err());
        assert!(decode_response(&[3]).is_err());
    }

    #[test]
    fn error_codes_cover_all_variants() {
        let errors = [
            KeyServiceError::UnknownParty,
            KeyServiceError::InvalidPayload,
            KeyServiceError::NotAuthorized,
            KeyServiceError::AttestationFailed("x".into()),
            KeyServiceError::Channel("x".into()),
            KeyServiceError::Conflict("x".into()),
        ];
        let mut codes: Vec<u8> = errors.iter().map(error_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len());
    }

    use sesemi_crypto::rng::SessionRng;
    use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
    use sesemi_enclave::ratls::HandshakeInitiator;
    use sesemi_enclave::{CodeIdentity, EnclaveConfig, SgxPlatform};

    const MB: u64 = 1024 * 1024;

    fn service_fixture() -> (KeyService, QuoteVerifier) {
        let platform = SgxPlatform::paper_sgx2_node("ks-node");
        let authority = AttestationAuthority::new(17);
        authority.register_platform("ks-node", AttestationScheme::EcdsaDcap);
        let enclave = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"keyservice code".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 8),
            1,
        )
        .unwrap()
        .0;
        let verifier = authority.verifier();
        let service = KeyService::new(Arc::new(enclave), verifier.clone());
        (service, verifier)
    }

    fn client_channel<R: RngCore>(
        service: &KeyService,
        verifier: &QuoteVerifier,
        rng: &mut R,
    ) -> (SecureChannel, ConnectionId) {
        let initiator = HandshakeInitiator::new_client(rng);
        let (responder_hello, connection, _) =
            service.accept_connection(&initiator.hello(), rng).unwrap();
        let channel = initiator
            .finish(&responder_hello, verifier, &service.measurement())
            .unwrap();
        (channel, connection)
    }

    #[test]
    fn a_malformed_request_yields_an_error_record_and_the_channel_stays_in_sync() {
        // Regression: `handle_record` used to return an early `Err` after
        // `recv` had already advanced the receive sequence, desyncing the
        // channel — the peer's next exchange then failed on a sequence
        // mismatch.  A malformed-but-authenticated request must produce an
        // encrypted `Response::Error` record instead.
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(11);
        let (mut channel, connection) = client_channel(&service, &verifier, &mut rng);

        // Tag 9 is no known request: authenticates fine, decodes to garbage.
        let garbage = channel.send(&[9u8]);
        let (response_record, _) = service
            .handle_record(connection, &garbage)
            .expect("a decode failure is answered, not swallowed");
        let plaintext = channel.recv(&response_record).unwrap();
        assert_eq!(
            decode_response(&plaintext).unwrap(),
            Response::Error(KeyServiceError::InvalidPayload)
        );

        // The same connection then completes a valid round-trip.
        let register = channel.send(&encode_request(&Request::Register {
            identity_key: AeadKey::from_bytes([7u8; 16]),
        }));
        let (response_record, _) = service.handle_record(connection, &register).unwrap();
        let plaintext = channel.recv(&response_record).unwrap();
        assert!(matches!(
            decode_response(&plaintext).unwrap(),
            Response::Registered(_)
        ));
    }

    #[test]
    fn a_record_that_fails_authentication_neither_answers_nor_desyncs() {
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(12);
        let (mut channel, connection) = client_channel(&service, &verifier, &mut rng);
        // A forged record fails AEAD verification: `recv` does not advance
        // the sequence, so an `Err` (no response record) is correct here.
        assert!(service.handle_record(connection, b"not a record").is_err());
        // The channel is still usable afterwards.
        let register = channel.send(&encode_request(&Request::Register {
            identity_key: AeadKey::from_bytes([8u8; 16]),
        }));
        assert!(service.handle_record(connection, &register).is_ok());
    }

    #[test]
    fn connections_interleave_records_instead_of_serializing_on_one_lock() {
        // Regression: `handle_record` used to hold the global connection-map
        // mutex across keystore dispatch, serializing every connection
        // through one lock.  Holding connection A's (private) per-connection
        // lock must not stop connection B from completing a full round-trip.
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(13);
        let (_channel_a, connection_a) = client_channel(&service, &verifier, &mut rng);
        let (mut channel_b, connection_b) = client_channel(&service, &verifier, &mut rng);

        let conn_a = service
            .connections
            .lock()
            .get(&connection_a.0)
            .cloned()
            .unwrap();
        let _busy_a = conn_a.lock(); // connection A is mid-record
        let record = channel_b.send(&encode_request(&Request::Register {
            identity_key: AeadKey::from_bytes([9u8; 16]),
        }));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let result = service.handle_record(connection_b, &record);
                tx.send(result).unwrap();
            });
            let response = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("connection B must not wait behind connection A")
                .unwrap();
            let plaintext = channel_b.recv(&response.0).unwrap();
            assert!(matches!(
                decode_response(&plaintext).unwrap(),
                Response::Registered(_)
            ));
        });
    }

    #[test]
    fn concurrent_connections_complete_all_their_round_trips() {
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(14);
        let mut sessions = Vec::new();
        for seed in 0..4u8 {
            let (channel, connection) = client_channel(&service, &verifier, &mut rng);
            sessions.push((channel, connection, seed));
        }
        std::thread::scope(|scope| {
            for (mut channel, connection, seed) in sessions {
                let service = &service;
                scope.spawn(move || {
                    for round in 0..25u8 {
                        let record = channel.send(&encode_request(&Request::Register {
                            identity_key: AeadKey::from_bytes([seed.wrapping_add(round); 16]),
                        }));
                        let (response, _) = service.handle_record(connection, &record).unwrap();
                        let plaintext = channel.recv(&response).unwrap();
                        assert!(matches!(
                            decode_response(&plaintext).unwrap(),
                            Response::Registered(_)
                        ));
                    }
                });
            }
        });
    }

    #[test]
    fn failed_attestations_do_not_leak_tcs_slots() {
        // Regression pin for the `respond(...)` error path: each rejected
        // handshake must release the TCS it entered, or repeated attestation
        // failures would exhaust the enclave and lock every real client out.
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(15);

        // A rogue platform provisioned by a *different* authority: its quote
        // does not verify under the service's root of trust.
        let rogue_authority = AttestationAuthority::new(99);
        rogue_authority.register_platform("rogue-node", AttestationScheme::EcdsaDcap);
        let rogue_platform = SgxPlatform::paper_sgx2_node("rogue-node");
        let rogue_enclave = Arc::new(
            Enclave::launch(
                &rogue_platform,
                &rogue_authority,
                CodeIdentity::new("rogue", b"rogue code".to_vec(), "1.0"),
                EnclaveConfig::new(64 * MB, 8),
                1,
            )
            .unwrap()
            .0,
        );
        // Twice the TCS budget of failures: with the leak, slot 9 onwards
        // could never have been entered.
        for _ in 0..16 {
            let (initiator, _) =
                HandshakeInitiator::new_attested(&rogue_enclave, &mut rng).unwrap();
            let result = service.accept_connection(&initiator.hello(), &mut rng);
            assert!(matches!(result, Err(KeyServiceError::AttestationFailed(_))));
        }
        assert_eq!(service.open_connections(), 0);

        // Exhaust/fail/retry lifecycle: all 8 TCSs still open cleanly, the
        // ninth is refused, and closing one frees a slot.
        let mut connections = Vec::new();
        for _ in 0..8 {
            let (_, connection) = client_channel(&service, &verifier, &mut rng);
            connections.push(connection);
        }
        let initiator = HandshakeInitiator::new_client(&mut rng);
        assert!(service
            .accept_connection(&initiator.hello(), &mut rng)
            .is_err());
        service.close_connection(connections.pop().unwrap());
        let (_, _connection) = client_channel(&service, &verifier, &mut rng);
        assert_eq!(service.open_connections(), 8);
    }

    #[test]
    fn small_order_client_keys_are_refused_without_leaking_a_tcs() {
        // The host picks the client hello's ephemeral key.  A point of small
        // order (RFC 7748 §7: orders 1, 2, 4 and 8, and the encodings p and
        // p + 1) forces an all-zero shared secret, which the handshake must
        // refuse, with or without bit 255 set.
        const SMALL_ORDER: [&str; 7] = [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
            "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        ];
        let (service, verifier) = service_fixture();
        let mut rng = SessionRng::from_seed(16);
        let (_channel, _connection) = client_channel(&service, &verifier, &mut rng);
        let threads_inside = service.enclave().threads_inside();
        for encoded in SMALL_ORDER {
            let mut key = [0u8; 32];
            for (i, byte) in key.iter_mut().enumerate() {
                *byte = u8::from_str_radix(&encoded[2 * i..2 * i + 2], 16).unwrap();
            }
            for high_bit in [0, 0x80] {
                key[31] |= high_bit;
                let hello = InitiatorHello {
                    ephemeral_public: key,
                    quote: None,
                };
                let result = service.accept_connection(&hello, &mut rng);
                assert!(
                    matches!(result, Err(KeyServiceError::Channel(_))),
                    "{encoded} with bit 255 = {}: {result:?}",
                    high_bit >> 7
                );
                assert_eq!(service.open_connections(), 1);
                assert_eq!(service.enclave().threads_inside(), threads_inside);
            }
        }
    }
}
