//! RA-TLS style attested secure channels (paper Appendix A).
//!
//! SeSeMI establishes three kinds of channels:
//!
//! * **client → KeyService** — owners and users attest the KeyService enclave
//!   (pinning its known measurement `E_K`) before registering identity keys,
//!   model keys and request keys.
//! * **SeMIRT → KeyService** — *mutual* attestation: the SeMIRT enclave
//!   proves its identity `E_S` (checked against the access-control list) and
//!   verifies it is talking to the real KeyService.
//! * **responses** are protected by the request key, not by this channel.
//!
//! Real RA-TLS embeds the attestation quote into the X.509 certificate used
//! during the TLS handshake.  We reproduce the same binding without X.509:
//! each side's quote carries the hash of its ephemeral X25519 public key in
//! the quote's report data, so a quote cannot be replayed for a key the
//! enclave does not control.  Session keys are derived with HKDF over the
//! shared secret and the handshake transcript, and records are protected with
//! ChaCha20-Poly1305 using per-direction keys and sequence-number nonces.
//!
//! # Resumed handshakes
//!
//! Every channel also derives a 32-byte resumption secret from the same
//! keying material, under its own HKDF label.  A responder may seal that
//! secret, with the initiator's attested measurement, into an opaque ticket
//! only it can open (the KeyService does so for SeMIRT).  The initiator keeps
//! the ticket and the secret as a [`ResumptionSession`].  A later connection
//! between the same two enclaves then runs a PSK-only handshake, like TLS 1.3
//! `psk_ke` resumption (RFC 8446 §2.2): the initiator sends the ticket and a
//! fresh nonce ([`ResumeHello`]), the responder opens the ticket and answers
//! with its own fresh nonce, and both ends key the channel with HKDF, salted
//! with the hash of the ticket and both nonces and keyed by the resumption
//! secret.  No quote is generated and no Diffie–Hellman runs.
//!
//! What a resumed channel proves: only the two enclaves that completed the
//! full handshake know the resumption secret, so a record that authenticates
//! comes from the peer that was attested there, with the measurement the
//! ticket carries.  Both nonces are fresh, so every resumption gets its own
//! keys even from one ticket, and records of one connection fail on another.
//! The responder's possession of the secret is confirmed by its first record,
//! not by the handshake flights.
//!
//! Its limits:
//!
//! * No forward secrecy with respect to the resumption secret, as with TLS
//!   1.3 `psk_ke`: whoever learns it can derive the keys of every channel
//!   resumed from it.  The secret never leaves enclave memory; the host only
//!   ever sees the sealed ticket.
//! * The platform's attestation is checked only at the full handshake.
//!   De-registering a platform therefore stops new enclaves on it, not a
//!   running enclave that already holds a session, just as SeMIRT's key cache
//!   already lets a running enclave keep serving keys it holds.
//! * The ticket travels outside the channel, so the host can swap or corrupt
//!   it.  That costs availability only: the responder declines a ticket it
//!   cannot open, and a ticket paired with the wrong secret yields records
//!   that fail authentication.

use crate::attest::{Quote, QuoteVerifier};
use crate::enclave::Enclave;
use crate::error::EnclaveError;
use crate::measurement::Measurement;
use rand::RngCore;
use sesemi_crypto::aead::{Aead, Nonce};
use sesemi_crypto::chacha20poly1305::ChaCha20Poly1305;
use sesemi_crypto::hkdf::{hkdf_extract, Prk};
use sesemi_crypto::sha256::{sha256_parts, Digest};
use sesemi_crypto::x25519::EphemeralKeyPair;

/// First flight: the initiator's ephemeral key and, for mutual attestation,
/// its quote.
#[derive(Clone, Debug)]
pub struct InitiatorHello {
    /// Initiator's ephemeral X25519 public key.
    pub ephemeral_public: [u8; 32],
    /// Initiator's quote (present only for enclave initiators, e.g. SeMIRT).
    pub quote: Option<Quote>,
}

/// Second flight: the responder enclave's ephemeral key and quote.
#[derive(Clone, Debug)]
pub struct ResponderHello {
    /// Responder's ephemeral X25519 public key.
    pub ephemeral_public: [u8; 32],
    /// Responder's quote, binding `ephemeral_public` via the report data.
    pub quote: Quote,
    /// A resumption ticket the responder application issued for this
    /// session ([`respond`] issues none).  Opaque to the initiator, which
    /// keeps it in a [`ResumptionSession`].
    pub ticket: Option<Vec<u8>>,
}

/// Binds an ephemeral public key (and optionally the peer's) into the 64-byte
/// quote report-data field.
fn bind_key_to_report(own_public: &[u8; 32], peer_public: Option<&[u8; 32]>) -> [u8; 64] {
    let digest = match peer_public {
        Some(peer) => sha256_parts(&[b"ratls-binding", own_public, peer]),
        None => sha256_parts(&[b"ratls-binding", own_public]),
    };
    let mut report = [0u8; 64];
    report[..32].copy_from_slice(digest.as_bytes());
    report
}

/// Everything one handshake derives from its keying material under its
/// transcript: a record key per direction, the channel id and the
/// resumption secret.
struct KeySchedule {
    initiator_to_responder: [u8; 32],
    responder_to_initiator: [u8; 32],
    resumption_secret: [u8; 32],
    channel_id: u32,
}

impl KeySchedule {
    fn derive(transcript: &Digest, keying_material: &[u8; 32]) -> Self {
        // HMAC is keyed with the PRK once for all three labels.
        let prk = Prk::new(&hkdf_extract(transcript.as_bytes(), keying_material));
        let expand = |label: &[u8]| {
            let mut key = [0u8; 32];
            prk.expand(label, &mut key);
            key
        };
        let id = sha256_parts(&[b"ratls-channel-id", transcript.as_bytes()]);
        let id = id.as_bytes();
        KeySchedule {
            initiator_to_responder: expand(b"initiator-to-responder"),
            responder_to_initiator: expand(b"responder-to-initiator"),
            resumption_secret: expand(b"resumption-secret"),
            channel_id: u32::from_be_bytes([id[0], id[1], id[2], id[3]]),
        }
    }

    fn initiator_channel(self, peer_measurement: Option<Measurement>) -> SecureChannel {
        let (send, recv) = (self.initiator_to_responder, self.responder_to_initiator);
        self.channel(send, recv, peer_measurement)
    }

    fn responder_channel(self, peer_measurement: Option<Measurement>) -> SecureChannel {
        let (send, recv) = (self.responder_to_initiator, self.initiator_to_responder);
        self.channel(send, recv, peer_measurement)
    }

    fn channel(
        self,
        send: [u8; 32],
        recv: [u8; 32],
        peer_measurement: Option<Measurement>,
    ) -> SecureChannel {
        SecureChannel {
            send_cipher: ChaCha20Poly1305::from_full_key(send),
            recv_cipher: ChaCha20Poly1305::from_full_key(recv),
            send_seq: 0,
            recv_seq: 0,
            channel_id: self.channel_id,
            peer_measurement,
            resumption_secret: self.resumption_secret,
        }
    }
}

fn full_transcript(initiator_public: &[u8; 32], responder_public: &[u8; 32]) -> Digest {
    sha256_parts(&[b"ratls-transcript", initiator_public, responder_public])
}

/// An established attested channel.
///
/// Records carry an implicit sequence number (per direction), so replayed or
/// reordered records fail authentication.
pub struct SecureChannel {
    send_cipher: ChaCha20Poly1305,
    recv_cipher: ChaCha20Poly1305,
    send_seq: u64,
    recv_seq: u64,
    channel_id: u32,
    peer_measurement: Option<Measurement>,
    resumption_secret: [u8; 32],
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("channel_id", &self.channel_id)
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .field("peer_measurement", &self.peer_measurement)
            .finish()
    }
}

impl SecureChannel {
    /// The peer's attested measurement, if the peer presented a quote.
    #[must_use]
    pub fn peer_measurement(&self) -> Option<Measurement> {
        self.peer_measurement
    }

    /// The secret a later resumed handshake keys from (see the module docs).
    /// Both ends derive the same one; it must never leave enclave memory
    /// except sealed into a ticket.
    #[must_use]
    pub fn resumption_secret(&self) -> &[u8; 32] {
        &self.resumption_secret
    }

    /// Encrypts and frames `plaintext` for the peer.
    pub fn send(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let nonce = Nonce::from_counter(self.channel_id, self.send_seq);
        self.send_seq += 1;
        self.send_cipher.seal(&nonce, plaintext, b"ratls-record")
    }

    /// Decrypts a record received from the peer.
    pub fn recv(&mut self, record: &[u8]) -> Result<Vec<u8>, EnclaveError> {
        let nonce = Nonce::from_counter(self.channel_id, self.recv_seq);
        let plaintext = self
            .recv_cipher
            .open(&nonce, record, b"ratls-record")
            .map_err(|_| EnclaveError::ChannelError("record authentication failed".into()))?;
        self.recv_seq += 1;
        Ok(plaintext)
    }
}

/// Initiator half of the handshake (a client, or an attesting enclave such as
/// SeMIRT fetching keys).
pub struct HandshakeInitiator {
    keypair: EphemeralKeyPair,
    hello: InitiatorHello,
}

impl HandshakeInitiator {
    /// Starts a handshake as an ordinary (non-enclave) client — the model
    /// owner or model user workflow.
    pub fn new_client<R: RngCore>(rng: &mut R) -> Self {
        let keypair = EphemeralKeyPair::generate(rng);
        let hello = InitiatorHello {
            ephemeral_public: keypair.public,
            quote: None,
        };
        HandshakeInitiator { keypair, hello }
    }

    /// Starts a handshake as an attested enclave initiator (mutual
    /// attestation).
    pub fn new_attested<R: RngCore>(enclave: &Enclave, rng: &mut R) -> Result<Self, EnclaveError> {
        let keypair = EphemeralKeyPair::generate(rng);
        let report = bind_key_to_report(&keypair.public, None);
        let hello = InitiatorHello {
            ephemeral_public: keypair.public,
            quote: Some(enclave.quote(report)?),
        };
        Ok(HandshakeInitiator { keypair, hello })
    }

    /// The first flight to send to the responder.
    #[must_use]
    pub fn hello(&self) -> InitiatorHello {
        self.hello.clone()
    }

    /// Completes the handshake after receiving the responder's hello.
    ///
    /// `expected` is the measurement the initiator pins (e.g. the published
    /// KeyService identity `E_K`); the handshake fails if the responder's
    /// attested measurement differs.
    pub fn finish(
        self,
        responder: &ResponderHello,
        verifier: &QuoteVerifier,
        expected: &Measurement,
    ) -> Result<SecureChannel, EnclaveError> {
        // Verify the responder's quote and its binding to the handshake keys.
        verifier.verify_expecting(&responder.quote, expected)?;
        let expected_report = bind_key_to_report(
            &responder.ephemeral_public,
            Some(&self.hello.ephemeral_public),
        );
        if responder.quote.report_data != expected_report {
            return Err(EnclaveError::ChannelError(
                "responder quote does not bind the handshake keys".into(),
            ));
        }
        let shared = self
            .keypair
            .diffie_hellman(&responder.ephemeral_public)
            .map_err(EnclaveError::from)?;
        let transcript = full_transcript(&self.hello.ephemeral_public, &responder.ephemeral_public);
        Ok(KeySchedule::derive(&transcript, &shared)
            .initiator_channel(Some(responder.quote.measurement)))
    }
}

/// Outcome of the responder side of the handshake.
#[derive(Debug)]
pub struct ResponderResult {
    /// Flight to return to the initiator.
    pub hello: ResponderHello,
    /// The established channel (responder's view).
    pub channel: SecureChannel,
    /// The initiator's attested measurement, if it presented a quote
    /// (available to the application for access-control decisions).
    pub initiator_measurement: Option<Measurement>,
}

/// Responds to an [`InitiatorHello`] inside the responder enclave
/// (KeyService).
///
/// If the initiator presented a quote, it is verified for authenticity and
/// key binding; the measurement is surfaced in the result so the application
/// can enforce its access-control policy (the paper's KeyService checks it
/// against `KS_R` / `ACM`).
pub fn respond<R: RngCore>(
    initiator: &InitiatorHello,
    enclave: &Enclave,
    verifier: &QuoteVerifier,
    rng: &mut R,
) -> Result<ResponderResult, EnclaveError> {
    let initiator_measurement = match &initiator.quote {
        Some(quote) => {
            verifier.verify(quote)?;
            let expected_report = bind_key_to_report(&initiator.ephemeral_public, None);
            if quote.report_data != expected_report {
                return Err(EnclaveError::ChannelError(
                    "initiator quote does not bind the handshake keys".into(),
                ));
            }
            Some(quote.measurement)
        }
        None => None,
    };

    let keypair = EphemeralKeyPair::generate(rng);
    let report = bind_key_to_report(&keypair.public, Some(&initiator.ephemeral_public));
    let quote = enclave.quote(report)?;
    let shared = keypair
        .diffie_hellman(&initiator.ephemeral_public)
        .map_err(EnclaveError::from)?;
    let transcript = full_transcript(&initiator.ephemeral_public, &keypair.public);
    let channel =
        KeySchedule::derive(&transcript, &shared).responder_channel(initiator_measurement);
    Ok(ResponderResult {
        hello: ResponderHello {
            ephemeral_public: keypair.public,
            quote,
            ticket: None,
        },
        channel,
        initiator_measurement,
    })
}

/// First flight of a resumed handshake: the ticket the responder issued at
/// the full handshake, and a fresh initiator nonce.
#[derive(Clone, Debug)]
pub struct ResumeHello {
    /// The responder's sealed ticket, as issued.
    pub ticket: Vec<u8>,
    /// The initiator's fresh nonce.
    pub nonce: [u8; 32],
}

/// What an initiator keeps from a full handshake to resume it later: the
/// responder's ticket, the channel's resumption secret and the responder's
/// attested measurement.
#[derive(Clone)]
pub struct ResumptionSession {
    /// The responder's ticket: opaque sealed bytes, which the host may see.
    pub ticket: Vec<u8>,
    secret: [u8; 32],
    peer_measurement: Option<Measurement>,
}

impl ResumptionSession {
    /// Keeps `channel`'s resumption secret under the `ticket` its responder
    /// issued for it.
    #[must_use]
    pub fn new(ticket: Vec<u8>, channel: &SecureChannel) -> Self {
        ResumptionSession {
            ticket,
            secret: channel.resumption_secret,
            peer_measurement: channel.peer_measurement,
        }
    }

    /// Opens a resumed handshake: the ticket and a fresh nonce.
    pub fn resume<R: RngCore>(&self, rng: &mut R) -> ResumeHello {
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        ResumeHello {
            ticket: self.ticket.clone(),
            nonce,
        }
    }

    /// Keys the initiator's end of the channel `hello` opened, once the
    /// responder has answered with its nonce.  The peer measurement is the
    /// one attested at the full handshake.
    #[must_use]
    pub fn finish(&self, hello: &ResumeHello, responder_nonce: &[u8; 32]) -> SecureChannel {
        KeySchedule::derive(&resumed_transcript(hello, responder_nonce), &self.secret)
            .initiator_channel(self.peer_measurement)
    }
}

fn resumed_transcript(hello: &ResumeHello, responder_nonce: &[u8; 32]) -> Digest {
    sha256_parts(&[
        b"ratls-resumed-transcript",
        &hello.ticket,
        &hello.nonce,
        responder_nonce,
    ])
}

/// Responds to a [`ResumeHello`] inside the responder enclave, once the
/// application has opened the hello's ticket and recovered the resumption
/// `secret` and the `initiator_measurement` sealed in it.  Returns the
/// responder's fresh nonce, to send back, and the responder's end of the
/// channel.
pub fn respond_resumed<R: RngCore>(
    hello: &ResumeHello,
    secret: &[u8; 32],
    initiator_measurement: Option<Measurement>,
    rng: &mut R,
) -> ([u8; 32], SecureChannel) {
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    let channel = KeySchedule::derive(&resumed_transcript(hello, &nonce), secret)
        .responder_channel(initiator_measurement);
    (nonce, channel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::{AttestationAuthority, AttestationScheme};
    use crate::enclave::EnclaveConfig;
    use crate::measurement::CodeIdentity;
    use crate::platform::SgxPlatform;
    use sesemi_crypto::rng::SessionRng;
    use std::sync::Arc;

    const MB: u64 = 1024 * 1024;

    struct Fixture {
        authority: Arc<AttestationAuthority>,
        keyservice: Enclave,
        semirt: Enclave,
    }

    fn fixture() -> Fixture {
        let platform = SgxPlatform::paper_sgx2_node("node-1");
        let authority = AttestationAuthority::new(99);
        authority.register_platform("node-1", AttestationScheme::EcdsaDcap);
        let keyservice = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"ks code".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 8),
        )
        .unwrap();
        let semirt = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("semirt", b"rt code".to_vec(), "1.0"),
            EnclaveConfig::new(128 * MB, 4),
        )
        .unwrap();
        Fixture {
            authority,
            keyservice,
            semirt,
        }
    }

    #[test]
    fn client_to_keyservice_handshake_and_records() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut client_rng = SessionRng::from_seed(1);
        let mut enclave_rng = SessionRng::from_seed(2);

        let initiator = HandshakeInitiator::new_client(&mut client_rng);
        let result = respond(
            &initiator.hello(),
            &fx.keyservice,
            &verifier,
            &mut enclave_rng,
        )
        .unwrap();
        assert!(result.initiator_measurement.is_none());

        let mut client_channel = initiator
            .finish(&result.hello, &verifier, &fx.keyservice.measurement())
            .unwrap();
        let mut ks_channel = result.channel;

        // Client -> KeyService.
        let record = client_channel.send(b"register identity key");
        assert_eq!(ks_channel.recv(&record).unwrap(), b"register identity key");
        // KeyService -> client.
        let reply = ks_channel.send(b"registered");
        assert_eq!(client_channel.recv(&reply).unwrap(), b"registered");
        assert_eq!(
            client_channel.peer_measurement(),
            Some(fx.keyservice.measurement())
        );
    }

    #[test]
    fn mutual_attestation_surfaces_initiator_measurement() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng_a = SessionRng::from_seed(3);
        let mut rng_b = SessionRng::from_seed(4);

        let initiator = HandshakeInitiator::new_attested(&fx.semirt, &mut rng_a).unwrap();
        let result = respond(&initiator.hello(), &fx.keyservice, &verifier, &mut rng_b).unwrap();
        assert_eq!(result.initiator_measurement, Some(fx.semirt.measurement()));

        let mut semirt_channel = initiator
            .finish(&result.hello, &verifier, &fx.keyservice.measurement())
            .unwrap();
        let mut ks_channel = result.channel;
        let record = semirt_channel.send(b"KEY_PROVISIONING request");
        assert_eq!(
            ks_channel.recv(&record).unwrap(),
            b"KEY_PROVISIONING request"
        );
        assert_eq!(ks_channel.peer_measurement(), Some(fx.semirt.measurement()));
    }

    #[test]
    fn pinning_the_wrong_measurement_fails() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng_a = SessionRng::from_seed(5);
        let mut rng_b = SessionRng::from_seed(6);

        let initiator = HandshakeInitiator::new_client(&mut rng_a);
        let result = respond(&initiator.hello(), &fx.keyservice, &verifier, &mut rng_b).unwrap();
        // The client expected to talk to SeMIRT, not KeyService.
        let err = initiator
            .finish(&result.hello, &verifier, &fx.semirt.measurement())
            .unwrap_err();
        assert!(matches!(err, EnclaveError::QuoteVerificationFailed(_)));
    }

    #[test]
    fn swapped_responder_key_is_detected() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng_a = SessionRng::from_seed(7);
        let mut rng_b = SessionRng::from_seed(8);

        let initiator = HandshakeInitiator::new_client(&mut rng_a);
        let mut result =
            respond(&initiator.hello(), &fx.keyservice, &verifier, &mut rng_b).unwrap();
        // A man in the middle substitutes its own ephemeral key but cannot
        // produce a quote binding it.
        result.hello.ephemeral_public[0] ^= 1;
        let err = initiator
            .finish(&result.hello, &verifier, &fx.keyservice.measurement())
            .unwrap_err();
        assert!(matches!(err, EnclaveError::ChannelError(_)));
    }

    #[test]
    fn forged_initiator_quote_binding_is_detected() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng_a = SessionRng::from_seed(9);
        let mut rng_b = SessionRng::from_seed(10);

        let initiator = HandshakeInitiator::new_attested(&fx.semirt, &mut rng_a).unwrap();
        let mut hello = initiator.hello();
        // Replay SeMIRT's quote with a different ephemeral key (stolen-quote
        // attack): the binding check must reject it.
        hello.ephemeral_public = EphemeralKeyPair::generate(&mut rng_a).public;
        let err = respond(&hello, &fx.keyservice, &verifier, &mut rng_b).unwrap_err();
        assert!(matches!(err, EnclaveError::ChannelError(_)));
    }

    #[test]
    fn replayed_and_reordered_records_fail() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng_a = SessionRng::from_seed(11);
        let mut rng_b = SessionRng::from_seed(12);

        let initiator = HandshakeInitiator::new_client(&mut rng_a);
        let result = respond(&initiator.hello(), &fx.keyservice, &verifier, &mut rng_b).unwrap();
        let mut client = initiator
            .finish(&result.hello, &verifier, &fx.keyservice.measurement())
            .unwrap();
        let mut server = result.channel;

        let first = client.send(b"message 1");
        let second = client.send(b"message 2");
        assert_eq!(server.recv(&first).unwrap(), b"message 1");
        // Replay of the first record fails (sequence number advanced).
        assert!(server.recv(&first).is_err());
        // After the failed replay the expected sequence is still 1, so the
        // genuine second record is accepted.
        assert_eq!(server.recv(&second).unwrap(), b"message 2");
    }

    #[test]
    fn channels_are_independent_across_handshakes() {
        let fx = fixture();
        let verifier = fx.authority.verifier();
        let mut rng = SessionRng::from_seed(13);

        let initiator_a = HandshakeInitiator::new_client(&mut rng);
        let result_a = respond(&initiator_a.hello(), &fx.keyservice, &verifier, &mut rng).unwrap();
        let mut client_a = initiator_a
            .finish(&result_a.hello, &verifier, &fx.keyservice.measurement())
            .unwrap();

        let initiator_b = HandshakeInitiator::new_client(&mut rng);
        let result_b = respond(&initiator_b.hello(), &fx.keyservice, &verifier, &mut rng).unwrap();
        let mut server_b = result_b.channel;

        // A record from channel A cannot be decrypted on channel B.
        let record = client_a.send(b"cross-channel");
        assert!(server_b.recv(&record).is_err());
    }

    /// A mutually attested full handshake: SeMIRT's and the KeyService's
    /// ends of the channel.
    fn attested_pair(fx: &Fixture, seed: u64) -> (SecureChannel, SecureChannel) {
        let verifier = fx.authority.verifier();
        let mut rng = SessionRng::from_seed(seed);
        let initiator = HandshakeInitiator::new_attested(&fx.semirt, &mut rng).unwrap();
        let result = respond(&initiator.hello(), &fx.keyservice, &verifier, &mut rng).unwrap();
        let semirt = initiator
            .finish(&result.hello, &verifier, &fx.keyservice.measurement())
            .unwrap();
        (semirt, result.channel)
    }

    #[test]
    fn both_ends_derive_one_resumption_secret_per_handshake() {
        let fx = fixture();
        let (semirt, keyservice) = attested_pair(&fx, 14);
        assert_eq!(semirt.resumption_secret(), keyservice.resumption_secret());
        let (other, _) = attested_pair(&fx, 15);
        assert_ne!(semirt.resumption_secret(), other.resumption_secret());
    }

    #[test]
    fn a_resumed_channel_carries_records_without_a_quote() {
        let fx = fixture();
        let (semirt, keyservice) = attested_pair(&fx, 16);
        let session = ResumptionSession::new(b"ticket".to_vec(), &semirt);
        let quotes = (
            fx.semirt.quotes_generated(),
            fx.keyservice.quotes_generated(),
        );
        let mut rng = SessionRng::from_seed(17);

        let hello = session.resume(&mut rng);
        assert_eq!(hello.ticket, b"ticket");
        let (nonce, mut responder) = respond_resumed(
            &hello,
            keyservice.resumption_secret(),
            keyservice.peer_measurement(),
            &mut rng,
        );
        let mut initiator = session.finish(&hello, &nonce);
        let record = initiator.send(b"KEY_PROVISIONING request");
        assert_eq!(
            responder.recv(&record).unwrap(),
            b"KEY_PROVISIONING request"
        );
        let reply = responder.send(b"keys");
        assert_eq!(initiator.recv(&reply).unwrap(), b"keys");
        // Each end keeps the measurement attested at the full handshake.
        assert_eq!(
            initiator.peer_measurement(),
            Some(fx.keyservice.measurement())
        );
        assert_eq!(responder.peer_measurement(), Some(fx.semirt.measurement()));
        assert_eq!(
            (
                fx.semirt.quotes_generated(),
                fx.keyservice.quotes_generated()
            ),
            quotes
        );
    }

    #[test]
    fn every_resumption_from_one_session_gets_its_own_keys() {
        let fx = fixture();
        let (semirt, keyservice) = attested_pair(&fx, 18);
        let session = ResumptionSession::new(b"ticket".to_vec(), &semirt);
        let mut rng = SessionRng::from_seed(19);
        let mut resume = || {
            let hello = session.resume(&mut rng);
            let (nonce, responder) =
                respond_resumed(&hello, keyservice.resumption_secret(), None, &mut rng);
            (session.finish(&hello, &nonce), responder)
        };
        let (mut first, _) = resume();
        let (_, mut second) = resume();
        assert!(second.recv(&first.send(b"first connection")).is_err());
    }

    #[test]
    fn a_wrong_secret_or_a_changed_nonce_yields_records_that_fail() {
        let fx = fixture();
        let (semirt, keyservice) = attested_pair(&fx, 20);
        let (stranger, _) = attested_pair(&fx, 21);
        let mut rng = SessionRng::from_seed(22);
        let session = ResumptionSession::new(b"ticket".to_vec(), &semirt);

        // The ticket opens to another handshake's secret.
        let hello = session.resume(&mut rng);
        let (nonce, mut responder) =
            respond_resumed(&hello, stranger.resumption_secret(), None, &mut rng);
        assert!(responder
            .recv(&session.finish(&hello, &nonce).send(b"x"))
            .is_err());

        // The host rewrites the responder's nonce in flight.
        let (mut nonce, mut responder) =
            respond_resumed(&hello, keyservice.resumption_secret(), None, &mut rng);
        nonce[0] ^= 1;
        assert!(responder
            .recv(&session.finish(&hello, &nonce).send(b"x"))
            .is_err());
    }
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Both ends derive their keys the same way, so a change that moved every
    // derived key alike would still pass every handshake test above.  These
    // values pin the schedule (the three keys and the channel id agree with
    // Python's `hmac` and `hashlib`) and the first two records it keys.
    #[test]
    fn the_key_schedule_derives_known_values() {
        let transcript = sesemi_crypto::sha256::sha256(b"ratls-known-answer-transcript");
        let schedule = KeySchedule::derive(&transcript, &[0x42; 32]);
        assert_eq!(
            hex(&schedule.initiator_to_responder),
            "ea1d1af38db98df7678c7a55b2c2d37f67a2934cf2eb6d299409a085c323c6a2"
        );
        assert_eq!(
            hex(&schedule.responder_to_initiator),
            "ecf28bdefcae2f2e685d85e1102a380c2b99b88ac57c65e238666bff248abc12"
        );
        assert_eq!(
            hex(&schedule.resumption_secret),
            "7005146c0adf3741e3d8bcd9268e589f2970ed4da9f012b665ded4feb7f3daad"
        );
        assert_eq!(schedule.channel_id, 0x6665_bead);

        let mut initiator = schedule.initiator_channel(None);
        assert_eq!(
            hex(&initiator.send(b"KEY_PROVISIONING request")),
            "7753025a0ca4c3cbf220594d8bf45c304681ace9be7fca70f3f01d187c0af21c91cc3395aa8862fd"
        );
        assert_eq!(
            hex(&initiator.send(b"second")),
            "205431820cdc58ca34fe5404dd479b84f33aa269c681"
        );
    }
}
