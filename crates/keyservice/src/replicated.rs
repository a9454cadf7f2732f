//! A replica set of KeyService enclaves with attested peering and
//! deterministic failover.
//!
//! The single [`KeyService`] enclave is SeSeMI's availability weak point:
//! every cold start needs `KEY_PROVISIONING`, so one crashed enclave stalls
//! the whole cluster's cold paths.  [`ReplicatedKeyService`] runs `n`
//! replicas of the *same* KeyService code and wires them into a full mesh of
//! mutually attested RA-TLS channels:
//!
//! * **Peer verification** — [`ReplicatedKeyService::form_mesh`] only admits
//!   replicas whose attested measurement equals the set's common identity
//!   `E_K`: each pairwise handshake goes through
//!   [`KeyService::accept_peer_connection`], which rejects an initiator whose
//!   quote carries any other measurement.  A compromised or modified enclave
//!   cannot join the mesh and therefore never receives synced key state.
//! * **State sync** — the replicas stay identical by state-machine
//!   replication of Algorithm 1's mutations: the coordinator (first alive
//!   replica) applies a `Register` / `OwnerOp` / `UserOp` locally and then
//!   replays the *sealed* request over the mesh channels to every other
//!   alive replica.  Each replica independently opens the sealed payload and
//!   updates its own `KS_I` / `KS_M` / `KS_R` / `ACM` sets — sealed state
//!   never leaves an enclave in the clear, and per-replica replay-rejection
//!   sets make delivering the same sealed bytes to every replica legal.
//! * **Sharding and failover** — `KEY_PROVISIONING` is read-only and served
//!   from a single replica: the user's home shard (a stable hash of the
//!   party id modulo `n`), falling over to the next alive index in
//!   deterministic wrap-around order when the home replica is dead.  The
//!   cluster simulator's
//!   [`KeyServiceConfig`](../../sesemi/cluster/struct.KeyServiceConfig.html)
//!   models exactly this routing at fleet scale.
//!
//! Mesh links consume real enclave concurrency: each replica responds to
//! `n - 1` peers, so a mesh of `n` holds `n - 1` TCSs on every replica —
//! capacity the operator must budget alongside client connections.  When a
//! replica [`crash`](ReplicatedKeyService::crash)es, survivors close the
//! dead peer's connections and get those TCSs back.

use crate::error::KeyServiceError;
use crate::keystore::PartyId;
use crate::service::{
    decode_response, encode_request, ConnectionId, KeyService, Request, Response,
};
use parking_lot::Mutex;
use rand::RngCore;
use sesemi_enclave::ratls::{HandshakeInitiator, SecureChannel};
use sesemi_enclave::{Measurement, QuoteVerifier};
use sesemi_inference::ModelId;
use std::sync::Arc;

/// One direction of a peered pair: the initiator-side channel state plus the
/// connection id it holds on the responder.
struct PeerLink {
    channel: SecureChannel,
    connection: ConnectionId,
}

/// A mesh of mutually attested [`KeyService`] replicas (see the module
/// docs for the replication contract).
pub struct ReplicatedKeyService {
    replicas: Vec<Arc<KeyService>>,
    measurement: Measurement,
    /// `links[i][j]` — the channel replica `i` initiates to replica `j`
    /// (`None` on the diagonal and after either end crashed).
    links: Mutex<Vec<Vec<Option<PeerLink>>>>,
    alive: Mutex<Vec<bool>>,
}

impl ReplicatedKeyService {
    /// Forms the replica mesh: every ordered pair of replicas completes a
    /// mutually attested RA-TLS handshake in which the responder insists on
    /// the set's common measurement.
    ///
    /// # Errors
    /// Fails if `services` is empty, if any replica's measurement differs
    /// from the first's (the set must run identical code), or if any
    /// pairwise handshake is rejected.
    pub fn form_mesh<R: RngCore>(
        services: Vec<Arc<KeyService>>,
        verifier: &QuoteVerifier,
        rng: &mut R,
    ) -> Result<Self, KeyServiceError> {
        let Some(first) = services.first() else {
            return Err(KeyServiceError::Channel(
                "a replica set needs at least one KeyService".to_string(),
            ));
        };
        let measurement = first.measurement();
        if let Some(stranger) = services.iter().find(|s| s.measurement() != measurement) {
            return Err(KeyServiceError::AttestationFailed(format!(
                "replica set must run identical code: {:?} differs from {:?}",
                stranger.measurement(),
                measurement
            )));
        }
        let n = services.len();
        let mut links: Vec<Vec<Option<PeerLink>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let initiator = HandshakeInitiator::new_attested(services[i].enclave(), rng)?;
                let (hello, connection) =
                    services[j].accept_peer_connection(&initiator.hello(), &measurement, rng)?;
                let channel = initiator.finish(&hello, verifier, &measurement)?;
                links[i][j] = Some(PeerLink {
                    channel,
                    connection,
                });
            }
        }
        Ok(ReplicatedKeyService {
            alive: Mutex::new(vec![true; n]),
            links: Mutex::new(links),
            replicas: services,
            measurement,
        })
    }

    /// Number of replicas in the set (alive or not).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// A replica's underlying [`KeyService`] (test and wiring access).
    #[must_use]
    pub fn replica(&self, index: usize) -> &Arc<KeyService> {
        &self.replicas[index]
    }

    /// The replica set's common code identity `E_K`.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Number of replicas still alive.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive.lock().iter().filter(|a| **a).count()
    }

    /// The home shard a user's provisions route to: a stable hash of the
    /// party id modulo the replica count (liveness-independent — failover
    /// happens at routing time, not at shard assignment).
    #[must_use]
    pub fn home_shard(&self, user: &PartyId) -> usize {
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&user.as_bytes()[..8]);
        (u64::from_le_bytes(prefix) % self.replicas.len() as u64) as usize
    }

    /// The replica that will actually serve `user` right now: the home shard
    /// if alive, else the next alive index in wrap-around order.  `None`
    /// during a total outage.
    #[must_use]
    pub fn route(&self, user: &PartyId) -> Option<usize> {
        let alive = self.alive.lock();
        let n = self.replicas.len();
        let home = self.home_shard(user);
        (0..n).map(|step| (home + step) % n).find(|r| alive[*r])
    }

    /// Kills a replica: marks it dead, and closes every mesh connection it
    /// held so survivors get the dead peer's TCSs back.  Returns `false` if
    /// the index is out of range or the replica was already dead.
    pub fn crash(&self, replica: usize) -> bool {
        let mut alive = self.alive.lock();
        if replica >= self.replicas.len() || !alive[replica] {
            return false;
        }
        alive[replica] = false;
        let mut links = self.links.lock();
        for j in 0..self.replicas.len() {
            // The dead replica's initiator-side connections hold TCSs on the
            // survivors: close them there.
            if let Some(link) = links[replica][j].take() {
                self.replicas[j].close_connection(link.connection);
            }
            // Survivors' channels *to* the dead replica are gone too.
            links[j][replica] = None;
        }
        true
    }

    /// Handles a request against the replica set.
    ///
    /// Mutations (`Register` / `OwnerOp` / `UserOp`) are applied on the
    /// coordinator — the first alive replica — and replayed over the mesh to
    /// every other alive replica; the coordinator's response is returned.
    /// `Provision` is read-only and served from the user's shard (see
    /// [`ReplicatedKeyService::route`]); `peer` is the provisioning
    /// enclave's attested measurement, exactly as in
    /// [`KeyService::handle_request`].
    pub fn handle_request(&self, request: Request, peer: Option<Measurement>) -> Response {
        match &request {
            Request::Provision { user, .. } => {
                let Some(replica) = self.route(user) else {
                    return Response::Error(KeyServiceError::Channel(
                        "every KeyService replica is down".to_string(),
                    ));
                };
                self.replicas[replica].handle_request(request, peer)
            }
            _ => self.replicate(request),
        }
    }

    /// Convenience wrapper for `KEY_PROVISIONING` that also reports which
    /// replica served the request.
    pub fn provision(
        &self,
        user: PartyId,
        model: ModelId,
        enclave: Measurement,
    ) -> (Response, Option<usize>) {
        let replica = self.route(&user);
        let response = self.handle_request(Request::Provision { user, model }, Some(enclave));
        (response, replica)
    }

    /// Applies a mutation on the coordinator and replays it to every other
    /// alive replica over the attested mesh channels.
    fn replicate(&self, request: Request) -> Response {
        let alive = self.alive.lock().clone();
        let Some(coordinator) = alive.iter().position(|a| *a) else {
            return Response::Error(KeyServiceError::Channel(
                "every KeyService replica is down".to_string(),
            ));
        };
        let response = self.replicas[coordinator].handle_request(request.clone(), None);
        let record_plaintext = encode_request(&request);
        let mut links = self.links.lock();
        for (peer, peer_alive) in alive.iter().enumerate() {
            if !peer_alive || peer == coordinator {
                continue;
            }
            let Some(link) = links[coordinator][peer].as_mut() else {
                continue;
            };
            let record = link.channel.send(&record_plaintext);
            let peer_response = self.replicas[peer]
                .handle_record(link.connection, &record)
                .and_then(|response_record| {
                    link.channel
                        .recv(&response_record)
                        .map_err(|e| KeyServiceError::Channel(e.to_string()))
                })
                .and_then(|plaintext| decode_response(&plaintext));
            // Replicas are deterministic state machines fed identical
            // mutation streams, so a diverging answer is a replication bug,
            // not a user error.
            debug_assert_eq!(peer_response.as_ref(), Ok(&response));
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{OwnerRequest, UserRequest};
    use sesemi_crypto::aead::AeadKey;
    use sesemi_crypto::rng::SessionRng;
    use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
    use sesemi_enclave::{CodeIdentity, Enclave, EnclaveConfig, SgxPlatform};

    const MB: u64 = 1024 * 1024;

    struct Mesh {
        set: ReplicatedKeyService,
        verifier: QuoteVerifier,
        rng: SessionRng,
    }

    fn launch_replica(
        authority: &Arc<AttestationAuthority>,
        identity: &str,
        code: &[u8],
        node: &str,
    ) -> Arc<KeyService> {
        let platform = SgxPlatform::paper_sgx2_node(node);
        authority.register_platform(node, AttestationScheme::EcdsaDcap);
        let enclave = Enclave::launch(
            &platform,
            authority,
            CodeIdentity::new(identity, code.to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 8),
        )
        .unwrap();
        Arc::new(KeyService::new(Arc::new(enclave), authority.verifier()))
    }

    fn mesh(n: usize) -> Mesh {
        let authority = AttestationAuthority::new(17);
        let services: Vec<_> = (0..n)
            .map(|i| {
                launch_replica(
                    &authority,
                    "keyservice",
                    b"keyservice code",
                    &format!("ks-{i}"),
                )
            })
            .collect();
        let verifier = authority.verifier();
        let mut rng = SessionRng::from_seed(21);
        let set = ReplicatedKeyService::form_mesh(services, &verifier, &mut rng).unwrap();
        Mesh { set, verifier, rng }
    }

    /// Registers an owner and a user, adds a model key, a grant and a
    /// request key — all through the replica set — and returns the parties.
    fn provisioned_world(mesh: &mut Mesh, semirt: Measurement) -> (PartyId, PartyId) {
        let owner_key = AeadKey::from_bytes([1u8; 16]);
        let user_key = AeadKey::from_bytes([2u8; 16]);
        let Response::Registered(owner) = mesh.set.handle_request(
            Request::Register {
                identity_key: owner_key.clone(),
            },
            None,
        ) else {
            panic!("owner registration failed");
        };
        let Response::Registered(user) = mesh.set.handle_request(
            Request::Register {
                identity_key: user_key.clone(),
            },
            None,
        ) else {
            panic!("user registration failed");
        };
        let model = ModelId::new("diagnosis");
        for payload in [
            OwnerRequest::AddModelKey {
                model: model.clone(),
                model_key: AeadKey::from_bytes([10u8; 16]),
            },
            OwnerRequest::GrantAccess {
                model: model.clone(),
                enclave: semirt,
                user,
            },
        ] {
            let sealed = payload.seal(&owner_key, &mut mesh.rng);
            assert_eq!(
                mesh.set.handle_request(
                    Request::OwnerOp {
                        owner,
                        payload: sealed
                    },
                    None
                ),
                Response::Ok
            );
        }
        let sealed = UserRequest::AddRequestKey {
            model,
            enclave: semirt,
            request_key: AeadKey::from_bytes([20u8; 16]),
        }
        .seal(&user_key, &mut mesh.rng);
        assert_eq!(
            mesh.set.handle_request(
                Request::UserOp {
                    user,
                    payload: sealed
                },
                None
            ),
            Response::Ok
        );
        (owner, user)
    }

    fn semirt_measurement() -> Measurement {
        CodeIdentity::new("semirt", b"semirt code".to_vec(), "1.0").measure()
    }

    #[test]
    fn the_mesh_syncs_sealed_state_to_every_replica() {
        let mut m = mesh(3);
        let semirt = semirt_measurement();
        provisioned_world(&mut m, semirt);
        // Every replica independently holds the full KS_I/KS_M/KS_R/ACM
        // state: 2 parties, 1 model key, 1 request key, 1 grant.
        for i in 0..3 {
            assert_eq!(m.set.replica(i).store_stats(), (2, 1, 1, 1));
        }
        // And each replica holds n-1 = 2 peer connections.
        for i in 0..3 {
            assert_eq!(m.set.replica(i).open_connections(), 2);
        }
    }

    #[test]
    fn a_replica_running_different_code_cannot_join_the_mesh() {
        let authority = AttestationAuthority::new(17);
        let good = launch_replica(&authority, "keyservice", b"keyservice code", "ks-0");
        let rogue = launch_replica(&authority, "keyservice", b"tampered code", "ks-1");
        let verifier = authority.verifier();
        let mut rng = SessionRng::from_seed(22);
        let result = ReplicatedKeyService::form_mesh(vec![good, rogue], &verifier, &mut rng);
        assert!(matches!(result, Err(KeyServiceError::AttestationFailed(_))));
    }

    #[test]
    fn provisioning_fails_over_to_the_next_alive_replica() {
        let mut m = mesh(3);
        let semirt = semirt_measurement();
        let (_, user) = provisioned_world(&mut m, semirt);
        let home = m.set.home_shard(&user);
        let model = ModelId::new("diagnosis");

        let (response, served_by) = m.set.provision(user, model.clone(), semirt);
        assert!(matches!(response, Response::Keys { .. }));
        assert_eq!(served_by, Some(home));

        // Kill the home replica: the same provision is served by the next
        // alive index, with identical keys (state was synced).
        assert!(m.set.crash(home));
        assert_eq!(m.set.alive_count(), 2);
        let survivor = (home + 1) % 3;
        let (failover_response, served_by) = m.set.provision(user, model, semirt);
        assert_eq!(failover_response, response);
        assert_eq!(served_by, Some(survivor));

        // Crashing the same replica twice is a no-op.
        assert!(!m.set.crash(home));
        assert!(!m.set.crash(17));
    }

    #[test]
    fn mutations_keep_replicating_after_a_crash() {
        let mut m = mesh(3);
        let semirt = semirt_measurement();
        provisioned_world(&mut m, semirt);
        assert!(m.set.crash(0));
        // A post-crash registration reaches both survivors (the coordinator
        // role moved to replica 1).
        let response = m.set.handle_request(
            Request::Register {
                identity_key: AeadKey::from_bytes([3u8; 16]),
            },
            None,
        );
        assert!(matches!(response, Response::Registered(_)));
        assert_eq!(m.set.replica(1).store_stats().0, 3);
        assert_eq!(m.set.replica(2).store_stats().0, 3);
        // The dead replica saw nothing.
        assert_eq!(m.set.replica(0).store_stats().0, 2);
    }

    #[test]
    fn a_total_outage_answers_with_an_error_not_a_panic() {
        let mut m = mesh(2);
        let semirt = semirt_measurement();
        let (_, user) = provisioned_world(&mut m, semirt);
        assert!(m.set.crash(0));
        assert!(m.set.crash(1));
        assert_eq!(m.set.alive_count(), 0);
        assert_eq!(m.set.route(&user), None);
        let (response, served_by) = m.set.provision(user, ModelId::new("diagnosis"), semirt);
        assert!(matches!(
            response,
            Response::Error(KeyServiceError::Channel(_))
        ));
        assert_eq!(served_by, None);
        assert!(matches!(
            m.set.handle_request(
                Request::Register {
                    identity_key: AeadKey::from_bytes([4u8; 16])
                },
                None
            ),
            Response::Error(KeyServiceError::Channel(_))
        ));
    }

    #[test]
    fn mesh_links_consume_tcs_and_a_crash_gives_them_back() {
        // 4 replicas, 8 TCSs each: the mesh holds 3 TCSs per replica, so a
        // replica accepts 5 more client connections; the 6th is refused;
        // closing one (or losing a peer) frees a slot.
        let m = mesh(4);
        let service = m.set.replica(0).clone();
        assert_eq!(service.open_connections(), 3);
        let mut rng = SessionRng::from_seed(23);
        let mut clients = Vec::new();
        for _ in 0..5 {
            let initiator = HandshakeInitiator::new_client(&mut rng);
            let (hello, connection) = service
                .accept_connection(&initiator.hello(), &mut rng)
                .unwrap();
            initiator
                .finish(&hello, &m.verifier, &service.measurement())
                .unwrap();
            clients.push(connection);
        }
        let overflow = HandshakeInitiator::new_client(&mut rng);
        assert!(service
            .accept_connection(&overflow.hello(), &mut rng)
            .is_err());

        // Closing a client connection frees a TCS: the retry succeeds.
        service.close_connection(clients.pop().unwrap());
        let retry = HandshakeInitiator::new_client(&mut rng);
        assert!(service.accept_connection(&retry.hello(), &mut rng).is_ok());

        // Replica 1's crash releases the TCS its mesh link held on replica
        // 0: a ninth connection now fits where it did not before.
        let full = HandshakeInitiator::new_client(&mut rng);
        assert!(service.accept_connection(&full.hello(), &mut rng).is_err());
        assert!(m.set.crash(1));
        let after_crash = HandshakeInitiator::new_client(&mut rng);
        assert!(service
            .accept_connection(&after_crash.hello(), &mut rng)
            .is_ok());
    }
}
