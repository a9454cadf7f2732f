//! Security-focused integration tests: the threat-model checks of the
//! paper's §IV-D, exercised against the real implementation.
//!
//! The adversary controls everything outside the enclaves: cloud storage,
//! the serverless platform, the network between components, and it can run
//! arbitrary enclaves of its own.  These tests act out those capabilities and
//! verify that confidentiality and access control hold.

use sesemi::deployment::{Deployment, DeploymentError};
use sesemi_crypto::aead::AeadKey;
use sesemi_inference::{Framework, ModelKind};
use sesemi_keyservice::service::{Request, Response};
use sesemi_keyservice::{KeyServiceError, PartyId};
use sesemi_runtime::{RuntimeError, SemirtConfig};

const MB: u64 = 1024 * 1024;

fn setup() -> (
    Deployment,
    sesemi::deployment::FunctionHandle,
    sesemi_inference::ModelId,
    sesemi::deployment::UserHandle,
) {
    let mut deployment = Deployment::builder().seed(500).build();
    let mut owner = deployment.register_owner("hospital");
    let mut user = deployment.register_user("patient");
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 2).unwrap();
    owner
        .grant_access(&deployment, &model, &function, user.party())
        .unwrap();
    user.authorize(&deployment, &model, &function).unwrap();
    (deployment, function, model, user)
}

#[test]
fn encrypted_request_reveals_nothing_and_cannot_be_decrypted_without_the_key() {
    let (deployment, function, model, mut user) = setup();
    let dim = deployment.model_input_dim(&model).unwrap();
    let features: Vec<f32> = (0..dim).map(|i| i as f32).collect();
    let request = deployment
        .encrypt_request(&mut user, &function, &model, &features)
        .unwrap();

    // The ciphertext does not contain the plaintext feature encoding.
    let plaintext_encoding = sesemi_runtime::request::encode_input(&features);
    let ciphertext = &request.payload.ciphertext;
    assert!(ciphertext
        .windows(16.min(plaintext_encoding.len()))
        .all(|w| w != &plaintext_encoding[..16.min(plaintext_encoding.len())]));

    // A cloud-side attacker who guesses keys cannot decrypt it.
    for guess in 0u8..8 {
        let wrong_key = AeadKey::from_bytes([guess; 16]);
        assert!(request.decrypt(&wrong_key).is_err());
    }
}

#[test]
fn swapping_encrypted_models_in_storage_is_detected_inside_the_enclave() {
    // The adversary controls cloud storage and swaps the blob stored under
    // the model id with a different encrypted blob (e.g. an older or foreign
    // model).  Authenticated decryption with the model key must fail because
    // the AAD binds the model id and the key differs.
    let mut deployment = Deployment::builder().seed(501).build();
    let mut owner = deployment.register_owner("owner");
    let mut user = deployment.register_user("user");
    let model_a = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let model_b = owner
        .publish_model(&deployment, ModelKind::DsNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    for model in [&model_a, &model_b] {
        owner
            .grant_access(&deployment, model, &function, user.party())
            .unwrap();
        user.authorize(&deployment, model, &function).unwrap();
    }

    // Simulate the storage swap by overwriting model_a's object with bytes
    // encrypted under a *different* key (the adversary does not know K_M, so
    // the best it can do is substitute ciphertext it found elsewhere).  The
    // cloud controls storage in the threat model, so the attack goes straight
    // through the storage handle.
    let rogue_graph = ModelKind::MbNet.generate(0.01, &mut rand::rngs::mock::StepRng::new(7, 11));
    let rogue_key = AeadKey::from_bytes([0xEE; 16]);
    let mut rng = sesemi_crypto::rng::SessionRng::from_seed(9);
    let rogue_blob = sesemi_runtime::provider::encrypt_model(
        &model_a,
        &rogue_graph.to_bytes(),
        &rogue_key,
        &mut rng,
    );
    deployment.storage().put(model_a.clone(), rogue_blob);

    let dim = deployment.model_input_dim(&model_a).unwrap();
    let err = deployment
        .infer(&user, &function, &model_a, &vec![0.0; dim])
        .unwrap_err();
    assert!(matches!(
        err,
        DeploymentError::Runtime(RuntimeError::ModelDecryption)
    ));
    // The untampered model_b still serves fine.
    let dim_b = deployment.model_input_dim(&model_b).unwrap();
    assert!(deployment
        .infer(&user, &function, &model_b, &vec![0.0; dim_b])
        .is_ok());
}

#[test]
fn keyservice_rejects_forged_owner_payloads_and_unattested_provisioning() {
    let mut deployment = Deployment::builder().seed(502).build();
    let mut owner = deployment.register_owner("owner");
    let mut user = deployment.register_user("user");
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    owner
        .grant_access(&deployment, &model, &function, user.party())
        .unwrap();
    user.authorize(&deployment, &model, &function).unwrap();

    let keyservice = deployment.keyservice();

    // 1. An attacker who registered their own identity tries to grant
    //    themselves access to the owner's model: the grant is rejected
    //    because they do not own the model.
    let attacker_key = AeadKey::from_bytes([0x66; 16]);
    let attacker = PartyId::from_identity_key(&attacker_key);
    let response = keyservice.handle_request(
        Request::Register {
            identity_key: attacker_key.clone(),
        },
        None,
    );
    assert!(matches!(response, Response::Registered(p) if p == attacker));
    let mut rng = sesemi_crypto::rng::SessionRng::from_seed(1);
    let forged_grant = sesemi_keyservice::messages::OwnerRequest::GrantAccess {
        model: model.clone(),
        enclave: function.measurement,
        user: attacker,
    }
    .seal(&attacker_key, &mut rng);
    let response = keyservice.handle_request(
        Request::OwnerOp {
            owner: attacker,
            payload: forged_grant,
        },
        None,
    );
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));

    // 2. Key provisioning without a mutually attested channel is refused even
    //    for an authorized (user, model) pair.
    let response = keyservice.handle_request(
        Request::Provision {
            user: user.party(),
            model: model.clone(),
        },
        None,
    );
    assert!(matches!(
        response,
        Response::Error(KeyServiceError::AttestationFailed(_))
    ));
}

#[test]
fn key_provisioning_refuses_the_wrong_enclave_measurement() {
    // The owner granted (model, E_A, user); an enclave with a *different*
    // attested measurement (e.g. a tampered or reconfigured SeMIRT build)
    // asks for the keys over a mutually attested channel.  Provisioning must
    // refuse with exactly `NotAuthorized` — not an attestation error, since
    // the channel itself is fine; the identity simply holds no grant.
    let (mut deployment, function, model, user) = setup();
    let other_function = deployment.deploy_function(Framework::Tflm, 1).unwrap();
    assert_ne!(function.measurement, other_function.measurement);

    let keyservice = deployment.keyservice();
    let response = keyservice.handle_request(
        Request::Provision {
            user: user.party(),
            model: model.clone(),
        },
        Some(other_function.measurement),
    );
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));

    // The granted measurement still provisions fine.
    let response = keyservice.handle_request(
        Request::Provision {
            user: user.party(),
            model,
        },
        Some(function.measurement),
    );
    assert!(matches!(response, Response::Keys { .. }));
}

#[test]
fn key_provisioning_refuses_absent_and_revoked_grants() {
    let mut deployment = Deployment::builder().seed(503).build();
    let mut owner = deployment.register_owner("owner");
    let mut user = deployment.register_user("user");
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    user.authorize(&deployment, &model, &function).unwrap();
    let keyservice = deployment.keyservice();
    let provision = Request::Provision {
        user: user.party(),
        model: model.clone(),
    };

    // 1. The user bound a request key but the owner never granted access:
    //    the ACM lookup fails with exactly `NotAuthorized`.
    let response = keyservice.handle_request(provision.clone(), Some(function.measurement));
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));

    // 2. After a grant, provisioning succeeds ...
    owner
        .grant_access(&deployment, &model, &function, user.party())
        .unwrap();
    let response = keyservice.handle_request(provision.clone(), Some(function.measurement));
    assert!(matches!(response, Response::Keys { .. }));

    // 3. ... and after the owner revokes it, the same request is refused
    //    again with exactly `NotAuthorized`.
    owner
        .revoke_access(&deployment, &model, &function, user.party())
        .unwrap();
    let response = keyservice.handle_request(provision, Some(function.measurement));
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));
}

#[test]
fn key_provisioning_refuses_a_request_key_bound_to_a_different_user() {
    // The owner granted user A; user B registered the only request key for
    // the (model, enclave) pair.  Provisioning for A must refuse with exactly
    // `NotAuthorized`: the grant exists but KS_R holds no key under A's
    // identity (a request key bound to a different user never serves A).
    let mut deployment = Deployment::builder().seed(504).build();
    let mut owner = deployment.register_owner("owner");
    let user_a = deployment.register_user("user-a");
    let mut user_b = deployment.register_user("user-b");
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    owner
        .grant_access(&deployment, &model, &function, user_a.party())
        .unwrap();
    user_b.authorize(&deployment, &model, &function).unwrap();

    let keyservice = deployment.keyservice();
    let response = keyservice.handle_request(
        Request::Provision {
            user: user_a.party(),
            model: model.clone(),
        },
        Some(function.measurement),
    );
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));

    // B's key does not help B either: B holds a request key but no grant.
    let response = keyservice.handle_request(
        Request::Provision {
            user: user_b.party(),
            model,
        },
        Some(function.measurement),
    );
    assert_eq!(response, Response::Error(KeyServiceError::NotAuthorized));
}

#[test]
fn revocation_stops_new_enclaves_but_not_already_provisioned_ones() {
    // Access control is enforced at provisioning time (§IV-D): a revocation
    // prevents any enclave that has not yet fetched the keys from serving the
    // user, while a worker that already cached them keeps serving until it
    // terminates.
    let mut deployment = Deployment::builder().seed(505).build();
    let mut owner = deployment.register_owner("owner");
    let mut user = deployment.register_user("user");
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 2).unwrap();
    owner
        .grant_access(&deployment, &model, &function, user.party())
        .unwrap();
    user.authorize(&deployment, &model, &function).unwrap();

    let dim = deployment.model_input_dim(&model).unwrap();
    let features = vec![0.5f32; dim];
    // The first function's enclave provisions its keys and serves.
    assert!(deployment
        .infer(&user, &function, &model, &features)
        .is_ok());

    owner
        .revoke_access(&deployment, &model, &function, user.party())
        .unwrap();

    // A freshly launched enclave with the *same* measurement (so the user's
    // request key and the withdrawn grant both name it) has no cached keys;
    // its provisioning attempt is refused.
    let fresh = deployment.deploy_function(Framework::Tvm, 2).unwrap();
    assert_eq!(fresh.measurement, function.measurement);
    let err = deployment
        .infer(&user, &fresh, &model, &features)
        .unwrap_err();
    assert!(matches!(
        err,
        DeploymentError::Runtime(RuntimeError::KeyProvisioning(
            KeyServiceError::NotAuthorized
        ))
    ));
    // The original enclave still holds the previously provisioned keys and
    // keeps serving until it terminates.
    assert!(deployment
        .infer(&user, &function, &model, &features)
        .is_ok());
}

#[test]
fn revocation_applies_to_the_next_resumed_key_fetch() {
    // A running instance resumes its attested KeyService session for every
    // key fetch after its first, but the KeyService still checks the grant
    // on each `Provision`: once a user's keys leave the one-entry key cache,
    // a revocation refuses the next fetch without any new attestation.
    let mut deployment = Deployment::builder().seed(506).build();
    let mut owner = deployment.register_owner("owner");
    let mut users = [
        deployment.register_user("user-a"),
        deployment.register_user("user-b"),
    ];
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.01)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    for user in &mut users {
        owner
            .grant_access(&deployment, &model, &function, user.party())
            .unwrap();
        user.authorize(&deployment, &model, &function).unwrap();
    }
    let features = vec![0.5f32; deployment.model_input_dim(&model).unwrap()];
    let [user_a, user_b] = &users;
    deployment
        .infer(user_a, &function, &model, &features)
        .unwrap();
    // B's fetch resumes the session A's cold fetch attested, and evicts A's
    // keys from the cache.
    let keyservice = deployment.keyservice();
    let quotes = keyservice.enclave().quotes_generated();
    deployment
        .infer(user_b, &function, &model, &features)
        .unwrap();
    assert_eq!(keyservice.enclave().quotes_generated(), quotes);

    owner
        .revoke_access(&deployment, &model, &function, user_a.party())
        .unwrap();
    let err = deployment
        .infer(user_a, &function, &model, &features)
        .unwrap_err();
    assert_eq!(
        err,
        DeploymentError::Runtime(RuntimeError::KeyProvisioning(
            KeyServiceError::NotAuthorized
        ))
    );
    assert_eq!(keyservice.enclave().quotes_generated(), quotes);
}

#[test]
fn enclave_identity_pins_the_exact_configuration() {
    // Two SeMIRT builds that differ only in their concurrency level have
    // different measurements, so a grant for one does not authorize the
    // other (paper Appendix B).
    let four_threads = SemirtConfig::new(Framework::Tvm, 256 * MB, 4);
    let eight_threads = SemirtConfig::new(Framework::Tvm, 256 * MB, 8);
    assert_ne!(four_threads.measurement(), eight_threads.measurement());

    // And the measurement is stable across rebuilds of the same config, which
    // is what lets owners and users derive E_S offline.
    assert_eq!(
        SemirtConfig::new(Framework::Tvm, 256 * MB, 4).measurement(),
        four_threads.measurement()
    );
}
