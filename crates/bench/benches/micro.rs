//! Micro-benchmarks and ablations on the real (non-simulated) components:
//! AEAD throughput, SHA-256 on a bulk and a one-block message, the RA-TLS
//! key schedule's HKDF, X25519 key generation and Diffie–Hellman (the
//! RA-TLS handshake's cost), ChaCha20's eight-block batch and the
//! `SessionRng` draws that generate a model, one `KEY_PROVISIONING` fetch
//! over a full attested handshake and over a resumed one (the `keyservice`
//! group), the SeMIRT hot path and the warm path's KeyService key fetch on
//! a scaled-down model, `MODEL_EXEC`, `RUNTIME_INIT` and the cold start's
//! decryption plus `MODEL_LOAD` on full-size MBNET (the `inference` group),
//! and the FnPacker routing decision.
//!
//! These complement the per-figure benches: they measure the actual Rust
//! implementations rather than the calibrated cost model, and include one
//! design ablation (FnPacker's exclusivity release interval).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::RngCore;
use sesemi::deployment::Deployment;
use sesemi::keyservice::{KeyService, OwnerClient, PartyId, UserClient};
use sesemi::semirt::provider::{decrypt_model, encrypt_model};
use sesemi::semirt::{InvocationPath, KeyProvider, KeyServiceProvider, SemirtConfig};
use sesemi_crypto::aead::{Aead, AeadKey, Nonce};
use sesemi_crypto::chacha20::{chacha20_batch, BATCH, BLOCK_LEN};
use sesemi_crypto::chacha20poly1305::ChaCha20Poly1305;
use sesemi_crypto::gcm::Aes128Gcm;
use sesemi_crypto::hkdf::{hkdf_extract, Prk};
use sesemi_crypto::rng::SessionRng;
use sesemi_crypto::sha256::sha256;
use sesemi_crypto::x25519::EphemeralKeyPair;
use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
use sesemi_enclave::{CodeIdentity, Enclave, EnclaveConfig, SgxPlatform};
use sesemi_fnpacker::{FnPacker, FnPool};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_sim::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let key = AeadKey::from_bytes([7u8; 16]);
    let nonce = Nonce::from_bytes([1u8; 12]);
    let payload = vec![0xABu8; 64 * 1024];

    let gcm = Aes128Gcm::new(&key);
    group.bench_function("aes128gcm_seal_64KiB", |b| {
        b.iter(|| gcm.seal(&nonce, &payload, b"model"))
    });
    // The sizes the serving path seals and opens: a full-size MBNET request
    // (about 4 KiB of features) and the 17 MB MBNET model itself (Table I).
    for (size, bytes) in [("4KiB", 4 * 1024), ("17MB", 17_000_000)] {
        let plaintext = vec![0xABu8; bytes];
        let sealed = gcm.seal(&nonce, &plaintext, b"model");
        group.bench_function(format!("aes128gcm_seal_{size}"), |b| {
            b.iter(|| gcm.seal(&nonce, &plaintext, b"model"))
        });
        group.bench_function(format!("aes128gcm_open_{size}"), |b| {
            b.iter(|| gcm.open(&nonce, &sealed, b"model").unwrap())
        });
    }
    let chacha = ChaCha20Poly1305::new(&key);
    group.bench_function("chacha20poly1305_seal_64KiB", |b| {
        b.iter(|| chacha.seal(&nonce, &payload, b"model"))
    });
    // `SessionRng` refills from this batch once past its first block.
    group.bench_function("chacha20_8_blocks", |b| {
        let mut out = [0u8; BATCH * BLOCK_LEN];
        b.iter(|| {
            chacha20_batch(black_box(&[3u8; 32]), black_box(1), &[0u8; 12], &mut out);
            out[0]
        })
    });
    // The model zoo's draw pattern: one `next_u32` per weight, 4 M of them
    // for full-size MBNET's 4.2 M parameters.
    group.bench_function("session_rng_next_u32_16MiB", |b| {
        b.iter(|| {
            let mut rng = SessionRng::from_seed(black_box(4));
            (0..4 << 20).fold(0u32, |acc, _| acc ^ rng.next_u32())
        })
    });
    group.bench_function("sha256_64KiB", |b| b.iter(|| sha256(&payload)));
    // The RA-TLS key schedule hashes one to five blocks per call: one 64-byte
    // message is two blocks with its padding.
    group.bench_function("sha256_64B", |b| {
        b.iter(|| sha256(black_box(&payload[..64])))
    });
    // `KeySchedule::derive`'s shape: one extract, then three 32-byte expands
    // under the one PRK.
    group.bench_function("hkdf_extract_expand3", |b| {
        b.iter(|| {
            let prk = Prk::new(&hkdf_extract(black_box(&[1u8; 32]), black_box(&[2u8; 32])));
            let mut keys = [[0u8; 32]; 3];
            for (key, label) in keys.iter_mut().zip([&b"send"[..], b"recv", b"resume"]) {
                prk.expand(label, key);
            }
            keys
        })
    });
    group.bench_function("x25519_diffie_hellman", |b| {
        let mut rng = SessionRng::from_seed(1);
        let alice = EphemeralKeyPair::generate(&mut rng);
        let bob = EphemeralKeyPair::generate(&mut rng);
        b.iter(|| alice.diffie_hellman(&bob.public).unwrap())
    });
    // Each RA-TLS handshake makes two key pairs and two shared secrets.
    group.bench_function("x25519_keygen", |b| {
        let mut rng = SessionRng::from_seed(2);
        b.iter(|| EphemeralKeyPair::generate(&mut rng).public)
    });
    group.finish();
}

/// A KeyService and a SeMIRT enclave it may provision, with one user's
/// grant and request key in place: the two ends of a key fetch.
fn key_fetch_world() -> (KeyServiceProvider, Enclave, PartyId, ModelId) {
    const MB: u64 = 1024 * 1024;
    let mut rng = SessionRng::from_seed(9);
    let platform = SgxPlatform::paper_sgx2_node("node-0");
    let authority = AttestationAuthority::new(9);
    authority.register_platform("node-0", AttestationScheme::EcdsaDcap);
    let verifier = authority.verifier();
    let launch = |identity: CodeIdentity, tcs_count: usize| {
        Enclave::launch(
            &platform,
            &authority,
            identity,
            EnclaveConfig::new(64 * MB, tcs_count),
        )
        .unwrap()
    };
    let keyservice = Arc::new(KeyService::new(
        Arc::new(launch(
            CodeIdentity::new("keyservice", b"keyservice".to_vec(), "1.0"),
            16,
        )),
        verifier.clone(),
    ));
    let semirt = launch(
        SemirtConfig::new(Framework::Tvm, 64 * MB, 1).code_identity(),
        1,
    );
    let expected = keyservice.measurement();
    let model = ModelId::new("mbnet");
    let mut owner = OwnerClient::connect(
        &keyservice,
        &verifier,
        &expected,
        AeadKey::generate(&mut rng),
        &mut rng,
    )
    .unwrap();
    let mut user = UserClient::connect(
        &keyservice,
        &verifier,
        &expected,
        AeadKey::generate(&mut rng),
        &mut rng,
    )
    .unwrap();
    owner.register(&keyservice).unwrap();
    let party = user.register(&keyservice).unwrap();
    owner
        .add_model_key(&keyservice, &model, &AeadKey::generate(&mut rng), &mut rng)
        .unwrap();
    owner
        .grant_access(&keyservice, &model, semirt.measurement(), party, &mut rng)
        .unwrap();
    user.add_request_key(
        &keyservice,
        &model,
        semirt.measurement(),
        &AeadKey::generate(&mut rng),
        &mut rng,
    )
    .unwrap();
    let provider = KeyServiceProvider::new(keyservice, verifier, expected, 10);
    (provider, semirt, party, model)
}

fn bench_keyservice(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyservice");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    // Each iteration opens a connection, sends one `Provision` record, reads
    // the keys and closes the connection: an instance's first key fetch
    // attests in full, every later one resumes the session it left.
    let (provider, semirt, user, model) = key_fetch_world();
    group.bench_function("provision_full", |b| {
        b.iter(|| {
            provider
                .fetch_keys(&semirt, &mut None, user, &model)
                .unwrap()
        })
    });
    let mut session = None;
    provider
        .fetch_keys(&semirt, &mut session, user, &model)
        .unwrap();
    group.bench_function("provision_resumed", |b| {
        b.iter(|| {
            provider
                .fetch_keys(&semirt, &mut session, user, &model)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end-to-end");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    // One full in-process deployment; the hot path is what the paper
    // optimizes, so that is what we measure per framework.
    for framework in [Framework::Tvm, Framework::Tflm] {
        let mut deployment = Deployment::builder().seed(3).build();
        let mut owner = deployment.register_owner("hospital");
        let mut user = deployment.register_user("patient");
        let model = owner
            .publish_model(&deployment, ModelKind::MbNet, 0.02)
            .unwrap();
        let function = deployment.deploy_function(framework, 1).unwrap();
        owner
            .grant_access(&deployment, &model, &function, user.party())
            .unwrap();
        user.authorize(&deployment, &model, &function).unwrap();
        let dim = deployment.model_input_dim(&model).unwrap();
        let features = vec![0.2f32; dim];
        // Warm it up so the measured iterations take the hot path.
        deployment
            .infer(&user, &function, &model, &features)
            .unwrap();

        group.bench_with_input(
            BenchmarkId::new("hot_inference_scaled_mbnet", framework.label()),
            &framework,
            |b, _| {
                b.iter(|| {
                    deployment
                        .infer(&user, &function, &model, &features)
                        .unwrap()
                })
            },
        );
    }

    // One single-TCS instance serving two users in turn: the one-entry key
    // cache always holds the other user's keys, so every request is warm and
    // pays a KeyService key fetch, which resumes the instance's attested
    // session.  This is the path most `churn` requests in `perfbench` take.
    let mut deployment = Deployment::builder().seed(5).build();
    let mut owner = deployment.register_owner("hospital");
    let mut users = [
        deployment.register_user("patient-a"),
        deployment.register_user("patient-b"),
    ];
    let model = owner
        .publish_model(&deployment, ModelKind::MbNet, 0.02)
        .unwrap();
    let function = deployment.deploy_function(Framework::Tvm, 1).unwrap();
    for user in &mut users {
        owner
            .grant_access(&deployment, &model, &function, user.party())
            .unwrap();
        user.authorize(&deployment, &model, &function).unwrap();
    }
    let features = vec![0.2f32; deployment.model_input_dim(&model).unwrap()];
    let mut turn = 0;
    let mut infer_next = || {
        turn ^= 1;
        deployment
            .infer(&users[turn], &function, &model, &features)
            .unwrap()
    };
    infer_next();
    assert_eq!(infer_next().report.path, InvocationPath::Warm);
    group.bench_function("warm_key_fetch_scaled_mbnet", |b| b.iter(&mut infer_next));
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    // Full-size MBNET (17 MB, Table I), the model `perfbench`'s `hot`
    // workload serves; the simulator prices this stage as
    // `StageCosts::model_exec`.
    let kind = ModelKind::MbNet;
    let bytes = kind.generate(1.0, &mut SessionRng::from_seed(7)).to_bytes();
    for framework in Framework::ALL {
        let model = framework.model_load(&kind.default_id(), &bytes).unwrap();
        let input: Vec<f32> = (0..model.graph().input_dim)
            .map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.05)
            .collect();
        let mut runtime = framework.runtime_init(&model);
        group.bench_with_input(
            BenchmarkId::new("model_exec_mbnet", framework.label()),
            &framework,
            |b, _| b.iter(|| runtime.model_exec(&model, &input).unwrap()),
        );
        if framework == Framework::Tvm {
            group.bench_with_input(
                BenchmarkId::new("runtime_init_mbnet", framework.label()),
                &framework,
                |b, framework| b.iter(|| framework.runtime_init(&model)),
            );
        }
    }
    // A cold start's decryption and `MODEL_LOAD` of the sealed full-size
    // blob.  Each iteration also clones the blob, as the fetch into the
    // enclave does, since decryption consumes it.
    let id = kind.default_id();
    let key = AeadKey::from_bytes([7u8; 16]);
    let blob = encrypt_model(&id, &bytes, &key, &mut SessionRng::from_seed(8));
    group.bench_function("decrypt_load_mbnet", |b| {
        b.iter(|| {
            let plaintext = decrypt_model(&id, blob.clone(), &key).unwrap();
            Framework::Tvm.model_load(&id, &plaintext).unwrap()
        })
    });
    group.finish();
}

fn bench_fnpacker_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fnpacker");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let models: Vec<ModelId> = (0..16).map(|i| ModelId::new(format!("m{i}"))).collect();
    let pool = FnPool::new("pool", models.clone(), 768 * 1024 * 1024, 8);

    // Routing-decision throughput (the packer sits on the request path).
    group.bench_function("routing_decision_16_models_8_endpoints", |b| {
        b.iter(|| {
            let mut packer = FnPacker::new(pool.clone());
            let mut now = SimTime::ZERO;
            for i in 0..512usize {
                let model = &models[i % models.len()];
                let endpoint = packer.route(model, now);
                packer.complete(model, endpoint, now, SimDuration::from_millis(10), "hot");
                now += SimDuration::from_millis(5);
            }
            packer.endpoints_used()
        })
    });

    // Ablation: how the exclusivity release interval changes consolidation.
    for release_secs in [5u64, 30, 120] {
        group.bench_with_input(
            BenchmarkId::new("release_interval_consolidation", release_secs),
            &release_secs,
            |b, secs| {
                b.iter(|| {
                    let mut packer = FnPacker::with_release_interval(
                        pool.clone(),
                        SimDuration::from_secs(*secs),
                    );
                    let mut now = SimTime::ZERO;
                    for i in 0..256usize {
                        let model = &models[i % 3];
                        let endpoint = packer.route(model, now);
                        packer.complete(model, endpoint, now, SimDuration::from_millis(10), "hot");
                        now += SimDuration::from_secs(2);
                    }
                    packer.endpoints_used()
                })
            },
        );
    }
    group.finish();
}

fn bench_schedule_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_dispatch");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    // The simulator's per-request dispatch path (warm candidates → the
    // default scheduler's pick → assign → finish) against a growing pool of
    // parked unrelated-action containers.  With the incremental
    // warm-candidate/occupancy views the cost must stay flat in the
    // noise-pool size; the controller is built once per size so the
    // measured loop is pure dispatch.
    for noise in [0usize, 100, 1_000] {
        let (mut controller, hot) = sesemi_bench::micro::dispatch_bench_controller(noise);
        group.bench_with_input(
            BenchmarkId::new("warm_cycles_512_noise", noise),
            &noise,
            |b, _| b.iter(|| sesemi_bench::micro::run_dispatch_cycles(&mut controller, hot, 512)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_keyservice,
    bench_end_to_end,
    bench_inference,
    bench_fnpacker_ablation,
    bench_schedule_dispatch
);
criterion_main!(benches);
