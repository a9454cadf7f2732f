//! Micro-benchmarks and ablations on the real (non-simulated) components:
//! AEAD throughput, the RA-TLS handshake, KeyService operations, the SeMIRT
//! hot path on a scaled-down model, `MODEL_EXEC` and `RUNTIME_INIT` on
//! full-size MBNET (the `inference` group), and the FnPacker routing
//! decision.
//!
//! These complement the per-figure benches: they measure the actual Rust
//! implementations rather than the calibrated cost model, and include one
//! design ablation (FnPacker's exclusivity release interval).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sesemi::deployment::Deployment;
use sesemi_crypto::aead::{Aead, AeadKey, Nonce};
use sesemi_crypto::chacha20poly1305::ChaCha20Poly1305;
use sesemi_crypto::gcm::Aes128Gcm;
use sesemi_crypto::rng::SessionRng;
use sesemi_crypto::sha256::sha256;
use sesemi_fnpacker::{FnPacker, FnPool};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_sim::{SimDuration, SimTime};
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
    group.bench_function("sha256_64KiB", |b| b.iter(|| sha256(&payload)));
    group.bench_function("x25519_diffie_hellman", |b| {
        let mut rng = SessionRng::from_seed(1);
        let alice = sesemi_crypto::x25519::EphemeralKeyPair::generate(&mut rng);
        let bob = sesemi_crypto::x25519::EphemeralKeyPair::generate(&mut rng);
        b.iter(|| alice.diffie_hellman(&bob.public).unwrap())
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

    // The per-request dispatch hot path (warm schedule → finish) against a
    // growing pool of parked unrelated-action containers.  With the
    // incremental warm-candidate/occupancy views the cost must stay flat in
    // the noise-pool size; the controller is built once per size so the
    // measured loop is pure dispatch.
    for noise in [0usize, 100, 1_000] {
        let (mut controller, hot) = sesemi_bench::micro::dispatch_bench_controller(noise);
        group.bench_with_input(
            BenchmarkId::new("warm_cycles_512_noise", noise),
            &noise,
            |b, _| b.iter(|| sesemi_bench::micro::run_dispatch_cycles(&mut controller, &hot, 512)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_end_to_end,
    bench_inference,
    bench_fnpacker_ablation,
    bench_schedule_dispatch
);
criterion_main!(benches);
