//! Exact work counters of the key path, on a fixed request sequence through
//! [`Deployment`]: two users take turns on one 1-TCS function, so the
//! one-entry key cache misses on every request and each one fetches keys.
//!
//! The counts are deterministic, unlike timings.  A change that silently
//! falls back to full attested handshakes on warm fetches, adds an ECALL to a
//! request, or leaks a KeyService connection fails here without a timing run.

use sesemi::deployment::Deployment;
use sesemi_inference::{Framework, ModelKind};
use sesemi_runtime::ServingStage;

const REQUESTS: usize = 20;

#[test]
fn alternating_users_cost_one_keyservice_quote_and_one_ecall_per_fetch() {
    let mut deployment = Deployment::builder().seed(77).build();
    let mut owner = deployment.register_owner("owner");
    let mut users = [
        deployment.register_user("user-a"),
        deployment.register_user("user-b"),
    ];
    let parties = 3;
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
    let features = vec![0.25f32; deployment.model_input_dim(&model).unwrap()];
    let keyservice = deployment.keyservice();
    let instance = deployment.instance(&function).unwrap();
    let counters = || {
        (
            keyservice.enclave().quotes_generated(),
            keyservice.enclave().ecalls_served(),
            instance.enclave().ecalls_served(),
        )
    };
    let (quotes, keyservice_ecalls, function_ecalls) = counters();
    assert_eq!(keyservice.open_connections(), parties);

    let mut fetches = 0;
    for request in 0..REQUESTS {
        let outcome = deployment
            .infer(&users[request % 2], &function, &model, &features)
            .unwrap();
        if outcome.report.performed(ServingStage::KeyFetch) {
            fetches += 1;
        }
        assert_eq!(keyservice.open_connections(), parties, "request {request}");
    }

    assert_eq!(fetches, REQUESTS, "every request misses the key cache");
    let (quotes_after, keyservice_ecalls_after, function_ecalls_after) = counters();
    // Only the instance's first fetch attests in full; the rest resume.
    assert_eq!(quotes_after - quotes, 1);
    // One KeyService ECALL per fetch: the connection's, resumed or not.
    assert_eq!(keyservice_ecalls_after - keyservice_ecalls, fetches as u64);
    assert_eq!(function_ecalls_after - function_ecalls, REQUESTS as u64);
}
