//! `hot`: one owner, one user and one 2-TCS TVM function serving full-size
//! MBNET (17 MB, Table I).  After warm-up every timed request takes SeMIRT's
//! hot path, so in-enclave concurrency, model execution and small-message
//! AES-GCM do all the work, and KeyService, RA-TLS and model loading none.

use crate::report::{digest, is_probability_vector, same_bits, Outcome};
use crate::serving::{
    check_quiescent, infer_traced, poisson_schedule, Counters, OpResult, Phase, Scheduled, Serving,
};
use crate::trace::{step, Chain, Clock, Tracer};
use crate::{Plan, Size};
use sesemi::deployment::{OwnerHandle, UserHandle};
use sesemi::{Deployment, FunctionHandle};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_runtime::InvocationPath;
use sesemi_sim::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct inputs the requests draw from.
const POOL: usize = 16;
/// TCSs of the serving function; one per sender.
const TCS: usize = 2;

/// A deployment ready to serve the hot path.
pub struct Hot {
    deployment: Deployment,
    _owner: OwnerHandle,
    user: UserHandle,
    model: ModelId,
    function: FunctionHandle,
    inputs: Vec<Vec<f32>>,
    /// The first prediction for each input.
    reference: Vec<Vec<f32>>,
    clock: Clock,
    seed: u64,
    errors: AtomicU64,
    mismatches: AtomicU64,
    not_hot: AtomicU64,
}

impl Serving for Hot {
    /// Index of the pool input to send.
    type Op = usize;

    const NOMINAL_RPS: f64 = 200.0;

    fn schedule(seed: u64, phase: &Phase) -> Vec<Scheduled<usize>> {
        let mut rng = SimRng::seed_from_u64(seed).derive(&format!("hot-phase-{}", phase.first_id));
        poisson_schedule(&mut rng, phase.rate, phase.length, phase.first_id, |r| {
            r.below(POOL)
        })
    }

    /// Deployment, parties, publishing, deploy, grant and warm-up.  Warm-up
    /// serves every pool input once, which also gives both workers a
    /// runtime, and keeps each prediction as the reference.
    fn build(
        plan: &Plan,
        _: &[Vec<Scheduled<usize>>],
        clock: Clock,
        tracer: Option<&Tracer>,
    ) -> Result<Hot, String> {
        let scale = match plan.size {
            Size::Full => 1.0,
            Size::Smoke => 0.05,
        };
        let seed = plan.seed;
        let mut deployment = step(tracer, "deployment.build", || {
            Deployment::builder().seed(seed).build()
        });
        let mut owner = step(tracer, "keyservice.register", || {
            deployment.register_owner("owner")
        });
        let mut user = step(tracer, "keyservice.register", || {
            deployment.register_user("user")
        });
        let model = step(tracer, "deployment.publish", || {
            owner.publish_model(&deployment, ModelKind::MbNet, scale)
        })
        .map_err(|e| format!("publish: {e}"))?;
        let function = step(tracer, "deployment.deploy", || {
            deployment.deploy_function(Framework::Tvm, TCS)
        })
        .map_err(|e| format!("deploy: {e}"))?;
        step(tracer, "keyservice.grant", || {
            owner.grant_access(&deployment, &model, &function, user.party())
        })
        .map_err(|e| format!("grant: {e}"))?;
        step(tracer, "keyservice.add_req_key", || {
            user.authorize(&deployment, &model, &function)
        })
        .map_err(|e| format!("authorize: {e}"))?;

        let dim = deployment
            .model_input_dim(&model)
            .ok_or("published model has no input dimension")?;
        let mut rng = SimRng::seed_from_u64(seed).derive("hot-inputs");
        let inputs: Vec<Vec<f32>> = (0..POOL)
            .map(|_| (0..dim).map(|_| rng.uniform(-1.0, 1.0) as f32).collect())
            .collect();
        let classes = ModelKind::MbNet.num_classes();
        let reference = step(tracer, "deployment.warmup", || {
            inputs
                .iter()
                .enumerate()
                .map(|(index, features)| {
                    let prediction = deployment
                        .infer(&user, &function, &model, features)
                        .map_err(|e| format!("warm-up: {e}"))?
                        .prediction;
                    if is_probability_vector(&prediction, classes) {
                        Ok(prediction)
                    } else {
                        Err(format!(
                            "warm-up prediction {index} is not a probability vector"
                        ))
                    }
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok(Hot {
            deployment,
            _owner: owner,
            user,
            model,
            function,
            inputs,
            reference,
            clock,
            seed,
            errors: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            not_hot: AtomicU64::new(0),
        })
    }

    fn digest(&self) -> String {
        let bytes: Vec<u8> = self
            .reference
            .iter()
            .flatten()
            .flat_map(|p| p.to_le_bytes())
            .collect();
        digest(&bytes)
    }

    /// Serves one timed request and checks its prediction and path.
    /// Untraced, the request is one `Deployment::infer`; traced, it is the
    /// three public calls `infer` makes, as spans on worker `sender`.
    fn serve(
        &self,
        tracer: Option<&Tracer>,
        sender: usize,
        op: &Scheduled<usize>,
        start_ns: u64,
    ) -> Option<OpResult> {
        let features = &self.inputs[op.op];
        let (served, root, done_ns) = match tracer {
            None => {
                let served = self
                    .deployment
                    .infer(&self.user, &self.function, &self.model, features)
                    .map(|outcome| (outcome.prediction, outcome.report.path))
                    .map_err(|e| e.to_string());
                (served, 0, self.clock.now_ns())
            }
            Some(tracer) => {
                let root = tracer.reserve_id();
                let mut chain = Chain::new(tracer, sender, root, op.id, start_ns);
                let served = infer_traced(
                    &mut chain,
                    sender,
                    &self.deployment,
                    &self.user,
                    &self.function,
                    &self.model,
                    features,
                    self.seed ^ op.id.rotate_left(32),
                )
                .map(|(prediction, report)| (prediction, report.path));
                (served, root, chain.at_ns())
            }
        };
        let ok = served.is_ok();
        match served {
            Ok((prediction, path)) => {
                if !same_bits(&prediction, &self.reference[op.op]) {
                    self.mismatches.fetch_add(1, Ordering::Relaxed);
                }
                if path != InvocationPath::Hot {
                    self.not_hot.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(OpResult {
            request: true,
            ok,
            root,
            done_ns,
        })
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.deployment, std::slice::from_ref(&self.function))
    }

    fn check(&self, outcome: &mut Outcome) {
        for (count, what) in [
            (
                &self.mismatches,
                "predictions differ from the input's first prediction",
            ),
            (&self.not_hot, "timed requests left the hot path"),
            (&self.errors, "requests failed"),
        ] {
            let count = count.load(Ordering::Relaxed);
            outcome.check(count == 0, || format!("hot: {count} {what}"));
        }
        check_quiescent(
            outcome,
            &self.deployment,
            2,
            std::slice::from_ref(&self.function),
        );
    }
}
