//! `churn`: eight users and the paper's three models at one reduced scale,
//! with Zipf model popularity, routed by the real `FnPacker` over two
//! endpoints.
//!
//! SeMIRT's 1-entry key cache and 1-model cache miss on most requests, so
//! most time goes to KEY_PROVISIONING over attested RA-TLS, bulk AES-GCM
//! model decryption, deserialization and runtime init.  Cold starts come
//! from switching an endpoint, on a seeded schedule, to an instance that was
//! deployed at set-up and never invoked.  About 3% of operations are
//! KeyService write pairs (`GRANT_ACCESS` + `ADD_REQ_KEY`) against a staged
//! function image that serves no traffic.
//!
//! The workload stays clear of three defects of the code it measures (see
//! `README.md`): it keeps 9 KeyService parties, writes only to the staged
//! image, and seals traced requests with a fresh nonce stream.

use crate::report::{digest, is_probability_vector, same_bits, Outcome};
use crate::serving::{
    check_quiescent, infer_traced, poisson_schedule, Class, Counters, OpResult, Phase, Scheduled,
    Serving, PHASE_ID_STRIDE,
};
use crate::trace::{step, Chain, Clock, Tracer};
use crate::Plan;
use sesemi::deployment::{OwnerHandle, UserHandle};
use sesemi::keyservice::PartyId;
use sesemi::{Deployment, FunctionHandle};
use sesemi_fnpacker::{FnPacker, FnPool};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_runtime::SemirtConfig;
use sesemi_sim::{SimDuration, SimRng, SimTime};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Users, drawn uniformly per request.  With the owner that makes 9
/// KeyService parties, well under the 16 TCSs live handles pin.
const USERS: usize = 8;
/// The models in Zipf popularity order, and their weights (1/rank²).
const MODELS: [(ModelKind, f64); 3] = [
    (ModelKind::MbNet, 1.0),
    (ModelKind::DsNet, 1.0 / 4.0),
    (ModelKind::RsNet, 1.0 / 9.0),
];
/// Model scale: RSNET is about 0.33 MB, DSNET 0.09 MB and MBNET 0.03 MB.
const SCALE: f64 = 0.002;
/// Distinct inputs per model.
const INPUTS: usize = 8;
/// FnPacker endpoints.
const ENDPOINTS: usize = 2;
/// TCSs of every serving function.
const TCS: usize = 2;
/// Share of operations that are KeyService write pairs.
const WRITE_SHARE: f64 = 0.03;
/// Mean seconds between endpoint switches to a fresh instance.
const SWITCH_MEAN_S: f64 = 3.0;
/// Enclave memory per function: ample for a 0.33 MB model and two runtimes.
const FUNCTION_BYTES: u64 = 64 * 1024 * 1024;

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// An inference request.
    Request {
        user: usize,
        model: usize,
        input: usize,
    },
    /// A KeyService write pair against the staged image.
    Write { user: usize, model: usize },
    /// Point `endpoint` at the next never-invoked instance.
    Switch { endpoint: usize },
}

/// A deployment ready to serve the churn mix.
pub struct Churn {
    deployment: Deployment,
    owner: Mutex<OwnerHandle>,
    users: Vec<RwLock<UserHandle>>,
    parties: Vec<PartyId>,
    models: Vec<ModelId>,
    packer: Mutex<FnPacker>,
    /// The instance each endpoint currently routes to.
    endpoints: Mutex<Vec<FunctionHandle>>,
    /// Never-invoked instances, taken in order by switches.
    spares: Vec<FunctionHandle>,
    next_spare: AtomicUsize,
    /// The staged image the KeyService writes target.
    staged: FunctionHandle,
    inputs: Vec<Vec<Vec<f32>>>,
    /// The first prediction for each (model, input).
    reference: Vec<Vec<Vec<f32>>>,
    clock: Clock,
    seed: u64,
    errors: AtomicU64,
    mismatches: AtomicU64,
}

impl Serving for Churn {
    type Op = Op;

    const NOMINAL_RPS: f64 = 40.0;

    /// Requests and write pairs on the phase's Poisson schedule, merged with
    /// endpoint switches on a Poisson schedule of their own in due time, so
    /// the capacity phase, whose senders never catch up with its due times,
    /// meets few of them.
    fn schedule(seed: u64, phase: &Phase) -> Vec<Scheduled<Op>> {
        let weights: Vec<f64> = MODELS.iter().map(|(_, w)| *w).collect();
        let mut rng =
            SimRng::seed_from_u64(seed).derive(&format!("churn-phase-{}", phase.first_id));
        let mut ops = poisson_schedule(&mut rng, phase.rate, phase.length, phase.first_id, |r| {
            let user = r.below(USERS);
            let model = r.weighted_choice(&weights);
            if r.chance(WRITE_SHARE) {
                Op::Write { user, model }
            } else {
                Op::Request {
                    user,
                    model,
                    input: r.below(INPUTS),
                }
            }
        });
        ops.extend(poisson_schedule(
            &mut rng,
            1.0 / SWITCH_MEAN_S,
            phase.length,
            phase.first_id + PHASE_ID_STRIDE / 2,
            |r| Op::Switch {
                endpoint: r.below(ENDPOINTS),
            },
        ));
        ops.sort_by_key(|op| op.due_ns);
        ops
    }

    /// Deployment, parties, publishing, deploys (the endpoints, one spare
    /// instance per scheduled switch, the staged image), grants and warm-up.
    /// Warm-up serves every (model, input) once and keeps each prediction as
    /// the reference.
    fn build(
        plan: &Plan,
        schedules: &[Vec<Scheduled<Op>>],
        clock: Clock,
        tracer: Option<&Tracer>,
    ) -> Result<Churn, String> {
        let seed = plan.seed;
        let spares = schedules
            .iter()
            .flatten()
            .filter(|op| matches!(op.op, Op::Switch { .. }))
            .count();
        let mut deployment = step(tracer, "deployment.build", || {
            Deployment::builder()
                .seed(seed)
                .function_enclave_bytes(FUNCTION_BYTES)
                .build()
        });
        let mut owner = step(tracer, "keyservice.register", || {
            deployment.register_owner("owner")
        });
        let mut users: Vec<UserHandle> = (0..USERS)
            .map(|u| {
                step(tracer, "keyservice.register", || {
                    deployment.register_user(&format!("user-{u}"))
                })
            })
            .collect();
        let models = MODELS
            .iter()
            .map(|(kind, _)| {
                step(tracer, "deployment.publish", || {
                    owner.publish_model(&deployment, *kind, SCALE)
                })
                .map_err(|e| format!("publish: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut deploy = |config: SemirtConfig| {
            step(tracer, "deployment.deploy", || {
                deployment.deploy_function_with_config(config)
            })
            .map_err(|e| format!("deploy: {e}"))
        };
        let serving = SemirtConfig::new(Framework::Tvm, FUNCTION_BYTES, TCS);
        let endpoints = (0..ENDPOINTS)
            .map(|_| deploy(serving.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let spares = (0..spares)
            .map(|_| deploy(serving.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let staged = deploy(SemirtConfig {
            version: "1.1-staged".to_string(),
            ..serving
        })?;
        for model in &models {
            for user in &mut users {
                step(tracer, "keyservice.grant", || {
                    owner.grant_access(&deployment, model, &endpoints[0], user.party())
                })
                .map_err(|e| format!("grant: {e}"))?;
                step(tracer, "keyservice.add_req_key", || {
                    user.authorize(&deployment, model, &endpoints[0])
                })
                .map_err(|e| format!("authorize: {e}"))?;
            }
        }

        let mut rng = SimRng::seed_from_u64(seed).derive("churn-inputs");
        let inputs = models
            .iter()
            .map(|model| {
                let dim = deployment
                    .model_input_dim(model)
                    .ok_or("published model has no input dimension")?;
                Ok((0..INPUTS)
                    .map(|_| (0..dim).map(|_| rng.uniform(-1.0, 1.0) as f32).collect())
                    .collect())
            })
            .collect::<Result<Vec<Vec<Vec<f32>>>, String>>()?;
        let pool = FnPool::new("churn", models.clone(), FUNCTION_BYTES, ENDPOINTS);
        let mut world = Churn {
            deployment,
            owner: Mutex::new(owner),
            parties: users.iter().map(UserHandle::party).collect(),
            users: users.into_iter().map(RwLock::new).collect(),
            models,
            packer: Mutex::new(FnPacker::new(pool)),
            endpoints: Mutex::new(endpoints),
            spares,
            next_spare: AtomicUsize::new(0),
            staged,
            inputs,
            reference: Vec::new(),
            clock,
            seed,
            errors: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
        };
        let warmup = || -> Result<Vec<Vec<Vec<f32>>>, String> {
            let mut served = 0usize;
            (0..MODELS.len())
                .map(|model| {
                    (0..INPUTS)
                        .map(|input| {
                            let function = world.endpoint(served % ENDPOINTS);
                            let (prediction, _) =
                                world.infer(None, (0, 0), &function, (served % USERS, model, input))?;
                            served += 1;
                            if is_probability_vector(&prediction, MODELS[model].0.num_classes()) {
                                Ok(prediction)
                            } else {
                                Err(format!(
                                    "warm-up prediction ({model}, {input}) is not a probability vector"
                                ))
                            }
                        })
                        .collect()
                })
                .collect()
        };
        world.reference = step(tracer, "deployment.warmup", warmup)?;
        Ok(world)
    }

    fn digest(&self) -> String {
        let bytes: Vec<u8> = self
            .reference
            .iter()
            .flatten()
            .flatten()
            .flat_map(|p| p.to_le_bytes())
            .collect();
        digest(&bytes)
    }

    fn serve(
        &self,
        tracer: Option<&Tracer>,
        sender: usize,
        op: &Scheduled<Op>,
        start_ns: u64,
    ) -> Option<OpResult> {
        let ids = (sender, op.id, start_ns);
        match op.op {
            Op::Request { user, model, input } => {
                Some(self.request(tracer, ids, (user, model, input)))
            }
            Op::Write { user, model } => Some(self.write(tracer, ids, (user, model))),
            Op::Switch { endpoint } => {
                self.switch(endpoint);
                None
            }
        }
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.deployment, &self.serving_functions())
    }

    fn check(&self, outcome: &mut Outcome) {
        let mismatches = self.mismatches.load(Ordering::Relaxed);
        outcome.check(mismatches == 0, || {
            format!(
                "churn: {mismatches} predictions differ from the first prediction for their input"
            )
        });
        let errors = self.errors.load(Ordering::Relaxed);
        outcome.check(errors == 0, || format!("churn: {errors} operations failed"));
        let mut functions = self.serving_functions();
        functions.push(self.staged.clone());
        check_quiescent(outcome, &self.deployment, 1 + USERS, &functions);
    }
}

impl Churn {
    /// Points `endpoint` at the next spare instance and retires the one it
    /// replaces: the dispatcher clears the retired instance's worker
    /// contexts (`EC_CLEAR_EXEC_CTX`), as it does for any retired worker.
    fn switch(&self, endpoint: usize) {
        let next = self.next_spare.fetch_add(1, Ordering::Relaxed);
        let Some(spare) = self.spares.get(next) else {
            return;
        };
        let retired = std::mem::replace(
            &mut self.endpoints.lock().expect("endpoint table lock")[endpoint],
            spare.clone(),
        );
        if let Some(instance) = self.deployment.instance(&retired) {
            for worker in 0..TCS {
                instance.clear_worker(worker);
            }
        }
    }

    fn endpoint(&self, index: usize) -> FunctionHandle {
        self.endpoints.lock().expect("endpoint table lock")[index].clone()
    }

    /// Every function deployed to serve traffic: endpoints and spares.
    fn serving_functions(&self) -> Vec<FunctionHandle> {
        let mut all = self.endpoints.lock().expect("endpoint table lock").clone();
        all.extend(self.spares.iter().cloned());
        all.sort_by_key(|f| f.id);
        all.dedup_by_key(|f| f.id);
        all
    }

    /// Serves `(model, input)` for `user` on `function`.  Untraced, one
    /// `Deployment::infer`; traced, the user lookup and the three public
    /// calls `infer` makes, as spans of `chain` on worker `worker`, sealing
    /// with a nonce stream seeded by `req`.
    fn infer(
        &self,
        chain: Option<&mut Chain<'_>>,
        (worker, req): (usize, u64),
        function: &FunctionHandle,
        (user, model, input): (usize, usize, usize),
    ) -> Result<(Vec<f32>, Class), String> {
        let features = &self.inputs[model][input];
        let model_id = &self.models[model];
        let lock = || {
            self.users[user]
                .read()
                .expect("a writer panicked holding a user")
        };
        let Some(chain) = chain else {
            return self
                .deployment
                .infer(&lock(), function, model_id, features)
                .map(|outcome| (outcome.prediction, Class::of(&outcome.report)))
                .map_err(|e| e.to_string());
        };
        let user = chain.span("client.user_lock", lock);
        infer_traced(
            chain,
            worker,
            &self.deployment,
            &user,
            function,
            model_id,
            features,
            self.seed ^ req.rotate_left(32),
        )
        .map(|(prediction, report)| (prediction, Class::of(&report)))
    }

    /// Routes and serves one request, then checks its prediction.
    fn request(
        &self,
        tracer: Option<&Tracer>,
        (sender, req, start_ns): (usize, u64, u64),
        (user, model, input): (usize, usize, usize),
    ) -> OpResult {
        let model_id = &self.models[model];
        let route = || {
            let endpoint = self
                .packer
                .lock()
                .expect("packer lock")
                .route(model_id, SimTime::from_nanos(start_ns));
            (endpoint, self.endpoint(endpoint))
        };
        let root = tracer.map_or(0, Tracer::reserve_id);
        let mut chain = tracer.map(|t| Chain::new(t, sender, root, req, start_ns));
        let (endpoint, function) = match chain.as_mut() {
            Some(chain) => chain.span("fnpacker.route", route),
            None => route(),
        };
        let served = self.infer(
            chain.as_mut(),
            (sender, req),
            &function,
            (user, model, input),
        );
        let done_ns = chain
            .as_ref()
            .map_or_else(|| self.clock.now_ns(), Chain::at_ns);
        let complete = || {
            let latency = SimDuration::from_nanos(done_ns - start_ns);
            let path = served
                .as_ref()
                .map_or("error", |(_, class)| class.span_name());
            self.packer.lock().expect("packer lock").complete(
                model_id,
                endpoint,
                SimTime::from_nanos(done_ns),
                latency,
                path,
            );
        };
        match chain.as_mut() {
            Some(chain) => chain.span("fnpacker.complete", complete),
            None => complete(),
        }
        match &served {
            Ok((prediction, _)) => {
                if !same_bits(prediction, &self.reference[model][input]) {
                    self.mismatches.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        OpResult {
            request: true,
            ok: served.is_ok(),
            root,
            done_ns,
        }
    }

    /// One KeyService write pair against the staged image: the owner grants
    /// `user` access to `model` on it, and the user adds a request key.
    fn write(
        &self,
        tracer: Option<&Tracer>,
        (sender, req, start_ns): (usize, u64, u64),
        (user, model): (usize, usize),
    ) -> OpResult {
        let model_id = &self.models[model];
        let grant = || {
            self.owner.lock().expect("owner lock").grant_access(
                &self.deployment,
                model_id,
                &self.staged,
                self.parties[user],
            )
        };
        let add_request_key = || {
            self.users[user]
                .write()
                .expect("a sender panicked holding a user")
                .authorize(&self.deployment, model_id, &self.staged)
        };
        let root = tracer.map_or(0, Tracer::reserve_id);
        let (ok, done_ns) = match tracer {
            Some(tracer) => {
                let mut chain = Chain::new(tracer, sender, root, req, start_ns);
                let granted = chain.span("keyservice.grant", grant).is_ok();
                let authorized = chain
                    .span("keyservice.add_req_key", add_request_key)
                    .is_ok();
                (granted && authorized, chain.at_ns())
            }
            None => {
                let ok = grant().is_ok() && add_request_key().is_ok();
                (ok, self.clock.now_ns())
            }
        };
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        OpResult {
            request: false,
            ok,
            root,
            done_ns,
        }
    }
}
