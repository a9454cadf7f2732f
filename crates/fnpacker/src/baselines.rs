//! The multi-model deployment baselines of §IV-C and §VI-D, and a common
//! [`Router`] interface so the experiment harness can swap strategies.
//!
//! * **One-to-one** — every model gets its own endpoint.  Good for hot
//!   models, wasteful for infrequent ones (each pays its own cold starts).
//! * **All-in-one** — a single endpoint serves all models; sandboxes swap
//!   models back and forth when requests interleave (Fig. 7), inflating
//!   latency by the model-switch cost.
//! * **FnPacker** — the adaptive policy of [`crate::FnPacker`].

use crate::packer::FnPacker;
use crate::pool::FnPool;
use sesemi_inference::ModelId;
use sesemi_platform::ActionName;
use sesemi_sim::{SimDuration, SimTime};

/// A routing strategy for multi-model serving.
///
/// A router names models and endpoints by index: a model by its position in
/// the [`FnPool`] the router was built from, an endpoint by its position in
/// [`Router::endpoints`].  A caller that numbers its models in pool order
/// and its deployed actions in endpoint order routes without touching a
/// name.
pub trait Router {
    /// Routes a request for the pool's model at index `model` at `now` and
    /// returns the index of the endpoint to invoke.
    ///
    /// # Panics
    /// Panics if `model` is not an index into the pool's models.
    fn route(&mut self, model: usize, now: SimTime) -> usize;

    /// Records a completed request for model `model` on endpoint `endpoint`
    /// (used by adaptive strategies).
    fn complete(
        &mut self,
        model: usize,
        endpoint: usize,
        now: SimTime,
        latency: SimDuration,
        path: &str,
    );

    /// Unwinds a routed request that was refused by an admission policy and
    /// will never complete.  Stateless strategies ignore it; adaptive ones
    /// release the pending slot [`Router::route`] took without recording a
    /// completion or latency sample.
    fn cancel(&mut self, model: usize, endpoint: usize) {
        let _ = (model, endpoint);
    }

    /// Human-readable strategy name for experiment output.
    fn name(&self) -> &'static str;

    /// The endpoint actions this strategy needs deployed, in endpoint-index
    /// order.
    fn endpoints(&self) -> Vec<ActionName>;
}

/// Which multi-model strategy to use (Tables III and IV compare all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutingStrategy {
    /// One endpoint per model.
    OneToOne,
    /// A single endpoint for every model.
    AllInOne,
    /// The FnPacker policy.
    FnPacker,
}

impl RoutingStrategy {
    /// All strategies, in the order the paper's tables list them.
    pub const ALL: [RoutingStrategy; 3] = [
        RoutingStrategy::AllInOne,
        RoutingStrategy::OneToOne,
        RoutingStrategy::FnPacker,
    ];

    /// Label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RoutingStrategy::OneToOne => "One-to-one",
            RoutingStrategy::AllInOne => "All-in-one",
            RoutingStrategy::FnPacker => "FnPacker",
        }
    }

    /// Builds a router of this strategy for the given pool.
    #[must_use]
    pub fn build(self, pool: &FnPool) -> Box<dyn Router> {
        match self {
            RoutingStrategy::OneToOne => Box::new(OneToOneRouter::new(pool)),
            RoutingStrategy::AllInOne => Box::new(AllInOneRouter::new(pool)),
            RoutingStrategy::FnPacker => Box::new(FnPackerRouter::new(pool.clone())),
        }
    }
}

/// One endpoint per model: endpoint `i` serves the pool's model `i`.
#[derive(Debug)]
pub struct OneToOneRouter {
    endpoints: Vec<ActionName>,
}

impl OneToOneRouter {
    /// Creates the router for a pool.
    #[must_use]
    pub fn new(pool: &FnPool) -> Self {
        let endpoints = pool
            .models
            .iter()
            .map(|m| ActionName::new(format!("{}-{}", pool.name, m)))
            .collect();
        OneToOneRouter { endpoints }
    }
}

impl Router for OneToOneRouter {
    fn route(&mut self, model: usize, _now: SimTime) -> usize {
        assert!(
            model < self.endpoints.len(),
            "model {model} is not deployed"
        );
        model
    }

    fn complete(
        &mut self,
        _model: usize,
        _endpoint: usize,
        _now: SimTime,
        _latency: SimDuration,
        _path: &str,
    ) {
    }

    fn name(&self) -> &'static str {
        "One-to-one"
    }

    fn endpoints(&self) -> Vec<ActionName> {
        self.endpoints.clone()
    }
}

/// A single endpoint for all models.
#[derive(Debug)]
pub struct AllInOneRouter {
    endpoint: ActionName,
}

impl AllInOneRouter {
    /// Creates the router for a pool.
    #[must_use]
    pub fn new(pool: &FnPool) -> Self {
        AllInOneRouter {
            endpoint: ActionName::new(format!("{}-all", pool.name)),
        }
    }
}

impl Router for AllInOneRouter {
    fn route(&mut self, _model: usize, _now: SimTime) -> usize {
        0
    }

    fn complete(
        &mut self,
        _model: usize,
        _endpoint: usize,
        _now: SimTime,
        _latency: SimDuration,
        _path: &str,
    ) {
    }

    fn name(&self) -> &'static str {
        "All-in-one"
    }

    fn endpoints(&self) -> Vec<ActionName> {
        vec![self.endpoint.clone()]
    }
}

/// Adapter exposing [`FnPacker`] through the [`Router`] interface.  The
/// packer's endpoint indices are the router's, and a model index names the
/// pool's model at that position.
#[derive(Debug)]
pub struct FnPackerRouter {
    packer: FnPacker,
    /// The pool's models, kept beside the packer so a route can lend one
    /// to it without a clone.
    models: Vec<ModelId>,
}

impl FnPackerRouter {
    /// Creates the adapter.
    #[must_use]
    pub fn new(pool: FnPool) -> Self {
        FnPackerRouter {
            models: pool.models.clone(),
            packer: FnPacker::new(pool),
        }
    }

    /// Access to the underlying packer (for statistics).
    #[must_use]
    pub fn packer(&self) -> &FnPacker {
        &self.packer
    }
}

impl Router for FnPackerRouter {
    fn route(&mut self, model: usize, now: SimTime) -> usize {
        self.packer.route(&self.models[model], now)
    }

    fn complete(
        &mut self,
        model: usize,
        endpoint: usize,
        now: SimTime,
        latency: SimDuration,
        path: &str,
    ) {
        self.packer
            .complete(&self.models[model], endpoint, now, latency, path);
    }

    fn cancel(&mut self, model: usize, endpoint: usize) {
        self.packer.cancel(&self.models[model], endpoint);
    }

    fn name(&self) -> &'static str {
        "FnPacker"
    }

    fn endpoints(&self) -> Vec<ActionName> {
        self.packer.pool().endpoint_actions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FnPool {
        FnPool::new(
            "p",
            vec![ModelId::new("m0"), ModelId::new("m1"), ModelId::new("m2")],
            768 * 1024 * 1024,
            2,
        )
    }

    #[test]
    fn one_to_one_gives_each_model_its_own_endpoint() {
        let mut router = OneToOneRouter::new(&pool());
        let e0 = router.route(0, SimTime::ZERO);
        let e1 = router.route(1, SimTime::ZERO);
        assert_ne!(e0, e1);
        assert_eq!(router.name(), "One-to-one");
        // Endpoint i is model i's, named after it.
        let endpoints = router.endpoints();
        assert_eq!(endpoints.len(), 3);
        assert_eq!(endpoints[e1].as_str(), "p-m1");
        // Routing is stable.
        assert_eq!(router.route(0, SimTime::from_secs(9)), e0);
    }

    #[test]
    #[should_panic(expected = "not deployed")]
    fn one_to_one_refuses_a_model_past_the_pool() {
        let _ = OneToOneRouter::new(&pool()).route(3, SimTime::ZERO);
    }

    #[test]
    fn all_in_one_uses_a_single_endpoint() {
        let mut router = AllInOneRouter::new(&pool());
        let e0 = router.route(0, SimTime::ZERO);
        let e1 = router.route(2, SimTime::ZERO);
        assert_eq!(e0, e1);
        assert_eq!(router.endpoints().len(), 1);
        assert_eq!(router.name(), "All-in-one");
    }

    #[test]
    fn strategy_builder_produces_the_right_router() {
        let pool = pool();
        for strategy in RoutingStrategy::ALL {
            let router = strategy.build(&pool);
            assert_eq!(router.name(), strategy.label());
        }
        assert_eq!(
            RoutingStrategy::FnPacker.build(&pool).endpoints().len(),
            pool.endpoint_count
        );
    }

    #[test]
    fn fnpacker_router_tracks_completions_through_the_adapter() {
        let mut router = FnPackerRouter::new(pool());
        let endpoint = router.route(0, SimTime::from_secs(1));
        assert_eq!(
            router.endpoints()[endpoint],
            router.packer().endpoint_action(endpoint),
            "the router's endpoint index is the packer's"
        );
        let pending = |router: &FnPackerRouter, model: &str| {
            router
                .packer()
                .model_stats(&ModelId::new(model))
                .map(|stats| stats.pending)
        };
        assert_eq!(pending(&router, "m0"), Some(1));
        assert_eq!(pending(&router, "zzz"), None);
        router.complete(
            0,
            endpoint,
            SimTime::from_secs(2),
            SimDuration::from_millis(400),
            "hot",
        );
        let stats = router.packer().model_stats(&ModelId::new("m0")).unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(pending(&router, "m0"), Some(0));
        // A cancelled route releases its pending slot without a completion.
        let endpoint = router.route(2, SimTime::from_secs(3));
        assert_eq!(pending(&router, "m2"), Some(1));
        router.cancel(2, endpoint);
        assert_eq!(pending(&router, "m2"), Some(0));
        let stats = router.packer().model_stats(&ModelId::new("m2")).unwrap();
        assert_eq!(stats.completed, 0);
    }
}
