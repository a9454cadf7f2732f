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
use std::collections::HashMap;

/// A routing strategy for multi-model serving.
pub trait Router {
    /// Routes a request for `model` at `now` and returns the endpoint action
    /// to invoke.
    fn route(&mut self, model: &ModelId, now: SimTime) -> ActionName;

    /// Records a completed request (used by adaptive strategies).
    fn complete(
        &mut self,
        model: &ModelId,
        endpoint: &ActionName,
        now: SimTime,
        latency: SimDuration,
        path: &str,
    );

    /// Unwinds a routed request that was refused by an admission policy and
    /// will never complete.  Stateless strategies ignore it; adaptive ones
    /// release the pending slot [`Router::route`] took without recording a
    /// completion or latency sample.
    fn cancel(&mut self, model: &ModelId, endpoint: &ActionName) {
        let _ = (model, endpoint);
    }

    /// Human-readable strategy name for experiment output.
    fn name(&self) -> &'static str;

    /// The endpoint actions this strategy needs deployed.
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

/// One endpoint per model.
#[derive(Debug)]
pub struct OneToOneRouter {
    endpoints: HashMap<ModelId, ActionName>,
}

impl OneToOneRouter {
    /// Creates the router for a pool.
    #[must_use]
    pub fn new(pool: &FnPool) -> Self {
        let endpoints = pool
            .models
            .iter()
            .map(|m| (m.clone(), ActionName::new(format!("{}-{}", pool.name, m))))
            .collect();
        OneToOneRouter { endpoints }
    }
}

impl Router for OneToOneRouter {
    fn route(&mut self, model: &ModelId, _now: SimTime) -> ActionName {
        self.endpoints
            .get(model)
            .cloned()
            .unwrap_or_else(|| panic!("model {model} not deployed"))
    }

    fn complete(
        &mut self,
        _model: &ModelId,
        _endpoint: &ActionName,
        _now: SimTime,
        _latency: SimDuration,
        _path: &str,
    ) {
    }

    fn name(&self) -> &'static str {
        "One-to-one"
    }

    fn endpoints(&self) -> Vec<ActionName> {
        let mut endpoints: Vec<ActionName> = self.endpoints.values().cloned().collect();
        endpoints.sort();
        endpoints
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
    fn route(&mut self, _model: &ModelId, _now: SimTime) -> ActionName {
        self.endpoint.clone()
    }

    fn complete(
        &mut self,
        _model: &ModelId,
        _endpoint: &ActionName,
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

/// Adapter exposing [`FnPacker`] through the [`Router`] interface.
#[derive(Debug)]
pub struct FnPackerRouter {
    packer: FnPacker,
    action_to_index: HashMap<ActionName, usize>,
}

impl FnPackerRouter {
    /// Creates the adapter.
    #[must_use]
    pub fn new(pool: FnPool) -> Self {
        let action_to_index = pool
            .endpoint_actions()
            .into_iter()
            .enumerate()
            .map(|(i, a)| (a, i))
            .collect();
        FnPackerRouter {
            packer: FnPacker::new(pool),
            action_to_index,
        }
    }

    /// Access to the underlying packer (for statistics).
    #[must_use]
    pub fn packer(&self) -> &FnPacker {
        &self.packer
    }
}

impl Router for FnPackerRouter {
    fn route(&mut self, model: &ModelId, now: SimTime) -> ActionName {
        let index = self.packer.route(model, now);
        self.packer.endpoint_action(index)
    }

    fn complete(
        &mut self,
        model: &ModelId,
        endpoint: &ActionName,
        now: SimTime,
        latency: SimDuration,
        path: &str,
    ) {
        if let Some(index) = self.action_to_index.get(endpoint) {
            self.packer.complete(model, *index, now, latency, path);
        }
    }

    fn cancel(&mut self, model: &ModelId, endpoint: &ActionName) {
        if let Some(index) = self.action_to_index.get(endpoint) {
            self.packer.cancel(model, *index);
        }
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
        let e0 = router.route(&ModelId::new("m0"), SimTime::ZERO);
        let e1 = router.route(&ModelId::new("m1"), SimTime::ZERO);
        assert_ne!(e0, e1);
        assert_eq!(router.endpoints().len(), 3);
        assert_eq!(router.name(), "One-to-one");
        // Routing is stable.
        assert_eq!(router.route(&ModelId::new("m0"), SimTime::from_secs(9)), e0);
    }

    #[test]
    fn all_in_one_uses_a_single_endpoint() {
        let mut router = AllInOneRouter::new(&pool());
        let e0 = router.route(&ModelId::new("m0"), SimTime::ZERO);
        let e1 = router.route(&ModelId::new("m2"), SimTime::ZERO);
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
        let endpoint = router.route(&ModelId::new("m0"), SimTime::from_secs(1));
        let pending = |router: &FnPackerRouter, model: &str| {
            router
                .packer()
                .model_stats(&ModelId::new(model))
                .map(|stats| stats.pending)
        };
        assert_eq!(pending(&router, "m0"), Some(1));
        assert_eq!(pending(&router, "zzz"), None);
        router.complete(
            &ModelId::new("m0"),
            &endpoint,
            SimTime::from_secs(2),
            SimDuration::from_millis(400),
            "hot",
        );
        let stats = router.packer().model_stats(&ModelId::new("m0")).unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(pending(&router, "m0"), Some(0));
    }
}
