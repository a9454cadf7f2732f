//! Actions (deployed serverless functions) and activation records.

use crate::config::PlatformConfig;
use sesemi_sim::{SimDuration, SimTime};
use std::fmt;

/// Name of a deployed action (an OpenWhisk "action" / function endpoint).
///
/// Interned behind an `Arc<str>`, so a clone is a refcount bump, not an
/// allocation.  `Eq` / `Hash` / `Ord` delegate to the underlying `str`, so
/// hashing or comparing a name still reads its bytes: the simulator's
/// per-request path carries an [`ActionId`] instead and meets a name only
/// where the router returns one.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionName(std::sync::Arc<str>);

impl ActionName {
    /// Creates an action name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ActionName(name.into().into())
    }

    /// String form.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ActionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ActionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActionName({})", self.0)
    }
}

impl From<&str> for ActionName {
    fn from(value: &str) -> Self {
        ActionName::new(value)
    }
}

/// Dense identifier of a registered action: its index in the order
/// [`Controller::register_action`](crate::Controller::register_action)
/// registered it.  The controller's per-action state is indexed by it, so
/// the per-request path neither hashes nor clones an [`ActionName`];
/// [`Controller::action_id`](crate::Controller::action_id) resolves a name
/// once, at the naming edge.  Only the controller mints ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub(crate) u32);

impl ActionId {
    /// The id as an index into per-action vectors.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Specification of a deployed action.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionSpec {
    /// The action's name (its HTTP endpoint identity).
    pub name: ActionName,
    /// Reference to the container image implementing the action (for SeSeMI
    /// functions this is the SeMIRT image).
    pub image: String,
    /// Memory budget per container, rounded to the 128 MB granularity.
    pub memory_budget_bytes: u64,
    /// Maximum number of concurrent activations per container (SeMIRT maps
    /// this to the enclave's TCS count; plain OpenWhisk actions use 1).
    pub container_concurrency: usize,
}

impl ActionSpec {
    /// Creates an action spec, rounding the memory budget up to the 128 MB
    /// provisioning granularity.
    ///
    /// # Panics
    /// Panics if `container_concurrency` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<ActionName>,
        image: impl Into<String>,
        requested_memory_bytes: u64,
        container_concurrency: usize,
    ) -> Self {
        Self::build(
            name.into(),
            image.into(),
            requested_memory_bytes,
            container_concurrency,
        )
    }

    /// Non-generic constructor.
    #[must_use]
    pub fn build(
        name: ActionName,
        image: String,
        requested_memory_bytes: u64,
        container_concurrency: usize,
    ) -> Self {
        assert!(container_concurrency > 0, "concurrency must be at least 1");
        ActionSpec {
            name,
            image,
            memory_budget_bytes: PlatformConfig::round_memory_budget(requested_memory_bytes),
            container_concurrency,
        }
    }
}

/// Unique identifier of one activation (one function invocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivationId(pub u64);

impl fmt::Display for ActivationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "activation-{}", self.0)
    }
}

/// The record OpenWhisk keeps for every activation; the basis of both latency
/// reporting and GB·second billing.
#[derive(Clone, Debug, PartialEq)]
pub struct ActivationRecord {
    /// Activation id.
    pub id: ActivationId,
    /// Action that was invoked.
    pub action: ActionId,
    /// When the platform received the request.
    pub submitted_at: SimTime,
    /// When a sandbox started executing it.
    pub started_at: SimTime,
    /// When the response was produced.
    pub completed_at: SimTime,
    /// Whether this activation caused a container cold start.
    pub cold_start: bool,
    /// Memory budget of the container that served it.
    pub memory_budget_bytes: u64,
}

impl ActivationRecord {
    /// End-to-end latency as observed by the client (queueing + execution).
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.submitted_at)
    }

    /// Execution duration billed by the platform.
    #[must_use]
    pub fn execution_time(&self) -> SimDuration {
        self.completed_at.duration_since(self.started_at)
    }

    /// GB·seconds billed for this activation (execution time × memory
    /// budget), the serverless pricing model referenced in §VI-C.
    #[must_use]
    pub fn gb_seconds(&self) -> f64 {
        self.execution_time().as_secs_f64() * self.memory_budget_bytes as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn action_spec_rounds_memory() {
        let spec = ActionSpec::build(
            ActionName::new("tvm-rsnet"),
            "sesemi/semirt:tvm".to_string(),
            560 * MB,
            4,
        );
        assert_eq!(spec.memory_budget_bytes, 640 * MB);
        assert_eq!(spec.container_concurrency, 4);
        assert_eq!(spec.name.as_str(), "tvm-rsnet");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_concurrency_is_rejected() {
        let _ = ActionSpec::build(ActionName::new("x"), "img".into(), MB, 0);
    }

    #[test]
    fn activation_record_latencies_and_billing() {
        let record = ActivationRecord {
            id: ActivationId(1),
            action: ActionId(0),
            submitted_at: SimTime::from_millis(1_000),
            started_at: SimTime::from_millis(1_250),
            completed_at: SimTime::from_millis(2_250),
            cold_start: true,
            memory_budget_bytes: 256 * MB,
        };
        assert_eq!(record.latency(), SimDuration::from_millis(1_250));
        assert_eq!(record.execution_time(), SimDuration::from_secs(1));
        let expected_gbs = 1.0 * (256.0 * 1024.0 * 1024.0) / 1e9;
        assert!((record.gb_seconds() - expected_gbs).abs() < 1e-9);
    }

    #[test]
    fn names_display_cleanly() {
        let name: ActionName = "fnpool-0".into();
        assert_eq!(name.to_string(), "fnpool-0");
        assert_eq!(ActivationId(7).to_string(), "activation-7");
    }
}
