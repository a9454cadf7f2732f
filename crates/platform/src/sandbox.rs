//! Sandbox (container) instances.

use crate::action::ActionId;
use sesemi_sim::SimTime;
use std::fmt;

/// Unique identifier of a sandbox instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SandboxId(pub u64);

impl SandboxId {
    /// The id as an index into per-sandbox tables.  The controller hands
    /// ids out in order from zero, so such a table can be a slab.  An id
    /// past `usize` (on a 32-bit target) maps to `usize::MAX`, which no
    /// table reaches, rather than wrapping onto a live sandbox.
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Display for SandboxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sandbox-{}", self.0)
    }
}

/// Lifecycle state of a sandbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SandboxState {
    /// The container is being provisioned (image pull + start).  Requests may
    /// already be assigned to it; they wait for readiness.
    Starting,
    /// The container is up and can execute activations.
    Running,
}

/// A container instance hosting one action.
#[derive(Clone, Debug)]
pub struct Sandbox {
    /// Unique id.
    pub id: SandboxId,
    /// The action this container runs (its name is
    /// [`Controller::action`](crate::Controller::action)`(action).name`).
    pub action: ActionId,
    /// The invoker node hosting it.
    pub node: usize,
    /// Memory budget charged against the node.
    pub memory_bytes: u64,
    /// Maximum concurrent activations.
    pub concurrency_limit: usize,
    /// Lifecycle state.
    pub state: SandboxState,
    /// Number of activations currently executing (or assigned while
    /// starting).
    pub active: usize,
    /// When the container was created.
    pub created_at: SimTime,
    /// Last time an activation was assigned or finished — the keep-alive
    /// clock.
    pub last_used: SimTime,
    /// Total activations this sandbox has served (assigned).
    pub total_served: u64,
    /// Cold starts are counted once, on creation.
    pub was_cold_started: bool,
}

impl Sandbox {
    /// Creates a new (cold-starting) sandbox.
    #[must_use]
    pub fn new(
        id: SandboxId,
        action: ActionId,
        node: usize,
        memory_bytes: u64,
        concurrency_limit: usize,
        now: SimTime,
    ) -> Self {
        Sandbox {
            id,
            action,
            node,
            memory_bytes,
            concurrency_limit,
            state: SandboxState::Starting,
            active: 0,
            created_at: now,
            last_used: now,
            total_served: 0,
            was_cold_started: true,
        }
    }

    /// Whether this sandbox can accept one more activation right now.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.active < self.concurrency_limit
    }

    /// Whether the sandbox is idle (no activations in flight).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.active == 0
    }

    /// Whether the sandbox's keep-alive window has expired at `now`.
    #[must_use]
    pub fn keep_alive_expired(&self, now: SimTime, keep_alive: sesemi_sim::SimDuration) -> bool {
        self.is_idle() && now.duration_since(self.last_used) >= keep_alive
    }

    /// Assigns one activation to the sandbox.
    pub fn assign(&mut self, now: SimTime) {
        debug_assert!(self.has_free_slot(), "assigning to a full sandbox");
        self.active += 1;
        self.total_served += 1;
        self.last_used = now;
    }

    /// Marks one activation as finished.
    ///
    /// # Panics
    /// Panics if the sandbox has no active activation (caller bug).
    pub fn finish(&mut self, now: SimTime) {
        assert!(
            self.active > 0,
            "finishing an activation on an idle sandbox"
        );
        self.active -= 1;
        self.last_used = now;
    }

    /// Marks the container as started (cold start completed).
    pub fn mark_running(&mut self) {
        self.state = SandboxState::Running;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_sim::SimDuration;

    fn sandbox() -> Sandbox {
        Sandbox::new(
            SandboxId(1),
            ActionId(0),
            0,
            256 * 1024 * 1024,
            2,
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn new_sandboxes_start_cold_and_starting() {
        let s = sandbox();
        assert_eq!(s.state, SandboxState::Starting);
        assert!(s.was_cold_started);
        assert!(s.is_idle());
        assert!(s.has_free_slot());
        assert_eq!(s.to_owned().id.to_string(), "sandbox-1");
    }

    #[test]
    fn concurrency_slots_are_tracked() {
        let mut s = sandbox();
        s.assign(SimTime::from_secs(11));
        assert!(!s.is_idle());
        assert!(s.has_free_slot());
        s.assign(SimTime::from_secs(12));
        assert!(!s.has_free_slot());
        assert_eq!(s.total_served, 2);
        s.finish(SimTime::from_secs(13));
        assert!(s.has_free_slot());
        s.finish(SimTime::from_secs(14));
        assert!(s.is_idle());
        assert_eq!(s.last_used, SimTime::from_secs(14));
    }

    #[test]
    #[should_panic(expected = "idle sandbox")]
    fn finishing_on_idle_sandbox_panics() {
        let mut s = sandbox();
        s.finish(SimTime::from_secs(11));
    }

    #[test]
    fn keep_alive_expiry_requires_idleness_and_elapsed_time() {
        let mut s = sandbox();
        let keep_alive = SimDuration::from_secs(180);
        s.assign(SimTime::from_secs(20));
        // Busy sandboxes never expire.
        assert!(!s.keep_alive_expired(SimTime::from_secs(1_000), keep_alive));
        s.finish(SimTime::from_secs(30));
        assert!(!s.keep_alive_expired(SimTime::from_secs(100), keep_alive));
        assert!(s.keep_alive_expired(SimTime::from_secs(30 + 180), keep_alive));
    }

    #[test]
    fn mark_running_transitions_state() {
        let mut s = sandbox();
        s.mark_running();
        assert_eq!(s.state, SandboxState::Running);
    }
}
