//! The trust plane as a queued service: key provisioning inside the cluster
//! simulator.
//!
//! Every SeSeMI cold path must reach the KeyService enclave for key
//! provisioning before the sandbox can serve (§IV, Algorithm 1).  The
//! simulator historically folded that round-trip into the flat
//! `sandbox_cold_start`; [`KeyServiceConfig`] makes it explicit — a pool of
//! `replicas` KeyService enclaves, each with `tcs_per_replica` TCS-bound
//! service slots and a per-request `provision_time`, served FIFO per
//! replica.  Cold-path latency then becomes a function of KeyService *load*:
//! a cold-start storm queues behind the trust plane exactly as it would in a
//! real deployment.
//!
//! The replica pool exists only in the simulator: the real path runs one
//! KeyService enclave, as the paper does.  Requests shard to a home replica
//! by user (`user_index % replicas`); when the home replica is dead the
//! provision walks the deterministic failover order (next alive index,
//! wrapping).  A
//! [`Fault::KeyServiceCrash`](crate::cluster::Fault) kills a replica
//! mid-run: provisions in flight on the victim re-resolve against a
//! surviving peer (counted `keyservice_failovers`), and if no replica
//! survives the affected sandboxes never become ready — their parked
//! requests are counted `dropped` at the horizon, so conservation holds
//! through a total trust-plane outage too.
//!
//! The default config (`replicas: 1`, `provision_time: 0`) disables the
//! model entirely: [`KeyServiceConfig::enabled`] is false and the dispatch
//! path is byte-identical to the simulator before this layer existed —
//! pinned by the E1–E5 goldens.

use sesemi_platform::SandboxId;
use sesemi_sim::{SimDuration, SimTime};

/// KeyService provisioning model for the cluster simulator.
///
/// Mirrors [`BatchingConfig`](crate::cluster::BatchingConfig)'s
/// off-by-default contract: the default (`replicas: 1`,
/// `provision_time: 0`) keeps provisioning un-modeled and the simulator
/// byte-identical to its pre-trust-plane outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyServiceConfig {
    /// Number of KeyService replicas (≥ 1).  Requests shard to
    /// `user_index % replicas` and fail over to the next alive index.
    pub replicas: usize,
    /// Per-request provisioning service time.  `ZERO` disables the queued
    /// model entirely (cold paths keep the flat `sandbox_cold_start`).
    pub provision_time: SimDuration,
    /// TCS-bound concurrency per replica: how many provisions one replica
    /// serves simultaneously; excess arrivals queue FIFO.
    pub tcs_per_replica: usize,
}

impl Default for KeyServiceConfig {
    fn default() -> Self {
        KeyServiceConfig {
            replicas: 1,
            provision_time: SimDuration::ZERO,
            tcs_per_replica: 8,
        }
    }
}

impl KeyServiceConfig {
    /// A queued KeyService pool of `replicas` enclaves, each serving up to
    /// `tcs_per_replica` concurrent provisions of `provision_time` each.
    ///
    /// # Panics
    /// Panics if `replicas` or `tcs_per_replica` is zero.
    #[must_use]
    pub fn queued(replicas: usize, provision_time: SimDuration, tcs_per_replica: usize) -> Self {
        assert!(
            replicas >= 1,
            "the KeyService pool has at least one replica"
        );
        assert!(
            tcs_per_replica >= 1,
            "each KeyService replica has at least one TCS"
        );
        KeyServiceConfig {
            replicas,
            provision_time,
            tcs_per_replica,
        }
    }

    /// Whether provisioning is modeled at all.  `false` (the default)
    /// reproduces the pre-trust-plane simulator byte for byte.
    #[must_use]
    pub fn enabled(self) -> bool {
        self.provision_time > SimDuration::ZERO
    }
}

/// A provision still being served by a replica, tracked so a crash can
/// re-resolve it against a surviving peer.
#[derive(Clone, Copy, Debug)]
struct InflightProvision {
    sandbox: SandboxId,
    user_index: usize,
    replica: usize,
    done: SimTime,
}

/// Runtime state of the simulated KeyService pool: per-replica TCS slots
/// (each slot records when it next frees), liveness flags, and the
/// in-flight provisions a crash must re-resolve.
#[derive(Debug)]
pub(super) struct KeyServiceSim {
    config: KeyServiceConfig,
    /// `slots[replica][tcs]` — the time that service slot frees.
    slots: Vec<Vec<SimTime>>,
    alive: Vec<bool>,
    inflight: Vec<InflightProvision>,
}

impl KeyServiceSim {
    pub(super) fn new(config: KeyServiceConfig) -> Self {
        KeyServiceSim {
            slots: vec![vec![SimTime::ZERO; config.tcs_per_replica]; config.replicas],
            alive: vec![true; config.replicas],
            inflight: Vec::new(),
            config,
        }
    }

    pub(super) fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// The replica a user's provision is served from: the home shard
    /// (`user_index % replicas`), or — when the home replica is dead — the
    /// next alive index in deterministic wrap-around order.  `None` during a
    /// total outage.
    fn route(&self, user_index: usize) -> Option<usize> {
        let n = self.config.replicas;
        let home = user_index % n;
        (0..n)
            .map(|step| (home + step) % n)
            .find(|r| self.alive[*r])
    }

    /// Serves one provisioning request arriving at `at` for `user_index`'s
    /// home replica: picks the earliest-free TCS slot (FIFO — earlier
    /// arrivals claimed earlier slot times), occupies it for
    /// `provision_time`, and returns `(completion time, queue wait)`.
    /// `None` when every replica is dead.
    pub(super) fn provision(
        &mut self,
        sandbox: SandboxId,
        user_index: usize,
        at: SimTime,
    ) -> Option<(SimTime, SimDuration)> {
        let replica = self.route(user_index)?;
        let slot = self.slots[replica]
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("replicas have at least one TCS slot");
        let start = self.slots[replica][slot].max(at);
        let done = start + self.config.provision_time;
        self.slots[replica][slot] = done;
        self.inflight.push(InflightProvision {
            sandbox,
            user_index,
            replica,
            done,
        });
        Some((done, start - at))
    }

    /// Drops the in-flight record of a finished (or evicted) sandbox's
    /// provision.  No-op when the sandbox has none — warm dispatches and
    /// disabled configs never register one.
    pub(super) fn complete(&mut self, sandbox: SandboxId) {
        self.inflight.retain(|p| p.sandbox != sandbox);
    }

    /// Kills a replica at `now`.  Returns `None` when the crash is a no-op
    /// (provisioning not modeled, replica index out of range, or already
    /// dead); otherwise returns the in-flight provisions the victim was
    /// still serving as `(sandbox, user_index)` pairs, in provision order —
    /// the caller re-resolves each against a surviving peer.
    pub(super) fn crash(
        &mut self,
        replica: usize,
        now: SimTime,
    ) -> Option<Vec<(SandboxId, usize)>> {
        if !self.enabled() || replica >= self.config.replicas || !self.alive[replica] {
            return None;
        }
        self.alive[replica] = false;
        let victims: Vec<(SandboxId, usize)> = self
            .inflight
            .iter()
            .filter(|p| p.replica == replica && p.done > now)
            .map(|p| (p.sandbox, p.user_index))
            .collect();
        self.inflight
            .retain(|p| !(p.replica == replica && p.done > now));
        Some(victims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sandbox(id: u64) -> SandboxId {
        SandboxId(id)
    }

    #[test]
    fn the_default_config_disables_the_model() {
        let config = KeyServiceConfig::default();
        assert!(!config.enabled());
        assert_eq!(config.replicas, 1);
        let queued = KeyServiceConfig::queued(2, SimDuration::from_millis(50), 4);
        assert!(queued.enabled());
    }

    #[test]
    fn provisions_queue_fifo_behind_the_tcs_slots() {
        // One replica, one TCS, 100 ms service: three simultaneous arrivals
        // serialize — waits 0 / 100 / 200 ms.
        let mut sim = KeyServiceSim::new(KeyServiceConfig::queued(
            1,
            SimDuration::from_millis(100),
            1,
        ));
        let at = SimTime::from_secs(1);
        let (done0, wait0) = sim.provision(sandbox(0), 0, at).unwrap();
        let (done1, wait1) = sim.provision(sandbox(1), 1, at).unwrap();
        let (done2, wait2) = sim.provision(sandbox(2), 2, at).unwrap();
        assert_eq!(wait0, SimDuration::ZERO);
        assert_eq!(wait1, SimDuration::from_millis(100));
        assert_eq!(wait2, SimDuration::from_millis(200));
        assert_eq!(done0, at + SimDuration::from_millis(100));
        assert_eq!(done1, at + SimDuration::from_millis(200));
        assert_eq!(done2, at + SimDuration::from_millis(300));
    }

    #[test]
    fn users_shard_to_their_home_replica() {
        // Two replicas, one TCS each: users 0 and 2 share replica 0, user 1
        // rides replica 1 — so 0 and 2 queue behind each other while 1 does
        // not wait.
        let mut sim = KeyServiceSim::new(KeyServiceConfig::queued(
            2,
            SimDuration::from_millis(100),
            1,
        ));
        let at = SimTime::ZERO;
        let (_, wait0) = sim.provision(sandbox(0), 0, at).unwrap();
        let (_, wait1) = sim.provision(sandbox(1), 1, at).unwrap();
        let (_, wait2) = sim.provision(sandbox(2), 2, at).unwrap();
        assert_eq!(wait0, SimDuration::ZERO);
        assert_eq!(wait1, SimDuration::ZERO);
        assert_eq!(wait2, SimDuration::from_millis(100));
    }

    #[test]
    fn a_crash_fails_over_in_deterministic_order_and_reports_inflight_victims() {
        let mut sim = KeyServiceSim::new(KeyServiceConfig::queued(
            3,
            SimDuration::from_millis(100),
            1,
        ));
        // User 1's home is replica 1; its provision is in flight when the
        // replica dies.
        let at = SimTime::ZERO;
        let (done, _) = sim.provision(sandbox(7), 1, at).unwrap();
        assert_eq!(done, at + SimDuration::from_millis(100));
        let victims = sim
            .crash(1, at + SimDuration::from_millis(50))
            .expect("alive replica crashes");
        assert_eq!(victims, vec![(sandbox(7), 1)]);
        // Re-resolution walks to the next alive index: 1 is dead → 2.
        assert_eq!(sim.route(1), Some(2));
        // A second crash of the same replica is a no-op.
        assert!(sim.crash(1, at + SimDuration::from_millis(60)).is_none());
        // Out-of-range targets are data, not programming errors.
        assert!(sim.crash(9, at).is_none());
    }

    #[test]
    fn completed_provisions_are_not_crash_victims() {
        let mut sim = KeyServiceSim::new(KeyServiceConfig::queued(
            1,
            SimDuration::from_millis(100),
            1,
        ));
        let (done, _) = sim.provision(sandbox(3), 0, SimTime::ZERO).unwrap();
        // Crash after the provision finished: no victims, and the pool is
        // now a total outage — further provisions fail.
        let victims = sim.crash(0, done).expect("alive replica crashes");
        assert!(victims.is_empty());
        assert!(sim.provision(sandbox(4), 0, done).is_none());
    }

    #[test]
    fn complete_clears_the_inflight_record() {
        let mut sim = KeyServiceSim::new(KeyServiceConfig::queued(
            2,
            SimDuration::from_millis(100),
            1,
        ));
        sim.provision(sandbox(5), 0, SimTime::ZERO).unwrap();
        sim.complete(sandbox(5));
        let victims = sim.crash(0, SimTime::ZERO).expect("alive replica");
        assert!(victims.is_empty());
    }
}
