//! Cost metering: GB·second accounting per action and cluster-wide memory /
//! sandbox-count time series (the data behind Fig. 14).

use crate::action::{ActionId, ActivationRecord};
use sesemi_sim::{GbSecondMeter, SimTime, TimeSeries};

/// Collects the cost and utilization metrics the paper reports in §VI-C.
#[derive(Debug, Default)]
pub struct Metering {
    /// Billed GB·s per action, indexed by [`ActionId`]; `None` until the
    /// action's first activation.
    per_action_gb_seconds: Vec<Option<f64>>,
    cluster_memory: GbSecondMeter,
    node_capacity: GbSecondMeter,
    memory_series: TimeSeries,
    sandbox_series: TimeSeries,
    serving_series: TimeSeries,
    node_series: TimeSeries,
    // Last value pushed to each cluster-state series.  The simulator records
    // cluster state after every event, but most events change nothing — a
    // million-request trace would otherwise pin millions of identical points
    // per series in memory.  Step series lose no information by skipping
    // repeats; the GB·s integrals run off `cluster_memory`, which still sees
    // every call.
    last_memory_point: Option<f64>,
    last_sandbox_point: Option<f64>,
    last_serving_point: Option<f64>,
    cold_starts: u64,
}

impl Metering {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed activation.
    pub fn record_activation(&mut self, record: &ActivationRecord) {
        if record.cold_start {
            self.cold_starts += 1;
        }
        let index = record.action.index();
        if self.per_action_gb_seconds.len() <= index {
            self.per_action_gb_seconds.resize(index + 1, None);
        }
        *self.per_action_gb_seconds[index].get_or_insert(0.0) += record.gb_seconds();
    }

    /// Records the cluster state at `now`: total memory committed to
    /// sandboxes, total sandbox count, and the number currently serving.
    /// Each series is a step function, so a point is pushed only when the
    /// value actually changed since the previous call — repeated identical
    /// observations coalesce into the one point that opened the step.
    pub fn record_cluster_state(
        &mut self,
        now: SimTime,
        committed_bytes: u64,
        total_sandboxes: usize,
        serving_sandboxes: usize,
    ) {
        self.cluster_memory.set_memory(now, committed_bytes);
        let memory_gb = committed_bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        if self.last_memory_point != Some(memory_gb) {
            self.memory_series.record(now, memory_gb);
            self.last_memory_point = Some(memory_gb);
        }
        let sandboxes = total_sandboxes as f64;
        if self.last_sandbox_point != Some(sandboxes) {
            self.sandbox_series.record(now, sandboxes);
            self.last_sandbox_point = Some(sandboxes);
        }
        let serving = serving_sandboxes as f64;
        if self.last_serving_point != Some(serving) {
            self.serving_series.record(now, serving);
            self.last_serving_point = Some(serving);
        }
    }

    /// Records a change in the provisioned node capacity (the invoker memory
    /// of every active or draining node) at `now` — the cost signal behind
    /// the elasticity experiments: a fixed pool pays its full capacity for
    /// the whole run, an autoscaled one only for the nodes it kept.
    pub fn record_node_capacity(&mut self, now: SimTime, provisioned_bytes: u64, nodes: usize) {
        self.node_capacity.set_memory(now, provisioned_bytes);
        self.node_series.record(now, nodes as f64);
    }

    /// GB·seconds of provisioned node capacity, integrated up to `end`.
    #[must_use]
    pub fn node_gb_seconds(&self, end: SimTime) -> f64 {
        self.node_capacity.clone().finish(end)
    }

    /// Provisioned node-count time series (one point per membership change).
    #[must_use]
    pub fn node_series(&self) -> &TimeSeries {
        &self.node_series
    }

    /// Per-action GB·second billing, as recorded by
    /// [`Metering::record_activation`]: one entry per action with at least
    /// one activation, in [`ActionId`] order.
    pub fn per_action_gb_seconds(&self) -> impl Iterator<Item = (ActionId, f64)> + '_ {
        self.per_action_gb_seconds
            .iter()
            .enumerate()
            .filter_map(|(index, gbs)| {
                let id = ActionId(u32::try_from(index).expect("action ids fit in u32"));
                gbs.map(|gbs| (id, gbs))
            })
    }

    /// Cluster-level GB·seconds computed as the integral of committed sandbox
    /// memory over time — the metric Fig. 14 reports ("the number of sandbox
    /// instances times the memory budget", integrated over the workload).
    #[must_use]
    pub fn cluster_gb_seconds(&self, end: SimTime) -> f64 {
        self.cluster_memory.clone().finish(end)
    }

    /// Memory (GB) over time.
    #[must_use]
    pub fn memory_series(&self) -> &TimeSeries {
        &self.memory_series
    }

    /// Total sandbox count over time.
    #[must_use]
    pub fn sandbox_series(&self) -> &TimeSeries {
        &self.sandbox_series
    }

    /// Actively-serving sandbox count over time.
    #[must_use]
    pub fn serving_series(&self) -> &TimeSeries {
        &self.serving_series
    }

    /// Consumes the meter and hands back the `(memory, sandbox, node)` time
    /// series without cloning them — a long trace records millions of points
    /// per series, and the result build is the last reader.
    #[must_use]
    pub fn into_series(self) -> (TimeSeries, TimeSeries, TimeSeries) {
        (self.memory_series, self.sandbox_series, self.node_series)
    }

    /// Number of activations that caused a cold start.
    #[must_use]
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    /// Peak committed memory observed, in bytes.
    #[must_use]
    pub fn peak_memory_bytes(&self) -> u64 {
        self.cluster_memory.peak_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActivationId;

    const GB: u64 = 1024 * 1024 * 1024;

    fn record(
        action: u32,
        start_ms: u64,
        end_ms: u64,
        cold: bool,
        memory: u64,
    ) -> ActivationRecord {
        ActivationRecord {
            id: ActivationId(start_ms),
            action: ActionId(action),
            submitted_at: SimTime::from_millis(start_ms),
            started_at: SimTime::from_millis(start_ms),
            completed_at: SimTime::from_millis(end_ms),
            cold_start: cold,
            memory_budget_bytes: memory,
        }
    }

    #[test]
    fn per_action_and_total_gb_seconds() {
        let mut metering = Metering::new();
        metering.record_activation(&record(0, 0, 1_000, true, GB));
        metering.record_activation(&record(0, 0, 2_000, false, GB));
        metering.record_activation(&record(2, 0, 500, false, 2 * GB));
        // Action 1 has no activation and so no entry.
        let billed: Vec<(ActionId, f64)> = metering.per_action_gb_seconds().collect();
        let [(ActionId(0), a), (ActionId(2), b)] = billed[..] else {
            panic!("expected entries for actions 0 and 2 only: {billed:?}")
        };
        assert!((a - 3.0 * 1.073741824).abs() < 1e-6, "a = {a}");
        assert!((b - 0.5 * 2.147483648).abs() < 1e-6, "b = {b}");
        assert_eq!(metering.cold_start_count(), 1);
    }

    #[test]
    fn cluster_memory_integration() {
        let mut metering = Metering::new();
        metering.record_cluster_state(SimTime::ZERO, 2 * GB, 2, 1);
        metering.record_cluster_state(SimTime::from_secs(10), 4 * GB, 4, 4);
        let total = metering.cluster_gb_seconds(SimTime::from_secs(20));
        // 2 GiB for 10 s + 4 GiB for 10 s = ~64.4 GB-s (GiB -> GB factor).
        assert!((total - (2.147483648 * 10.0 + 4.294967296 * 10.0)).abs() < 1e-6);
        assert_eq!(metering.peak_memory_bytes(), 4 * GB);
        assert_eq!(metering.memory_series().len(), 2);
        assert_eq!(metering.sandbox_series().len(), 2);
        assert_eq!(metering.serving_series().len(), 2);
    }

    #[test]
    fn repeated_cluster_states_coalesce_into_one_series_point() {
        let mut metering = Metering::new();
        // A burst of no-change observations (the common case: most simulator
        // events leave the cluster shape untouched) pins exactly one point.
        for second in 0..1_000 {
            metering.record_cluster_state(SimTime::from_secs(second), 2 * GB, 2, 1);
        }
        assert_eq!(metering.memory_series().len(), 1);
        assert_eq!(metering.sandbox_series().len(), 1);
        assert_eq!(metering.serving_series().len(), 1);
        // A change in any one signal extends only that series.
        metering.record_cluster_state(SimTime::from_secs(1_000), 2 * GB, 2, 2);
        assert_eq!(metering.memory_series().len(), 1);
        assert_eq!(metering.sandbox_series().len(), 1);
        assert_eq!(metering.serving_series().len(), 2);
        // The time-weighted memory integral still covers the whole span —
        // coalescing drops repeated points, not billed time.
        let total = metering.cluster_gb_seconds(SimTime::from_secs(2_000));
        assert!((total - 2.147483648 * 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn node_capacity_integration_tracks_membership_changes() {
        let mut metering = Metering::new();
        // Two 1-GiB nodes for 10 s, then scale-in to one for 10 s.
        metering.record_node_capacity(SimTime::ZERO, 2 * GB, 2);
        metering.record_node_capacity(SimTime::from_secs(10), GB, 1);
        let total = metering.node_gb_seconds(SimTime::from_secs(20));
        assert!((total - (2.147483648 * 10.0 + 1.073741824 * 10.0)).abs() < 1e-6);
        assert_eq!(metering.node_series().len(), 2);
        // A fixed pool of the same peak size would have paid 2 GiB for 20 s.
        assert!(total < 2.147483648 * 20.0);
    }
}
