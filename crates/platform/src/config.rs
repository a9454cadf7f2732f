//! Platform configuration (the paper's Table V).

use sesemi_sim::SimDuration;

/// Memory provisioning granularity used by existing cloud providers and by
/// the paper's container memory budgets (Table V: "multiple of 128MB").
pub const MEMORY_GRANULARITY_BYTES: u64 = 128 * 1024 * 1024;

/// Controller / invoker configuration, mirroring the OpenWhisk parameters of
/// Table V.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    /// Memory available to each invoker node for launching serverless
    /// instances (Table V: 1–64 GB on SGX2 nodes, 12.5 GB on SGX1 nodes).
    pub invoker_memory_bytes: u64,
    /// How long an idle container is kept warm before reclamation
    /// (Table V: 3 minutes).
    pub container_keep_alive: SimDuration,
    /// Latency of provisioning a new sandbox: pulling the (cached) container
    /// image and starting the container, i.e. Fig. 4's "sandbox
    /// initialization" stage, which the paper excludes from Fig. 9 because it
    /// is model-independent.
    pub sandbox_cold_start: SimDuration,
    /// Latency of dispatching a request from the platform proxy to a running
    /// sandbox (network hop inside the cluster).
    pub dispatch_overhead: SimDuration,
}

/// Table V's configuration for the paper's SGX2 nodes (64 GB invoker memory).
impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            invoker_memory_bytes: 64 * 1024 * 1024 * 1024,
            container_keep_alive: SimDuration::from_secs(180),
            sandbox_cold_start: SimDuration::from_millis(650),
            dispatch_overhead: SimDuration::from_millis(2),
        }
    }
}

impl PlatformConfig {
    /// Restricts the invoker memory, used by the multi-node evaluation to
    /// "configure the invoker memory such that the total number of enclave
    /// threads on a node never exceeds the number of physical cores" (§VI-C).
    #[must_use]
    pub fn with_invoker_memory(mut self, bytes: u64) -> Self {
        self.invoker_memory_bytes = bytes;
        self
    }

    /// Rounds a requested container memory budget up to the provisioning
    /// granularity (Table V: "the smallest multiple of 128MB that is required
    /// for a given model").
    #[must_use]
    pub fn round_memory_budget(requested_bytes: u64) -> u64 {
        requested_bytes.div_ceil(MEMORY_GRANULARITY_BYTES) * MEMORY_GRANULARITY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_5() {
        let config = PlatformConfig::default();
        assert_eq!(config.container_keep_alive, SimDuration::from_secs(180));
        assert_eq!(config.invoker_memory_bytes, 64 * 1024 * 1024 * 1024);
        assert!(config.sandbox_cold_start > SimDuration::ZERO);
    }

    #[test]
    fn memory_budgets_round_to_128mb_multiples() {
        const MB: u64 = 1024 * 1024;
        assert_eq!(PlatformConfig::round_memory_budget(1), 128 * MB);
        assert_eq!(PlatformConfig::round_memory_budget(128 * MB), 128 * MB);
        assert_eq!(PlatformConfig::round_memory_budget(128 * MB + 1), 256 * MB);
        // TVM-RSNET's 560 MB enclave rounds to 640 MB.
        assert_eq!(PlatformConfig::round_memory_budget(560 * MB), 640 * MB);
        // The paper's reported budgets: 256MB for TVM-DSNET-1, 384MB for
        // TVM-DSNET-4, 768MB for TVM-RSNET-1, 1536MB for TVM-RSNET-4 are all
        // multiples of 128 MB.
        for budget in [256u64, 384, 768, 1536] {
            assert_eq!(
                PlatformConfig::round_memory_budget(budget * MB),
                budget * MB
            );
        }
    }

    #[test]
    fn with_invoker_memory_overrides_capacity() {
        let config = PlatformConfig::default().with_invoker_memory(1024);
        assert_eq!(config.invoker_memory_bytes, 1024);
    }
}
