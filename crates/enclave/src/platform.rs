//! SGX platform description: hardware generation, EPC size and the per-node
//! attestation facilities.
//!
//! The paper evaluates on two hardware generations: SGX1 (Xeon W-1290P,
//! 128 MB EPC, EPID attestation through the Intel Attestation Service) and
//! SGX2 (Xeon Gold 5317, 64 GB EPC, ECDSA/DCAP attestation through a local
//! PCCS).  [`SgxPlatform`] captures exactly the parameters that influence the
//! experiments.

use crate::epc::EpcManager;
use std::sync::Arc;

/// Hardware generation of the SGX platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SgxVersion {
    /// First-generation SGX: small EPC (128 MB), EPID attestation via the
    /// Intel Attestation Service over the Internet.
    Sgx1,
    /// Second-generation (scalable) SGX: large EPC (tens of GB), ECDSA
    /// attestation via a locally hosted PCCS.
    Sgx2,
}

impl SgxVersion {
    /// Default usable EPC size for this generation, matching the paper's
    /// cluster configuration (§VI setup: 128 MB for SGX1, 64 GB for SGX2).
    #[must_use]
    pub fn default_epc_bytes(self) -> u64 {
        match self {
            SgxVersion::Sgx1 => 128 * 1024 * 1024,
            SgxVersion::Sgx2 => 64 * 1024 * 1024 * 1024,
        }
    }
}

/// A single machine's SGX capability: generation, EPC, physical cores, and a
/// platform identity used when signing quotes.
#[derive(Clone, Debug)]
pub struct SgxPlatform {
    /// Hardware generation.
    pub version: SgxVersion,
    /// Number of physical cores on the node (the paper's SGX2 nodes have 12).
    pub physical_cores: usize,
    /// Stable platform identifier (stands in for the CPU's provisioned keys).
    pub platform_id: String,
    epc: Arc<EpcManager>,
}

impl SgxPlatform {
    /// Creates a platform with the generation's default EPC size.
    #[must_use]
    pub fn new(version: SgxVersion, physical_cores: usize, platform_id: impl Into<String>) -> Self {
        Self::with_epc_bytes(
            version,
            physical_cores,
            platform_id,
            version.default_epc_bytes(),
        )
    }

    /// Creates a platform with an explicit EPC size (used to study EPC
    /// pressure, e.g. Fig. 11b).
    #[must_use]
    pub fn with_epc_bytes(
        version: SgxVersion,
        physical_cores: usize,
        platform_id: impl Into<String>,
        epc_bytes: u64,
    ) -> Self {
        assert!(physical_cores > 0, "a node needs at least one core");
        SgxPlatform {
            version,
            physical_cores,
            platform_id: platform_id.into(),
            epc: Arc::new(EpcManager::new(epc_bytes)),
        }
    }

    /// The paper's SGX2 evaluation node: Xeon Gold 5317, 12 physical cores,
    /// 64 GB EPC.
    #[must_use]
    pub fn paper_sgx2_node(platform_id: impl Into<String>) -> Self {
        Self::new(SgxVersion::Sgx2, 12, platform_id)
    }

    /// Shared handle to this node's EPC manager.
    #[must_use]
    pub fn epc(&self) -> Arc<EpcManager> {
        Arc::clone(&self.epc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_epc_sizes_match_paper_setup() {
        assert_eq!(SgxVersion::Sgx1.default_epc_bytes(), 128 * 1024 * 1024);
        assert_eq!(
            SgxVersion::Sgx2.default_epc_bytes(),
            64 * 1024 * 1024 * 1024
        );
    }

    #[test]
    fn paper_nodes_have_expected_shape() {
        let sgx2 = SgxPlatform::paper_sgx2_node("node-1");
        assert_eq!(sgx2.version, SgxVersion::Sgx2);
        assert_eq!(sgx2.physical_cores, 12);
        assert_eq!(sgx2.epc().capacity_bytes(), 64 * 1024 * 1024 * 1024);
    }

    #[test]
    fn epc_handle_is_shared() {
        let platform = SgxPlatform::paper_sgx2_node("n");
        let a = platform.epc();
        let b = platform.epc();
        let guard = a.reserve(1024).unwrap();
        assert_eq!(b.used_bytes(), 1024);
        drop(guard);
        assert_eq!(b.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SgxPlatform::new(SgxVersion::Sgx2, 0, "bad");
    }
}
