//! The enclave object: lifecycle, memory accounting and TCS-bound entry.
//!
//! An [`Enclave`] is created from a [`CodeIdentity`] and an [`EnclaveConfig`]
//! on a specific [`SgxPlatform`].  Creation commits the configured memory
//! against the node's EPC; the cluster simulator prices initialization
//! (Fig. 15 / Fig. 17) from [`EnclaveCostModel`](crate::EnclaveCostModel)
//! instead.  Threads "enter" the enclave by acquiring a [`TcsToken`]; the
//! number of simultaneous tokens is bounded by the configured TCS count,
//! mirroring SGX's thread-control structures.
//! Enclave-internal allocations are charged against the configured heap so
//! that model and runtime buffers cannot silently exceed the enclave size the
//! paper configures per model (Appendix D).

use crate::attest::{AttestationAuthority, Quote};
use crate::epc::OwnedEpcReservation;
use crate::error::EnclaveError;
use crate::measurement::{CodeIdentity, Measurement};
use crate::platform::SgxPlatform;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Build-time configuration of an enclave instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnclaveConfig {
    /// Total enclave memory (heap + code + per-TCS stacks) committed at
    /// launch.  The paper sizes this per model/framework combination
    /// (Appendix D), e.g. `0x23000000` (560 MB) for TVM-RSNET.
    pub enclave_bytes: u64,
    /// Number of TCSs, i.e. the maximum number of threads concurrently inside
    /// the enclave (the paper's "concurrency level", 1–8).
    pub tcs_count: usize,
}

impl EnclaveConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `tcs_count` is zero or `enclave_bytes` is zero.
    #[must_use]
    pub fn new(enclave_bytes: u64, tcs_count: usize) -> Self {
        assert!(tcs_count > 0, "an enclave needs at least one TCS");
        assert!(enclave_bytes > 0, "an enclave needs memory");
        EnclaveConfig {
            enclave_bytes,
            tcs_count,
        }
    }
}

struct TcsShared {
    in_use: AtomicUsize,
    capacity: usize,
}

/// A token representing one thread's presence inside the enclave (one TCS
/// slot).  Dropping the token releases the slot.
pub struct TcsToken {
    shared: Arc<TcsShared>,
}

impl std::fmt::Debug for TcsToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcsToken({}/{} in use)",
            self.shared.in_use.load(Ordering::Relaxed),
            self.shared.capacity
        )
    }
}

impl Drop for TcsToken {
    fn drop(&mut self) {
        self.shared.in_use.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A heap allocation inside the enclave; dropping it returns the bytes to the
/// enclave heap.
pub struct HeapAllocation {
    bytes: u64,
    heap_used: Arc<AtomicU64>,
}

impl HeapAllocation {
    /// Size of the allocation in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for HeapAllocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HeapAllocation({} bytes)", self.bytes)
    }
}

impl Drop for HeapAllocation {
    fn drop(&mut self) {
        self.heap_used.fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

/// A launched enclave.
pub struct Enclave {
    identity: CodeIdentity,
    measurement: Measurement,
    config: EnclaveConfig,
    platform_id: String,
    authority: Arc<AttestationAuthority>,
    tcs: Arc<TcsShared>,
    heap_used: Arc<AtomicU64>,
    destroyed: AtomicBool,
    // Keeps the EPC pages committed for the lifetime of the enclave.
    _epc: OwnedEpcReservation,
    // Statistics.
    ecalls_served: AtomicU64,
    quotes_generated: AtomicU64,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("name", &self.identity.name)
            .field("measurement", &self.measurement)
            .field("bytes", &self.config.enclave_bytes)
            .field("tcs", &self.config.tcs_count)
            .field("platform", &self.platform_id)
            .finish()
    }
}

impl Enclave {
    /// Launches an enclave on `platform`, committing its memory against the
    /// node's EPC.
    pub fn launch(
        platform: &SgxPlatform,
        authority: &Arc<AttestationAuthority>,
        identity: CodeIdentity,
        config: EnclaveConfig,
    ) -> Result<Self, EnclaveError> {
        let reservation = OwnedEpcReservation::reserve(platform.epc(), config.enclave_bytes)?;
        let measurement = identity.measure();
        Ok(Enclave {
            identity,
            measurement,
            tcs: Arc::new(TcsShared {
                in_use: AtomicUsize::new(0),
                capacity: config.tcs_count,
            }),
            heap_used: Arc::new(AtomicU64::new(0)),
            destroyed: AtomicBool::new(false),
            platform_id: platform.platform_id.clone(),
            authority: Arc::clone(authority),
            config,
            _epc: reservation,
            ecalls_served: AtomicU64::new(0),
            quotes_generated: AtomicU64::new(0),
        })
    }

    /// The enclave's measurement (`MRENCLAVE`).
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The code identity the enclave was launched from.
    #[must_use]
    pub fn identity(&self) -> &CodeIdentity {
        &self.identity
    }

    /// The launch configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    /// Identifier of the hosting platform.
    #[must_use]
    pub fn platform_id(&self) -> &str {
        &self.platform_id
    }

    /// Enters the enclave on a free TCS, or fails if all TCSs are busy.
    ///
    /// The returned token must be held for the duration of the ECALL; SeMIRT
    /// binds one token per worker thread.
    pub fn enter(&self) -> Result<TcsToken, EnclaveError> {
        if self.destroyed.load(Ordering::SeqCst) {
            return Err(EnclaveError::EnclaveDestroyed);
        }
        // Optimistically claim a slot, backing out on overflow.
        let previous = self.tcs.in_use.fetch_add(1, Ordering::SeqCst);
        if previous >= self.tcs.capacity {
            self.tcs.in_use.fetch_sub(1, Ordering::SeqCst);
            return Err(EnclaveError::NoAvailableTcs {
                configured: self.tcs.capacity,
            });
        }
        self.ecalls_served.fetch_add(1, Ordering::Relaxed);
        Ok(TcsToken {
            shared: Arc::clone(&self.tcs),
        })
    }

    /// Number of threads currently inside the enclave.
    #[must_use]
    pub fn threads_inside(&self) -> usize {
        self.tcs.in_use.load(Ordering::SeqCst)
    }

    /// Total ECALLs served since launch.
    #[must_use]
    pub fn ecalls_served(&self) -> u64 {
        self.ecalls_served.load(Ordering::Relaxed)
    }

    /// Allocates `bytes` from the enclave heap (e.g. the decrypted model
    /// buffer or a per-thread runtime buffer).
    pub fn allocate(&self, bytes: u64) -> Result<HeapAllocation, EnclaveError> {
        if self.destroyed.load(Ordering::SeqCst) {
            return Err(EnclaveError::EnclaveDestroyed);
        }
        let current = self.heap_used.fetch_add(bytes, Ordering::SeqCst);
        if current + bytes > self.config.enclave_bytes {
            self.heap_used.fetch_sub(bytes, Ordering::SeqCst);
            return Err(EnclaveError::HeapExhausted {
                requested: bytes,
                available: self.config.enclave_bytes.saturating_sub(current),
            });
        }
        Ok(HeapAllocation {
            bytes,
            heap_used: Arc::clone(&self.heap_used),
        })
    }

    /// Bytes currently allocated from the enclave heap.
    #[must_use]
    pub fn heap_used(&self) -> u64 {
        self.heap_used.load(Ordering::SeqCst)
    }

    /// Peak memory footprint of the enclave as committed at launch.
    #[must_use]
    pub fn committed_bytes(&self) -> u64 {
        self.config.enclave_bytes
    }

    /// Generates an attestation quote binding the enclave's measurement to
    /// `report_data`.
    pub fn quote(&self, report_data: [u8; 64]) -> Result<Quote, EnclaveError> {
        if self.destroyed.load(Ordering::SeqCst) {
            return Err(EnclaveError::EnclaveDestroyed);
        }
        let quote = self
            .authority
            .quote(&self.platform_id, self.measurement, report_data)?;
        self.quotes_generated.fetch_add(1, Ordering::Relaxed);
        Ok(quote)
    }

    /// Number of quotes generated since launch.
    #[must_use]
    pub fn quotes_generated(&self) -> u64 {
        self.quotes_generated.load(Ordering::Relaxed)
    }

    /// Destroys the enclave: all subsequent entries and allocations fail and
    /// the EPC pages are released when the value is dropped.
    pub fn destroy(&self) {
        self.destroyed.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::AttestationScheme;
    use crate::platform::SgxPlatform;

    const MB: u64 = 1024 * 1024;

    fn setup() -> (SgxPlatform, Arc<AttestationAuthority>) {
        let platform = SgxPlatform::paper_sgx2_node("node-1");
        let authority = AttestationAuthority::new(7);
        authority.register_platform("node-1", AttestationScheme::EcdsaDcap);
        (platform, authority)
    }

    fn identity() -> CodeIdentity {
        CodeIdentity::new("semirt-test", b"code".to_vec(), "1.0").with_setting("tcs_count", 4)
    }

    fn launch(platform: &SgxPlatform, authority: &Arc<AttestationAuthority>) -> Enclave {
        Enclave::launch(
            platform,
            authority,
            identity(),
            EnclaveConfig::new(128 * MB, 4),
        )
        .unwrap()
    }

    #[test]
    fn launch_commits_epc_until_the_enclave_drops() {
        let (platform, authority) = setup();
        let enclave = Enclave::launch(
            &platform,
            &authority,
            identity(),
            EnclaveConfig::new(256 * MB, 2),
        )
        .unwrap();
        assert_eq!(platform.epc().used_bytes(), 256 * MB);
        assert_eq!(enclave.committed_bytes(), 256 * MB);
        drop(enclave);
        assert_eq!(platform.epc().used_bytes(), 0);
    }

    #[test]
    fn tcs_pool_bounds_concurrent_entries() {
        let (platform, authority) = setup();
        let enclave = launch(&platform, &authority);
        let t1 = enclave.enter().unwrap();
        let _t2 = enclave.enter().unwrap();
        let _t3 = enclave.enter().unwrap();
        let _t4 = enclave.enter().unwrap();
        assert_eq!(enclave.threads_inside(), 4);
        let err = enclave.enter().unwrap_err();
        assert!(matches!(
            err,
            EnclaveError::NoAvailableTcs { configured: 4 }
        ));
        drop(t1);
        assert_eq!(enclave.threads_inside(), 3);
        let _t5 = enclave.enter().unwrap();
        assert_eq!(enclave.ecalls_served(), 5);
    }

    #[test]
    fn heap_allocations_are_bounded_by_enclave_size() {
        let (platform, authority) = setup();
        let enclave = launch(&platform, &authority);
        let model_buffer = enclave.allocate(100 * MB).unwrap();
        assert_eq!(enclave.heap_used(), 100 * MB);
        let err = enclave.allocate(50 * MB).unwrap_err();
        assert!(matches!(err, EnclaveError::HeapExhausted { .. }));
        drop(model_buffer);
        assert_eq!(enclave.heap_used(), 0);
        let _ok = enclave.allocate(120 * MB).unwrap();
    }

    #[test]
    fn quotes_bind_measurement_and_report_data() {
        let (platform, authority) = setup();
        let enclave = launch(&platform, &authority);
        let quote = enclave.quote([9u8; 64]).unwrap();
        assert_eq!(quote.measurement, enclave.measurement());
        assert_eq!(quote.report_data, [9u8; 64]);
        authority.verifier().verify(&quote).unwrap();
        assert_eq!(enclave.quotes_generated(), 1);
    }

    #[test]
    fn destroyed_enclave_rejects_everything() {
        let (platform, authority) = setup();
        let enclave = launch(&platform, &authority);
        enclave.destroy();
        assert!(matches!(
            enclave.enter(),
            Err(EnclaveError::EnclaveDestroyed)
        ));
        assert!(matches!(
            enclave.allocate(1),
            Err(EnclaveError::EnclaveDestroyed)
        ));
        assert!(matches!(
            enclave.quote([0u8; 64]),
            Err(EnclaveError::EnclaveDestroyed)
        ));
    }

    #[test]
    fn same_code_same_measurement_across_nodes() {
        let (platform_a, authority) = setup();
        let platform_b = SgxPlatform::paper_sgx2_node("node-2");
        authority.register_platform("node-2", AttestationScheme::EcdsaDcap);
        let enclave_a = launch(&platform_a, &authority);
        let enclave_b = launch(&platform_b, &authority);
        // Identity checking is unaffected by which server the function lands
        // on (paper Appendix B).
        assert_eq!(enclave_a.measurement(), enclave_b.measurement());
    }

    #[test]
    fn config_validation() {
        let result = std::panic::catch_unwind(|| EnclaveConfig::new(0, 1));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| EnclaveConfig::new(1024, 0));
        assert!(result.is_err());
    }
}
