//! Enclave Page Cache (EPC) accounting.
//!
//! All enclaves on a node draw their protected pages from a single EPC.  On
//! SGX1 the EPC is only 128 MB, so launching several model-serving enclaves
//! forces paging and slows everything down (paper Fig. 11b and Appendix C);
//! on SGX2 it is 64 GB and ceases to be the bottleneck (§VI-B: "the
//! performance bottleneck has shifted from memory to CPU").
//!
//! [`EpcManager`] tracks committed bytes and exposes a *pressure factor* that
//! the cost model multiplies into enclave-bound operations when the committed
//! total exceeds the physical EPC.

use crate::error::EnclaveError;
use parking_lot::Mutex;

/// Tracks EPC usage on one node.
#[derive(Debug)]
pub struct EpcManager {
    capacity: u64,
    used: Mutex<u64>,
}

impl EpcManager {
    /// Creates an EPC with the given capacity in bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        EpcManager {
            capacity,
            used: Mutex::new(0),
        }
    }

    /// Total EPC capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Currently committed bytes (may exceed capacity: SGX pages out to
    /// regular memory with a heavy performance penalty rather than failing).
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        *self.used.lock()
    }

    /// Commits `bytes` of enclave memory.
    ///
    /// Mirroring real SGX behaviour, the reservation succeeds even beyond the
    /// physical EPC size (the driver pages EPC contents to ordinary RAM), but
    /// it fails if it would exceed four times the capacity, which models the
    /// point at which the paper's SGX1 machines became unusable.
    pub fn reserve(&self, bytes: u64) -> Result<EpcReservation<'_>, EnclaveError> {
        let mut used = self.used.lock();
        let hard_limit = self.capacity.saturating_mul(4);
        if *used + bytes > hard_limit {
            return Err(EnclaveError::EpcExhausted {
                requested: bytes,
                available: hard_limit.saturating_sub(*used),
            });
        }
        *used += bytes;
        Ok(EpcReservation {
            manager: self,
            bytes,
        })
    }

    /// The multiplicative slowdown applied to enclave memory operations at
    /// the current commitment level.
    ///
    /// Below capacity the factor is 1.0.  Beyond capacity it grows linearly
    /// with the overcommit ratio, reaching ~3x at 2x overcommit, which
    /// reproduces the latency blow-up of Fig. 11b once the working set
    /// exceeds the 128 MB SGX1 EPC.
    #[must_use]
    pub fn pressure_factor(&self) -> f64 {
        let used = self.used_bytes() as f64;
        let capacity = self.capacity as f64;
        if capacity <= 0.0 || used <= capacity {
            1.0
        } else {
            1.0 + 2.0 * (used - capacity) / capacity
        }
    }

    /// Pressure factor if an additional `bytes` were committed; used by cost
    /// models to price an allocation before performing it.
    #[must_use]
    pub fn pressure_factor_with(&self, bytes: u64) -> f64 {
        let used = (self.used_bytes() + bytes) as f64;
        let capacity = self.capacity as f64;
        if capacity <= 0.0 || used <= capacity {
            1.0
        } else {
            1.0 + 2.0 * (used - capacity) / capacity
        }
    }

    fn release(&self, bytes: u64) {
        let mut used = self.used.lock();
        *used = used.saturating_sub(bytes);
    }
}

/// RAII guard for committed EPC bytes; dropping it releases the pages.
#[derive(Debug)]
pub struct EpcReservation<'a> {
    manager: &'a EpcManager,
    bytes: u64,
}

impl EpcReservation<'_> {
    /// Number of bytes this reservation holds.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for EpcReservation<'_> {
    fn drop(&mut self) {
        self.manager.release(self.bytes);
    }
}

/// An owning (non-borrowing) reservation used when the enclave outlives the
/// scope that created it; ties the release to an `Arc<EpcManager>`.
#[derive(Debug)]
pub struct OwnedEpcReservation {
    manager: std::sync::Arc<EpcManager>,
    bytes: u64,
}

impl OwnedEpcReservation {
    /// Commits `bytes` against `manager`, returning an owning guard.
    pub fn reserve(manager: std::sync::Arc<EpcManager>, bytes: u64) -> Result<Self, EnclaveError> {
        {
            // Reuse the borrow-based reservation for the limit check, then
            // leak it into the owned form.
            let reservation = manager.reserve(bytes)?;
            std::mem::forget(reservation);
        }
        Ok(OwnedEpcReservation { manager, bytes })
    }

    /// Number of bytes held.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for OwnedEpcReservation {
    fn drop(&mut self) {
        self.manager.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn reserve_and_release_track_usage() {
        let epc = EpcManager::new(128 * MB);
        assert_eq!(epc.used_bytes(), 0);
        {
            let r = epc.reserve(100 * MB).unwrap();
            assert_eq!(r.bytes(), 100 * MB);
            assert_eq!(epc.used_bytes(), 100 * MB);
        }
        assert_eq!(epc.used_bytes(), 0);
    }

    #[test]
    fn overcommit_is_allowed_up_to_hard_limit() {
        let epc = EpcManager::new(128 * MB);
        let _a = epc.reserve(300 * MB).unwrap(); // beyond capacity but below 4x
        assert!(epc.pressure_factor() > 1.0);
        let err = epc.reserve(300 * MB).unwrap_err();
        assert!(matches!(err, EnclaveError::EpcExhausted { .. }));
    }

    #[test]
    fn pressure_factor_is_one_below_capacity_and_grows_beyond() {
        let epc = EpcManager::new(100 * MB);
        let _r1 = epc.reserve(80 * MB).unwrap();
        assert_eq!(epc.pressure_factor(), 1.0);
        let _r2 = epc.reserve(120 * MB).unwrap();
        // 200 MB on a 100 MB EPC -> factor 1 + 2*(100/100) = 3.
        assert!((epc.pressure_factor() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn prospective_pressure_factor_matches_actual() {
        let epc = EpcManager::new(100 * MB);
        let _r = epc.reserve(90 * MB).unwrap();
        let predicted = epc.pressure_factor_with(60 * MB);
        let _r2 = epc.reserve(60 * MB).unwrap();
        assert!((epc.pressure_factor() - predicted).abs() < 1e-9);
    }

    #[test]
    fn owned_reservation_releases_on_drop() {
        let epc = Arc::new(EpcManager::new(10 * MB));
        let r = OwnedEpcReservation::reserve(Arc::clone(&epc), 4 * MB).unwrap();
        assert_eq!(epc.used_bytes(), 4 * MB);
        assert_eq!(r.bytes(), 4 * MB);
        drop(r);
        assert_eq!(epc.used_bytes(), 0);
    }

    #[test]
    fn sgx2_sized_epc_never_feels_pressure_from_models() {
        // Three RSNET-sized enclaves (560 MB each) on a 64 GB EPC.
        let epc = EpcManager::new(64 * 1024 * MB);
        let _a = epc.reserve(560 * MB).unwrap();
        let _b = epc.reserve(560 * MB).unwrap();
        let _c = epc.reserve(560 * MB).unwrap();
        assert_eq!(epc.pressure_factor(), 1.0);
    }

    proptest! {
        #[test]
        fn usage_never_goes_negative(sizes in proptest::collection::vec(0u64..10_000, 1..50)) {
            let epc = EpcManager::new(1_000_000);
            {
                let mut guards = Vec::new();
                for s in &sizes {
                    if let Ok(g) = epc.reserve(*s) {
                        guards.push(g);
                    }
                }
                prop_assert!(epc.used_bytes() <= 4_000_000);
            }
            prop_assert_eq!(epc.used_bytes(), 0);
        }
    }
}
