//! Enclave Page Cache (EPC) accounting.
//!
//! All enclaves on a node draw their protected pages from a single EPC.  On
//! SGX1 the EPC is only 128 MB, so launching several model-serving enclaves
//! forces paging and slows everything down (paper Fig. 11b and Appendix C);
//! on SGX2 it is 64 GB and ceases to be the bottleneck (§VI-B: "the
//! performance bottleneck has shifted from memory to CPU").
//!
//! [`EpcManager`] tracks the bytes the enclaves on one node commit and
//! refuses a reservation past four times the physical EPC.  It does not
//! price paging: the cluster simulator slows memory-bound stages from its
//! own per-node commitment once that exceeds the EPC.

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
        assert!(epc.used_bytes() > epc.capacity_bytes());
        let err = epc.reserve(300 * MB).unwrap_err();
        assert!(matches!(err, EnclaveError::EpcExhausted { .. }));
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
