//! # sesemi-sim
//!
//! A small discrete-event simulation toolkit used to reproduce the cluster
//! experiments of the SeSeMI paper (Figs. 11–14, Tables II–IV) without an
//! 11-node SGX cluster.
//!
//! The toolkit is deliberately generic: it provides a virtual clock
//! ([`SimTime`] / [`SimDuration`]), a deterministic event queue
//! ([`EventQueue`]), seeded random-number helpers ([`SimRng`]), metric
//! sinks ([`metrics::LatencyStats`], [`metrics::TimeSeries`],
//! [`metrics::GbSecondMeter`]), a fixed fast hasher for the simulator's
//! internal maps ([`FxHashMap`]) and a table indexed by dense ids
//! ([`IdSlab`]).  The actual cluster model — invokers,
//! sandboxes, enclaves, FnPacker — lives in the higher-level crates and is
//! driven as an ordinary state machine by popping events from the queue.
//!
//! Everything is deterministic given a seed, so every figure and table the
//! `experiments` binary prints (README, "Regenerating the paper's
//! evaluation") can be regenerated exactly.
//!
//! ```
//! use sesemi_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { RequestArrived(u32) }
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(5), Ev::RequestArrived(1));
//! queue.push(SimTime::ZERO + SimDuration::from_millis(2), Ev::RequestArrived(2));
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(2));
//! assert_eq!(ev, Ev::RequestArrived(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod rng;
mod slab;
pub mod time;

pub use hash::{FxHashMap, FxHasher};
pub use metrics::{GbSecondMeter, LatencyStats, TimeSeries};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use slab::IdSlab;
pub use time::{SimDuration, SimTime};
