//! Deterministic discrete-event simulation kernel for the MCM-GPU model.
//!
//! This crate is the substrate every other crate in the workspace builds
//! on. It deliberately contains **no** GPU-specific concepts; it provides
//! four things:
//!
//! * [`Cycle`] — the simulation clock (the modelled GPU runs at 1 GHz, so
//!   one cycle is one nanosecond).
//! * [`EventQueue`] — a calendar of timestamped events with a
//!   content-keyed `(time, wave, key)` tie-break, which makes
//!   whole-system runs bit-reproducible.
//! * [`Resource`] — a bandwidth server implementing the next-free-time
//!   queuing model. Links, DRAM channels, cache banks and SM issue slots
//!   are all `Resource`s; saturation and queuing delay emerge from it.
//! * [`rng`] and [`stats`] — reproducible random numbers and the counters
//!   and ratios every component reports through.
//!
//! # Example
//!
//! A 16 bytes/cycle resource serving two back-to-back 128-byte requests:
//! the second queues behind the first.
//!
//! ```
//! use mcm_engine::{Cycle, Resource};
//!
//! let mut link = Resource::new("link", 16.0);
//! let first = link.service(Cycle::new(0), 128);
//! let second = link.service(Cycle::new(0), 128);
//! assert_eq!(first, Cycle::new(8));
//! assert_eq!(second, Cycle::new(16));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cycle;
mod queue;
mod resource;

pub mod rng;
pub mod stats;

pub use cycle::Cycle;
pub use queue::EventQueue;
pub use resource::Resource;
