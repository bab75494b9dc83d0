//! Experiment harness for the PODC 2023 wait-free queue reproduction.
//!
//! Provides everything the experiment binaries (crate `wfqueue-bench`) and
//! the integration tests share:
//!
//! * [`queue_api`] — a uniform [`ConcurrentQueue`] trait with adapters for
//!   both wait-free queue variants and all baselines;
//! * [`channel_api`] — [`ConcurrentQueue`] adapters for the
//!   `wfqueue_channel` facade, so the same checkers cover the channel
//!   layer in its try, blocking and (`feature = "async"`) async modes;
//! * [`broker_api`] — the same adapters one layer up, against a
//!   `wfqueue_broker` topic (registry + drain-then-close seal
//!   included);
//! * [`executor_api`] — the adapter for the `wfqueue_executor`
//!   work-stealing pool (a harness enqueue spawns, a dequeue joins), so
//!   the audits drive the full spawn → schedule → steal → join pipeline;
//! * [`workload`] — deterministic closed-loop workloads with per-operation
//!   step accounting and built-in FIFO audits;
//! * [`lincheck`] — timestamped history recording and a small-scope
//!   Wing–Gong linearizability checker against the sequential queue
//!   specification;
//! * [`stats`] / [`table`] — aggregation and the aligned-table/CSV output
//!   used to print each experiment's series;
//! * [`rng`] — a seedable SplitMix64 generator so every run is reproducible.

#![warn(missing_docs)]

pub mod broker_api;
pub mod channel_api;
pub mod executor_api;
pub mod lincheck;
pub mod queue_api;
pub mod rng;
pub mod stats;
pub mod table;
pub mod workload;

pub use queue_api::{ConcurrentQueue, QueueHandle};
