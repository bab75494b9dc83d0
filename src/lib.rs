//! Umbrella crate for the wfqueue reproduction: re-exports every workspace
//! crate so that the repository-level examples and integration tests (and
//! downstream experimentation) have a single import point.
//!
//! See the `wfqueue` crate for the queue itself, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the reproduced results.

pub use wfqueue;
pub use wfqueue_baselines as baselines;
pub use wfqueue_broker as broker;
pub use wfqueue_channel as channel;
pub use wfqueue_executor as executor;
pub use wfqueue_harness as harness;
pub use wfqueue_metrics as metrics;
pub use wfqueue_ring as ring;
pub use wfqueue_segvec as segvec;
pub use wfqueue_shard as shard;
