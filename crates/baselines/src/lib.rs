//! Baseline concurrent FIFO queues for the PODC 2023 reproduction.
//!
//! The paper's central claim is a *separation*: all previous CAS-based
//! queues take `Ω(p)` amortized steps per operation in contended executions
//! (the *CAS retry problem*), while the ordering-tree queue needs only
//! polylogarithmic steps. To measure that separation we implement the
//! comparators from scratch, instrumented with the same
//! [`wfqueue_metrics`] counters as the wait-free queue:
//!
//! * [`MsQueue`] — the classic lock-free Michael–Scott queue (the paper's
//!   §1/§2 foil), built on epoch-based reclamation;
//! * [`TwoLockQueue`] — Michael & Scott's two-lock queue (blocking, but a
//!   useful low-overhead reference);
//! * [`MutexQueue`] — a coarse `Mutex<VecDeque>`.
//!
//! No third-party queue is compared: none has its source in the
//! repository (see `vendor/README.md`).

#![warn(missing_docs)]

mod ms_queue;
mod mutex_queue;
mod two_lock;

pub use ms_queue::MsQueue;
pub use mutex_queue::MutexQueue;
pub use two_lock::TwoLockQueue;
