//! Tasks and join handles.
//!
//! A [`Task`] is the unit the run queues carry: a one-shot closure behind
//! a `Mutex<Option<..>>` cell so that the queues' `T: Clone` bound (the §3
//! tree clones values into its blocks) composes with the closure's
//! affine, run-exactly-once nature — cloning a [`TaskRef`] clones the
//! `Arc`, never the closure, and whoever `take`s the cell first is the
//! unique runner.
//!
//! The [`JoinHandle`] half is the executor's completion protocol: the
//! runner stores the outcome, flips `done`, and notifies the handle's
//! [`Signal`]; `join` waits in [`Signal::wait_until`] — the same
//! publish-then-notify / publish-then-re-check Dekker handshake as the
//! channel's blocking receive (model-checked as the `signal` scenarios in
//! `tests/model.rs`), so a `join` can never sleep through its task's
//! completion.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wfqueue_channel::Signal;
use wfqueue_sync::atomic::{AtomicBool, Ordering};

/// Why a [`JoinHandle::join`] did not produce the task's value.
#[derive(Debug)]
pub enum JoinError {
    /// The task panicked; the payload is what `catch_unwind` caught.
    Panicked(Box<dyn Any + Send + 'static>),
    /// The task was cancelled before it ran (a timer entry cancelled via
    /// [`crate::TimerKey::cancel`], or still pending when the pool shut
    /// down).
    Cancelled,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(_) => write!(f, "task panicked"),
            JoinError::Cancelled => write!(f, "task cancelled before it ran"),
        }
    }
}

impl JoinError {
    /// Whether this is the [`JoinError::Cancelled`] variant.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JoinError::Cancelled)
    }

    /// Consumes the error, resuming the task's panic on the caller if the
    /// task panicked.
    ///
    /// # Panics
    ///
    /// Resumes the captured panic payload for [`JoinError::Panicked`];
    /// panics with a descriptive message for [`JoinError::Cancelled`].
    pub fn unwrap_panic(self) -> ! {
        match self {
            JoinError::Panicked(payload) => std::panic::resume_unwind(payload),
            JoinError::Cancelled => panic!("task cancelled before it ran"),
        }
    }
}

/// Shared completion state between a running task and its [`JoinHandle`].
struct JoinState<T> {
    /// The outcome, written exactly once by the runner (or canceller).
    slot: Mutex<Option<Result<T, JoinError>>>,
    /// Completion flag: the `data` side of the Dekker wakeup handshake.
    done: AtomicBool,
    /// Wakes parked `join`ers; the runner notifies after flipping `done`.
    signal: Signal,
}

impl<T> JoinState<T> {
    fn finish(&self, outcome: Result<T, JoinError>) {
        *self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
        // ORDERING: SeqCst completion store before `Signal::notify`'s
        // fence + waiters read — the notifier half of the no-lost-wakeup
        // Dekker handshake (replica: `signal_scenario` in
        // `wfqueue_sync::model::protocols`).
        self.done.store(true, Ordering::SeqCst);
        self.signal.notify();
    }

    fn take(&self) -> Result<T, JoinError> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("done implies an outcome was stored")
    }
}

/// An owned handle awaiting one spawned task's completion.
///
/// Dropping the handle detaches the task (it still runs to completion);
/// [`JoinHandle::join`] parks the caller on the completion [`Signal`]
/// until the outcome is available.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (completed, panicked, or been
    /// cancelled). `join` will not block once this returns `true`.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        // ORDERING: SeqCst read pairing with `finish`'s completion store;
        // also the `join` re-check of the Dekker handshake.
        self.state.done.load(Ordering::SeqCst)
    }

    /// Blocks until the task finishes, returning its value.
    ///
    /// # Errors
    ///
    /// [`JoinError::Panicked`] if the task panicked (the payload is
    /// preserved), [`JoinError::Cancelled`] if it was cancelled before
    /// running.
    pub fn join(self) -> Result<T, JoinError> {
        if !self.is_finished() {
            self.state
                .signal
                .wait_until(None, || self.is_finished().then_some(()));
        }
        self.state.take()
    }

    /// Like [`JoinHandle::join`] with a deadline: returns `Err(self)` (so
    /// the caller can retry) if the task is still running at `deadline`.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` on timeout; a finished task yields the same
    /// outcomes as [`JoinHandle::join`].
    pub fn join_deadline(self, deadline: Instant) -> Result<Result<T, JoinError>, Self> {
        if !self.is_finished() {
            self.state
                .signal
                .wait_until(Some(deadline), || self.is_finished().then_some(()));
        }
        // Re-read after a timeout too: a completion may land at the deadline.
        if self.is_finished() {
            Ok(self.state.take())
        } else {
            Err(self)
        }
    }

    /// [`JoinHandle::join_deadline`] with a relative timeout.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` on timeout, as [`JoinHandle::join_deadline`].
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<T, JoinError>, Self> {
        self.join_deadline(Instant::now() + timeout)
    }
}

/// The queue-borne unit of work: a one-shot closure cell.
///
/// Run queues carry [`TaskRef`]s (`Arc<Task>`): `Clone` for the queue
/// backends, while the `Mutex<Option<..>>` cell keeps execution
/// exactly-once regardless of how many clones exist.
pub(crate) struct Task {
    cell: Mutex<Option<Box<dyn FnOnce() + Send + 'static>>>,
}

/// Shared reference to a [`Task`] as the run queues carry it.
pub(crate) type TaskRef = Arc<Task>;

/// Type-erased cancellation hook: resolves the task's [`JoinHandle`] to
/// [`JoinError::Cancelled`] without knowing its value type.
pub(crate) type CancelFn = Box<dyn FnOnce() + Send + 'static>;

impl Task {
    /// Packages `f` as a queueable task plus its join handle and a
    /// type-erased canceller (used by the timer wheel and shutdown; plain
    /// spawns drop it).
    pub(crate) fn package<T, F>(f: F) -> (TaskRef, JoinHandle<T>, CancelFn)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let state = Arc::new(JoinState {
            slot: Mutex::new(None),
            done: AtomicBool::new(false),
            signal: Signal::default(),
        });
        let runner_state = Arc::clone(&state);
        let task = Arc::new(Task {
            cell: Mutex::new(Some(Box::new(move || {
                // The closure owns the only path to a panic: contain it so
                // a panicking task can never take its worker thread down.
                let outcome = catch_unwind(AssertUnwindSafe(f));
                runner_state.finish(outcome.map_err(JoinError::Panicked));
            }) as Box<dyn FnOnce() + Send + 'static>)),
        });
        let cancel_state = Arc::clone(&state);
        let cancel: CancelFn = Box::new(move || {
            cancel_state.finish(Err(JoinError::Cancelled));
        });
        (task, JoinHandle { state }, cancel)
    }

    /// Runs the task if nobody has yet; returns whether this call ran it.
    pub(crate) fn run(&self) -> bool {
        let f = self
            .cell
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match f {
            Some(f) => {
                f();
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Task")
    }
}
