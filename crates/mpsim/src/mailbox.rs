//! One rank's inbox: every message sent to the rank, in arrival order,
//! behind one lock, with one condition variable its owner parks on.
//!
//! The wake rule: a delivery wakes the owner only when it is the
//! `(src, tag)` the owner is parked on. Under Post-then-Drain every send
//! of a phase is on the wire before the first receive, so a rank parked
//! on round r's message would otherwise be woken by every early arrival
//! of the later rounds, only to buffer it and park again. Every other
//! delivery is queued silently and claimed when the owner asks for it.
//!
//! Claims take the earliest queued match, so two messages with the same
//! `(src, tag)` — the pipelined serving path's back-to-back batches —
//! are claimed in the order they arrived. A chaos-injected duplicate is
//! dropped on intake (the model of sequence-number deduplication): it is
//! never queued and never wakes anyone. The mailbox closes when its rank
//! exits; a later delivery is refused, so the sender does not charge it.
//!
//! A universe abort (a rank panicked, or called `Comm::fail_fast`) is the
//! one other thing that wakes a parked owner: it is a flag set under the
//! same lock, so the owner sees it the moment it wakes and no receive
//! ever re-checks it on a timer.

use crate::comm::Msg;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why [`Mailbox::take`] returned without a message.
pub(crate) enum Missed {
    /// The universe aborted while the owner waited.
    Aborted,
    /// The timeout elapsed.
    TimedOut,
}

/// The inbox of one rank.
pub(crate) struct Mailbox {
    state: Mutex<Inbox>,
    wake: Condvar,
}

struct Inbox {
    /// Delivered, not yet claimed, oldest first.
    queue: VecDeque<Msg>,
    /// False once the owning rank has exited.
    open: bool,
    /// The `(src, tag)` the owner is parked on, if it is parked.
    want: Option<(usize, u64)>,
    /// True once the universe aborted: a wait that finds no match ends.
    aborted: bool,
    /// Sources of the deliveries that notified the owner, in order.
    #[cfg(test)]
    woken_by: Vec<usize>,
    /// How many times the owner's wait has returned.
    #[cfg(test)]
    wakes: usize,
}

impl Inbox {
    fn claim(&mut self, src: usize, tag: u64) -> Option<Msg> {
        let pos = self.queue.iter().position(|m| m.src == src && m.tag == tag)?;
        self.queue.remove(pos)
    }
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            state: Mutex::new(Inbox {
                queue: VecDeque::new(),
                open: true,
                want: None,
                aborted: false,
                #[cfg(test)]
                woken_by: Vec::new(),
                #[cfg(test)]
                wakes: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// The lock, recovered if poisoned: no code panics while holding it,
    /// and the queue is consistent between any two operations.
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg`, waking the owner only if it is parked on exactly this
    /// `(src, tag)`. Returns `false` when the owner has exited: the message
    /// never entered the network.
    pub(crate) fn deliver(&self, msg: Msg) -> bool {
        let mut inbox = self.lock();
        if !inbox.open {
            return false;
        }
        if msg.dup {
            return true;
        }
        let wake = inbox.want == Some((msg.src, msg.tag));
        if wake {
            // Cleared so a second match queued before the owner runs does
            // not notify again.
            inbox.want = None;
            #[cfg(test)]
            inbox.woken_by.push(msg.src);
        }
        inbox.queue.push_back(msg);
        drop(inbox);
        if wake {
            self.wake.notify_one();
        }
        true
    }

    /// Claims the earliest queued message from `src` with `tag`, parking
    /// until it arrives, the universe aborts, or `timeout` elapses. A
    /// queued match is claimed even after an abort. The first claim reads
    /// no clock, so a message that is already queued costs one lock.
    pub(crate) fn take(&self, src: usize, tag: u64, timeout: Duration) -> Result<Msg, Missed> {
        let mut inbox = self.lock();
        if let Some(msg) = inbox.claim(src, tag) {
            return Ok(msg);
        }
        let deadline = Instant::now() + timeout;
        let mut wait = timeout;
        loop {
            if inbox.aborted {
                return Err(Missed::Aborted);
            }
            if wait.is_zero() {
                return Err(Missed::TimedOut);
            }
            inbox.want = Some((src, tag));
            inbox = self.wake.wait_timeout(inbox, wait).unwrap_or_else(PoisonError::into_inner).0;
            inbox.want = None;
            #[cfg(test)]
            {
                inbox.wakes += 1;
            }
            if let Some(msg) = inbox.claim(src, tag) {
                return Ok(msg);
            }
            wait = deadline.saturating_duration_since(Instant::now());
        }
    }

    /// Marks the universe as aborted and wakes the owner if it is parked.
    pub(crate) fn abort(&self) {
        self.lock().aborted = true;
        self.wake.notify_one();
    }

    /// Marks the owner as exited and drops every unclaimed message.
    pub(crate) fn close(&self) {
        let mut inbox = self.lock();
        inbox.open = false;
        inbox.queue = VecDeque::new();
    }
}

#[cfg(test)]
impl Mailbox {
    /// The `(src, tag)` the owner is parked on, if it is parked.
    pub(crate) fn parked_on(&self) -> Option<(usize, u64)> {
        self.lock().want
    }

    /// Sources of the deliveries that notified the owner, in order.
    pub(crate) fn woken_by(&self) -> Vec<usize> {
        self.lock().woken_by.clone()
    }

    /// How many times the owner's wait has returned.
    pub(crate) fn wakes(&self) -> usize {
        self.lock().wakes
    }
}
