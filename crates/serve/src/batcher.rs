//! The bounded micro-batching queue: requests coalesce until `max_batch`
//! of them are pending or the oldest has waited `max_wait_us`, then flush
//! as one batch into the panelized prediction path.
//!
//! The design is testable-first, split in two layers:
//!
//! * [`BatchQueue`] — a *pure* state machine. `push` and `poll` take the
//!   current time as an explicit argument and never block, so every
//!   flush-on-max-batch vs flush-on-deadline interleaving is pinned by a
//!   plain unit test with hand-picked timestamps.
//! * [`Batcher`] — the threaded wrapper: one worker thread drives the
//!   queue against an injected [`Clock`], submitters get a [`Ticket`]
//!   (one-shot slot) their response is routed back through. With a
//!   [`crate::clock::ManualClock`] the worker's timing behavior is
//!   deterministic; with the [`crate::clock::SystemClock`] it serves real
//!   traffic.
//!
//! Ordering guarantee: batches preserve FIFO submission order, both
//! within a batch (queue order) and across batches (an earlier request is
//! never flushed later than a later one).
//!
//! Overload policy (both knobs default off in [`Batcher::new`], on via
//! [`BatcherConfig`]):
//!
//! * **Watermark shed** — [`Batcher::try_submit`] refuses once the queue
//!   holds `queue_watermark` requests, so the backlog (and therefore
//!   worst-case queueing latency) is bounded instead of growing without
//!   limit under sustained overload.
//! * **Dequeue-time deadlines** — a request that already waited longer
//!   than `deadline_us` when its batch is taken is split into
//!   [`Flush::expired`] and answered through the `expire` hook without
//!   ever occupying a batch slot, so overload never wastes compute on
//!   answers nobody is waiting for.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use plssvm_core::trace::{emit, Event, MetricsSink, ServeBatchSample, ServeShedKind};

use crate::clock::Clock;

/// Batching and admission knobs for a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Flush when this many requests are pending (clamped to ≥ 1).
    pub max_batch: usize,
    /// Flush when the oldest pending request is this old (clock µs).
    pub max_wait_us: u64,
    /// Shed new submissions once the queue already holds this many
    /// requests; `0` disables the watermark (unbounded queue).
    pub queue_watermark: usize,
    /// Per-request queueing deadline in clock µs, enforced at dequeue
    /// time: a request that waited *strictly longer* than this is
    /// expired instead of batched. `0` disables deadlines.
    pub deadline_us: u64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait_us: 2_000,
            queue_watermark: 1_024,
            deadline_us: 0,
        }
    }
}

/// Why [`Batcher::try_submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The queue is at or above its watermark; `depth` is the observed
    /// backlog at refusal time.
    Overloaded {
        /// Queue depth observed when the request was shed.
        depth: usize,
    },
    /// The batcher is shutting down (draining); no new work is admitted.
    ShuttingDown,
}

/// What [`BatchQueue::poll`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum QueuePoll<R> {
    /// A batch is due: process it now.
    Ready(Flush<R>),
    /// Requests are pending but the batch is neither full nor overdue —
    /// wait until the contained deadline (µs) unless new work arrives.
    WaitUntil(u64),
    /// Nothing is queued.
    Empty,
}

/// One flushed batch plus its queue bookkeeping.
#[derive(Debug, PartialEq, Eq)]
pub struct Flush<R> {
    /// The coalesced requests, in FIFO submission order. May be empty
    /// when a poll woke only to expire overdue requests.
    pub items: Vec<R>,
    /// Requests that waited past their deadline, in FIFO order; they are
    /// answered `deadline_exceeded` and never occupy a batch slot.
    pub expired: Vec<R>,
    /// How long the oldest request in the batch queued, in clock µs.
    pub oldest_wait_us: u64,
    /// Requests still queued after this batch was taken.
    pub remaining: usize,
}

/// The pure micro-batching state machine (no threads, no clock — time is
/// an argument).
#[derive(Debug)]
pub struct BatchQueue<R> {
    items: VecDeque<(R, u64)>,
    max_batch: usize,
    max_wait_us: u64,
    deadline_us: u64,
}

impl<R> BatchQueue<R> {
    /// A queue flushing at `max_batch` requests (clamped to ≥ 1) or when
    /// the oldest pending request is `max_wait_us` old, with no
    /// per-request deadline.
    pub fn new(max_batch: usize, max_wait_us: u64) -> Self {
        Self::with_deadline(max_batch, max_wait_us, 0)
    }

    /// Like [`BatchQueue::new`], but a request that queued strictly
    /// longer than `deadline_us` is expired at dequeue time (`0`
    /// disables deadlines).
    pub fn with_deadline(max_batch: usize, max_wait_us: u64, deadline_us: u64) -> Self {
        Self {
            items: VecDeque::new(),
            max_batch: max_batch.max(1),
            max_wait_us,
            deadline_us,
        }
    }

    /// The instant (clock µs) at which a request enqueued at `enq` goes
    /// from "late" to "expired": strictly past its deadline, so a wake
    /// scheduled exactly here always observes the expiry.
    fn expiry_at(&self, enq: u64) -> u64 {
        debug_assert!(self.deadline_us > 0);
        enq.saturating_add(self.deadline_us).saturating_add(1)
    }

    /// Enqueues a request observed at `now_us`.
    pub fn push(&mut self, item: R, now_us: u64) {
        self.items.push_back((item, now_us));
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Decides, at `now_us`, whether a batch is due: full (`max_batch`
    /// pending), overdue (oldest pending request past `max_wait_us`), or
    /// — with deadlines on — the oldest request strictly past
    /// `deadline_us` (it must be expired promptly, not left to rot until
    /// the flush timer fires).
    pub fn poll(&mut self, now_us: u64) -> QueuePoll<R> {
        let Some((_, oldest)) = self.items.front() else {
            return QueuePoll::Empty;
        };
        let flush_at = oldest.saturating_add(self.max_wait_us);
        let expiry_at = if self.deadline_us > 0 {
            self.expiry_at(*oldest)
        } else {
            u64::MAX
        };
        if self.items.len() >= self.max_batch || now_us >= flush_at.min(expiry_at) {
            QueuePoll::Ready(self.take_batch(now_us, false))
        } else {
            QueuePoll::WaitUntil(flush_at.min(expiry_at))
        }
    }

    /// Takes a batch immediately regardless of the flush timer (shutdown
    /// drain). Requests already past their deadline still expire.
    pub fn flush_now(&mut self, now_us: u64) -> QueuePoll<R> {
        if self.items.is_empty() {
            QueuePoll::Empty
        } else {
            QueuePoll::Ready(self.take_batch(now_us, true))
        }
    }

    fn take_batch(&mut self, now_us: u64, force: bool) -> Flush<R> {
        // enqueue timestamps are non-decreasing (one monotonic clock), so
        // everything expired sits in a prefix of the FIFO
        let mut expired = Vec::new();
        if self.deadline_us > 0 {
            while let Some((_, enq)) = self.items.front() {
                if now_us >= self.expiry_at(*enq) {
                    expired.push(self.items.pop_front().expect("front exists").0);
                } else {
                    break;
                }
            }
        }
        // after expiring the prefix, the survivors may be neither full
        // nor overdue (the wake was for the expiry alone): leave them
        // queued rather than flushing an undersized batch early
        let due = force
            || self.items.len() >= self.max_batch
            || self
                .items
                .front()
                .is_some_and(|(_, enq)| now_us >= enq.saturating_add(self.max_wait_us));
        let n = if due {
            self.items.len().min(self.max_batch)
        } else {
            0
        };
        let mut items = Vec::with_capacity(n);
        let mut oldest_wait_us = 0;
        for i in 0..n {
            let (item, enqueued) = self.items.pop_front().expect("n <= len");
            if i == 0 {
                oldest_wait_us = now_us.saturating_sub(enqueued);
            }
            items.push(item);
        }
        Flush {
            items,
            expired,
            oldest_wait_us,
            remaining: self.items.len(),
        }
    }
}

#[derive(Debug)]
enum TicketSlot<S> {
    Pending,
    Done(S),
    /// The batcher dropped the request without an answer (processor
    /// panic, or shutdown before submission) — the submitter sees `None`.
    Closed,
}

#[derive(Debug)]
struct TicketState<S> {
    slot: Mutex<TicketSlot<S>>,
    cv: Condvar,
}

/// A one-shot response slot: the submitter blocks on [`Ticket::wait`],
/// the batcher worker fills it when the request's batch completes.
#[derive(Debug)]
pub struct Ticket<S> {
    state: Arc<TicketState<S>>,
}

impl<S> Clone for Ticket<S> {
    fn clone(&self) -> Self {
        Self {
            state: Arc::clone(&self.state),
        }
    }
}

impl<S> Default for Ticket<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Ticket<S> {
    /// A fresh, unfilled ticket.
    pub fn new() -> Self {
        Self {
            state: Arc::new(TicketState {
                slot: Mutex::new(TicketSlot::Pending),
                cv: Condvar::new(),
            }),
        }
    }

    /// A ticket that is already closed (used when submitting after
    /// shutdown).
    pub fn closed() -> Self {
        let t = Self::new();
        t.close();
        t
    }

    /// Blocks until the response arrives; `None` means the request was
    /// dropped without an answer (processor panic or shutdown race) —
    /// callers turn that into a structured internal error, never a hang.
    pub fn wait(&self) -> Option<S> {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *slot, TicketSlot::Pending) {
                TicketSlot::Done(v) => return Some(v),
                TicketSlot::Closed => {
                    *slot = TicketSlot::Closed;
                    return None;
                }
                TicketSlot::Pending => {
                    slot = self.state.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Non-blocking probe: `true` while neither filled nor closed (lets
    /// deterministic tests assert "no flush has happened yet").
    pub fn is_pending(&self) -> bool {
        matches!(
            *self.state.slot.lock().unwrap_or_else(|e| e.into_inner()),
            TicketSlot::Pending
        )
    }

    fn fill(&self, v: S) {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = TicketSlot::Done(v);
        self.state.cv.notify_all();
    }

    fn close(&self) {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*slot, TicketSlot::Pending) {
            *slot = TicketSlot::Closed;
        }
        self.state.cv.notify_all();
    }
}

type Process<R, S> = dyn Fn(Vec<R>) -> Vec<S> + Send + Sync;
type Expire<R, S> = dyn Fn(R) -> S + Send + Sync;

struct BatcherShared<R, S> {
    queue: Mutex<BatchQueue<(R, Ticket<S>)>>,
    watermark: usize,
    clock: Arc<dyn Clock>,
    process: Box<Process<R, S>>,
    /// Maps an expired request to its `deadline_exceeded` response;
    /// absent (deadline off), expired tickets would be closed instead.
    expire: Option<Box<Expire<R, S>>>,
    metrics: Option<Arc<dyn MetricsSink>>,
    shutdown: AtomicBool,
}

/// The threaded micro-batcher: submit requests from any thread, a single
/// worker coalesces them through a [`BatchQueue`] and routes each
/// response back through the submitter's [`Ticket`].
pub struct Batcher<R, S> {
    shared: Arc<BatcherShared<R, S>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl<R: Send + 'static, S: Send + 'static> Batcher<R, S> {
    /// Spawns the worker. `process` maps a batch of requests to exactly
    /// one response per request, in order; if it panics or returns the
    /// wrong arity, the affected tickets are *closed* (submitters see
    /// `None`) instead of hanging.
    pub fn new(
        max_batch: usize,
        max_wait_us: u64,
        clock: Arc<dyn Clock>,
        metrics: Option<Arc<dyn MetricsSink>>,
        process: impl Fn(Vec<R>) -> Vec<S> + Send + Sync + 'static,
    ) -> Self {
        let config = BatcherConfig {
            max_batch,
            max_wait_us,
            queue_watermark: 0,
            deadline_us: 0,
        };
        Self::with_config(config, clock, metrics, None, process)
    }

    /// Like [`Batcher::new`], but with the full admission policy: a
    /// queue watermark for [`Batcher::try_submit`] and a per-request
    /// deadline. `expire` maps a request that waited past its deadline
    /// to the response its submitter receives (e.g. a structured
    /// `deadline_exceeded` error); pass `None` only with deadlines off.
    pub fn with_config(
        config: BatcherConfig,
        clock: Arc<dyn Clock>,
        metrics: Option<Arc<dyn MetricsSink>>,
        expire: Option<Box<Expire<R, S>>>,
        process: impl Fn(Vec<R>) -> Vec<S> + Send + Sync + 'static,
    ) -> Self {
        let shared = Arc::new(BatcherShared {
            queue: Mutex::new(BatchQueue::with_deadline(
                config.max_batch,
                config.max_wait_us,
                config.deadline_us,
            )),
            watermark: config.queue_watermark,
            clock,
            process: Box::new(process),
            expire,
            metrics,
            shutdown: AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("plssvm-batcher".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batcher worker");
        Self {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Enqueues a request; the returned ticket resolves when its batch is
    /// processed. After [`Batcher::shutdown`] the ticket is immediately
    /// closed.
    pub fn submit(&self, req: R) -> Ticket<S> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Ticket::closed();
        }
        let ticket = Ticket::new();
        {
            let mut queue = self.lock_queue();
            queue.push((req, ticket.clone()), self.shared.clock.now_us());
        }
        self.shared.clock.wake();
        ticket
    }

    /// Admission-controlled submit: refuses instead of queueing when the
    /// batcher is draining ([`Shed::ShuttingDown`]) or the queue is at
    /// its watermark ([`Shed::Overloaded`]). The refusal is immediate —
    /// a shed request never holds a queue slot or a batch slot, which is
    /// what keeps admitted-request latency bounded under overload.
    pub fn try_submit(&self, req: R) -> Result<Ticket<S>, Shed> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(Shed::ShuttingDown);
        }
        let ticket = Ticket::new();
        {
            let mut queue = self.lock_queue();
            let depth = queue.len();
            if self.shared.watermark > 0 && depth >= self.shared.watermark {
                return Err(Shed::Overloaded { depth });
            }
            queue.push((req, ticket.clone()), self.shared.clock.now_us());
        }
        self.shared.clock.wake();
        Ok(ticket)
    }

    /// Requests currently queued (not yet flushed into a batch).
    pub fn queue_depth(&self) -> usize {
        self.lock_queue().len()
    }

    /// Stops accepting new requests, drains everything already queued
    /// (no request is dropped), and joins the worker. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.clock.wake();
        let handle = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, BatchQueue<(R, Ticket<S>)>> {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<R, S> Drop for Batcher<R, S> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.clock.wake();
        let handle = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

fn worker_loop<R, S>(shared: &BatcherShared<R, S>) {
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // sample the wake counter BEFORE polling: a submit landing after
        // the poll bumps it, so the wait below returns immediately
        let seen = shared.clock.wake_count();
        let now = shared.clock.now_us();
        let action = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if shutting_down {
                queue.flush_now(now)
            } else {
                queue.poll(now)
            }
        };
        match action {
            QueuePoll::Ready(flush) => run_batch(shared, flush),
            QueuePoll::WaitUntil(deadline) => shared.clock.wait_until(seen, Some(deadline)),
            QueuePoll::Empty => {
                if shutting_down {
                    return;
                }
                shared.clock.wait_until(seen, None);
            }
        }
    }
}

fn run_batch<R, S>(shared: &BatcherShared<R, S>, flush: Flush<(R, Ticket<S>)>) {
    let Flush {
        items,
        expired,
        oldest_wait_us,
        remaining,
    } = flush;
    for (req, ticket) in expired {
        match &shared.expire {
            Some(expire) => ticket.fill(expire(req)),
            // deadline configured but no expiry mapper: close (→
            // structured internal error) rather than hang the submitter
            None => ticket.close(),
        }
        emit(shared.metrics.as_deref(), || {
            Event::ServeShed(ServeShedKind::DeadlineExceeded)
        });
    }
    if items.is_empty() {
        // the wake was for expiries alone — no batch ran, so no batch
        // sample: batch metrics only ever describe real processor calls
        return;
    }
    let batch_size = items.len();
    let (requests, tickets): (Vec<R>, Vec<Ticket<S>>) = items.into_iter().unzip();
    let started = shared.clock.now_us();
    let result = catch_unwind(AssertUnwindSafe(|| (shared.process)(requests)));
    let process_us = shared.clock.now_us().saturating_sub(started);
    match result {
        Ok(responses) => {
            let mut responses = responses.into_iter();
            for ticket in &tickets {
                match responses.next() {
                    Some(r) => ticket.fill(r),
                    // arity bug in the processor: close instead of hanging
                    None => ticket.close(),
                }
            }
        }
        Err(_) => {
            // the processor panicked: every submitter gets a closed
            // ticket (→ structured internal error), the worker survives
            for ticket in &tickets {
                ticket.close();
            }
        }
    }
    emit(shared.metrics.as_deref(), || {
        Event::ServeBatch(ServeBatchSample {
            batch_size,
            queue_depth: remaining,
            queued_us: oldest_wait_us,
            process_us,
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_flushes_on_max_batch_regardless_of_time() {
        let mut q = BatchQueue::new(3, 1_000);
        q.push("a", 0);
        q.push("b", 0);
        assert_eq!(q.poll(0), QueuePoll::WaitUntil(1_000));
        q.push("c", 0);
        match q.poll(0) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.items, vec!["a", "b", "c"]);
                assert_eq!(f.remaining, 0);
                assert_eq!(f.oldest_wait_us, 0);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(q.poll(0), QueuePoll::Empty);
    }

    #[test]
    fn queue_flushes_on_deadline_exactly() {
        let mut q = BatchQueue::new(10, 500);
        q.push(1, 100);
        assert_eq!(q.poll(100), QueuePoll::WaitUntil(600));
        assert_eq!(q.poll(599), QueuePoll::WaitUntil(600));
        match q.poll(600) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.items, vec![1]);
                assert_eq!(f.oldest_wait_us, 500);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn oversized_backlog_drains_in_fifo_chunks() {
        let mut q = BatchQueue::new(2, 100);
        for i in 0..5 {
            q.push(i, 0);
        }
        let mut batches = Vec::new();
        while let QueuePoll::Ready(f) = q.poll(1_000) {
            batches.push(f.items);
        }
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn deadline_follows_oldest_pending_request() {
        let mut q = BatchQueue::new(10, 200);
        q.push("old", 50);
        q.push("new", 240);
        // deadline is the OLDEST request's enqueue + max_wait
        assert_eq!(q.poll(240), QueuePoll::WaitUntil(250));
        match q.poll(250) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.items, vec!["old", "new"]);
                assert_eq!(f.oldest_wait_us, 200);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn flush_now_drains_without_deadline() {
        let mut q = BatchQueue::new(10, 1_000_000);
        assert_eq!(q.flush_now(0), QueuePoll::Empty);
        q.push(7, 0);
        match q.flush_now(1) {
            QueuePoll::Ready(f) => assert_eq!(f.items, vec![7]),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn deadline_expires_strictly_after_wait_exceeds_budget() {
        let mut q = BatchQueue::with_deadline(10, 1_000, 200);
        q.push("r", 100);
        // the queue must wake at the expiry instant (enq + deadline + 1),
        // which beats the flush timer (enq + max_wait)
        assert_eq!(q.poll(100), QueuePoll::WaitUntil(301));
        // waited EXACTLY the deadline: still live, still only waiting
        assert_eq!(q.poll(300), QueuePoll::WaitUntil(301));
        match q.poll(301) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.expired, vec!["r"]);
                assert!(f.items.is_empty());
                assert_eq!(f.remaining, 0);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(q.poll(302), QueuePoll::Empty);
    }

    #[test]
    fn expired_prefix_splits_from_live_batch() {
        let mut q = BatchQueue::with_deadline(10, 50, 200);
        q.push("dead1", 0);
        q.push("dead2", 10);
        q.push("live", 250);
        // at 300: both old requests are strictly past 200µs of waiting,
        // "live" (waited 50 = its flush timer) flushes as a normal batch
        match q.poll(300) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.expired, vec!["dead1", "dead2"]);
                assert_eq!(f.items, vec!["live"]);
                assert_eq!(f.oldest_wait_us, 50);
                assert_eq!(f.remaining, 0);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn expiry_wake_leaves_fresh_survivors_queued() {
        let mut q = BatchQueue::with_deadline(10, 500, 100);
        q.push("dead", 0);
        q.push("fresh", 90);
        // 101: "dead" expires; "fresh" (waited 11µs of its 500µs flush
        // window) must NOT be flushed early just because the wake fired
        match q.poll(101) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.expired, vec!["dead"]);
                assert!(f.items.is_empty());
                assert_eq!(f.remaining, 1);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        // the next poll re-arms on the survivor's own deadlines
        assert_eq!(q.poll(101), QueuePoll::WaitUntil(191));
    }

    #[test]
    fn flush_now_still_expires_overdue_requests() {
        let mut q = BatchQueue::with_deadline(10, 1_000_000, 100);
        q.push("dead", 0);
        q.push("live", 150);
        match q.flush_now(200) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.expired, vec!["dead"]);
                assert_eq!(f.items, vec!["live"]);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn deadline_equal_to_max_wait_flushes_instead_of_expiring() {
        // the flush timer fires at enq+max_wait, the expiry strictly
        // after (enq+deadline+1): an on-time flush wins the race
        let mut q = BatchQueue::with_deadline(10, 200, 200);
        q.push("r", 0);
        assert_eq!(q.poll(0), QueuePoll::WaitUntil(200));
        match q.poll(200) {
            QueuePoll::Ready(f) => {
                assert_eq!(f.items, vec!["r"]);
                assert!(f.expired.is_empty());
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn ticket_roundtrip_and_close() {
        let t = Ticket::new();
        t.fill(42);
        assert_eq!(t.wait(), Some(42));
        let t: Ticket<i32> = Ticket::new();
        t.close();
        assert_eq!(t.wait(), None);
        // close after fill does not destroy the response
        let t = Ticket::new();
        t.fill(7);
        t.close();
        assert_eq!(t.wait(), Some(7));
    }
}
