//! A single-server FIFO queue — the building block for the CPU, disk and
//! NIC models of a simulated node.
//!
//! Work items are enqueued with a service duration and an opaque tag; the
//! owner schedules a completion event for the returned finish time. Because
//! the server is work-conserving and FIFO, the finish time of a newly
//! enqueued item is simply `max(now, busy_until) + service`.

use gage_des::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A work-conserving FIFO server.
///
/// ```rust
/// use gage_cluster::server::FifoServer;
/// use gage_des::{SimDuration, SimTime};
///
/// let mut cpu: FifoServer<&str> = FifoServer::new();
/// let t0 = SimTime::ZERO;
/// let f1 = cpu.enqueue(t0, SimDuration::from_millis(2), "a");
/// let f2 = cpu.enqueue(t0, SimDuration::from_millis(3), "b");
/// assert_eq!(f1.as_millis(), 2);
/// assert_eq!(f2.as_millis(), 5, "b waits behind a");
/// assert_eq!(cpu.complete(), Some("a"));
/// assert_eq!(cpu.complete(), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer<T> {
    queue: VecDeque<T>,
    busy_until: SimTime,
    total_busy: SimDuration,
    completed: u64,
}

impl<T> Default for FifoServer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoServer<T> {
    /// Creates an idle server.
    pub fn new() -> Self {
        FifoServer {
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            total_busy: SimDuration::ZERO,
            completed: 0,
        }
    }

    /// Enqueues work taking `service` at time `now`; returns the absolute
    /// finish time (when the owner should schedule the completion event).
    /// Completion events fire in enqueue order.
    pub fn enqueue(&mut self, now: SimTime, service: SimDuration, tag: T) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + service;
        self.total_busy += service;
        self.queue.push_back(tag);
        self.busy_until
    }

    /// Pops the finished head item. Call exactly once per completion event.
    pub fn complete(&mut self) -> Option<T> {
        let t = self.queue.pop_front();
        if t.is_some() {
            self.completed += 1;
        }
        t
    }

    /// Items still queued or in service.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// When the server drains, given no further arrivals.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Cumulative service time performed.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Items completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Utilization over the first `elapsed` of the run.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.total_busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    }
}

/// The queueless core of [`FifoServer`]: a work-conserving FIFO service
/// line that only tracks *time*, not tags.
///
/// Each RPN's per-cycle service batch uses this instead of [`FifoServer`]:
/// a whole scheduling cycle's arrivals are offered in arrival order and each
/// request's finish time comes straight back, so no per-item queue entry —
/// and no per-item completion event — is needed for the intermediate
/// stages. `offer(ready, service)` is exactly `FifoServer::enqueue` minus
/// the `VecDeque` bookkeeping: `max(busy_until, ready) + service`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyLine {
    busy_until: SimTime,
    total_busy: SimDuration,
    completed: u64,
}

impl BusyLine {
    /// Creates an idle line.
    pub fn new() -> Self {
        BusyLine::default()
    }

    /// Offers work that became ready at `ready` and takes `service`;
    /// returns its absolute finish time. Offers must come in ready order
    /// (FIFO) for the finish times to be meaningful.
    pub fn offer(&mut self, ready: SimTime, service: SimDuration) -> SimTime {
        self.busy_until = self.busy_until.max(ready) + service;
        self.total_busy += service;
        self.completed += 1;
        self.busy_until
    }

    /// When the line drains, given no further arrivals.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Cumulative service time performed.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Items offered (and therefore eventually completed) so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s: FifoServer<u32> = FifoServer::new();
        let fin = s.enqueue(SimTime::from_millis(10), ms(5), 1);
        assert_eq!(fin.as_millis(), 15);
    }

    #[test]
    fn backlog_serializes() {
        let mut s: FifoServer<u32> = FifoServer::new();
        let t = SimTime::ZERO;
        assert_eq!(s.enqueue(t, ms(1), 1).as_millis(), 1);
        assert_eq!(s.enqueue(t, ms(1), 2).as_millis(), 2);
        assert_eq!(s.enqueue(t, ms(1), 3).as_millis(), 3);
        assert_eq!(s.in_flight(), 3);
        assert_eq!(s.complete(), Some(1));
        assert_eq!(s.complete(), Some(2));
        assert_eq!(s.complete(), Some(3));
        assert_eq!(s.complete(), None);
        assert_eq!(s.completed_count(), 3);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut s: FifoServer<u32> = FifoServer::new();
        s.enqueue(SimTime::ZERO, ms(1), 1);
        // Arrives long after the first finishes.
        let fin = s.enqueue(SimTime::from_millis(100), ms(2), 2);
        assert_eq!(fin.as_millis(), 102);
        assert_eq!(s.total_busy(), ms(3));
    }

    #[test]
    fn busy_line_matches_fifo_server_finish_times() {
        let mut line = BusyLine::new();
        let mut fifo: FifoServer<u32> = FifoServer::new();
        let arrivals = [(0u64, 5u64), (2, 1), (3, 4), (50, 2), (50, 2)];
        for (i, &(at, svc)) in arrivals.iter().enumerate() {
            let t = SimTime::from_millis(at);
            assert_eq!(line.offer(t, ms(svc)), fifo.enqueue(t, ms(svc), i as u32));
        }
        assert_eq!(line.busy_until(), fifo.busy_until());
        assert_eq!(line.total_busy(), fifo.total_busy());
        assert_eq!(line.completed_count(), 5);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut s: FifoServer<u32> = FifoServer::new();
        s.enqueue(SimTime::ZERO, ms(30), 1);
        s.enqueue(SimTime::ZERO, ms(20), 2);
        assert!((s.utilization(ms(100)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(SimDuration::ZERO), 0.0);
    }
}
