//! The simulation engine: drives a [`Model`] through its event queue.

use crate::event::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::wheel::QueueStats;

/// A simulation model: owns all mutable world state and reacts to events.
///
/// The engine pops the earliest event, advances the clock, and calls
/// [`Model::handle`], which may schedule or cancel further events through the
/// [`Context`].
pub trait Model {
    /// The event payload type (typically one enum covering the whole world).
    type Event;

    /// Reacts to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Scheduling capabilities handed to [`Model::handle`].
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    logical: &'a mut u64,
}

impl<'a, E> Context<'a, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// An instant in the past is clamped to *now*: the event fires next,
    /// after already-queued events at the current instant.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Reserves `n` tie-break ranks; see [`EventQueue::reserve_ranks`].
    pub fn reserve_ranks(&mut self, n: u64) -> u64 {
        self.queue.reserve_ranks(n)
    }

    /// Schedules `event` at `at` with a reserved `rank`; see
    /// [`EventQueue::schedule_ranked`]. An instant in the past is clamped
    /// to *now*.
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, event: E) -> EventId {
        self.queue.schedule_ranked(at.max(self.now), rank, event)
    }

    /// Cancels a pending event; `true` if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// The engine's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Credits `n` logical events to the engine's processed-event count.
    ///
    /// Batched handlers (e.g. a struct-of-arrays pass that retires a whole
    /// scheduling cycle's worth of per-packet work inside one physical
    /// event) use this so `events_processed` keeps measuring simulated
    /// work, not dispatch overhead.
    pub fn count_logical(&mut self, n: u64) {
        *self.logical += n;
    }

    /// Operational counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The discrete-event simulation engine.
///
/// ```rust
/// use gage_des::{Model, Context, Simulation, SimDuration, SimTime};
///
/// struct Counter { fired: Vec<u64> }
/// struct At(u64);
///
/// impl Model for Counter {
///     type Event = At;
///     fn handle(&mut self, ctx: &mut Context<'_, At>, ev: At) {
///         self.fired.push(ev.0);
///         assert_eq!(ctx.now().as_millis(), ev.0);
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
/// sim.schedule_at(SimTime::from_millis(2), At(2));
/// sim.schedule_at(SimTime::from_millis(1), At(1));
/// sim.run_until(SimTime::from_millis(10));
/// assert_eq!(sim.model().fired, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    rng: SimRng,
    now: SimTime,
    events_processed: u64,
    logical_events: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates an engine around `model` with the given RNG seed.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            now: SimTime::ZERO,
            events_processed: 0,
            logical_events: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far: physical pops plus logical events
    /// credited by batched handlers via [`Context::count_logical`].
    pub fn events_processed(&self) -> u64 {
        self.events_processed + self.logical_events
    }

    /// Operational counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Shared access to the model (for inspection between runs).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for reconfiguration between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The engine's root random stream (e.g. for splitting per-component
    /// streams during setup).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules an event from outside the model (setup code).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Reserves `n` tie-break ranks; see [`EventQueue::reserve_ranks`].
    pub fn reserve_ranks(&mut self, n: u64) -> u64 {
        self.queue.reserve_ranks(n)
    }

    /// Schedules an event with a reserved `rank` (setup code); see
    /// [`EventQueue::schedule_ranked`].
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, event: M::Event) -> EventId {
        self.queue.schedule_ranked(at.max(self.now), rank, event)
    }

    /// Processes the single earliest event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        debug_assert!(scheduled.at >= self.now, "time ran backwards");
        self.now = scheduled.at;
        self.events_processed += 1;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            logical: &mut self.logical_events,
        };
        self.model.handle(&mut ctx, scheduled.event);
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or the next event would fire after
    /// `deadline`. The clock is left at the later of its current value and
    /// `deadline` only if events reached it; otherwise it stays at the last
    /// event time.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline && !self.queue.is_empty() {
            // Advance the clock to the deadline so back-to-back run_until
            // calls observe contiguous windows.
            self.now = deadline;
        }
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Chain {
        hops: u32,
        done_at: Option<SimTime>,
    }
    enum Ev {
        Hop(u32),
    }

    impl Model for Chain {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, Ev::Hop(n): Ev) {
            if n < self.hops {
                ctx.schedule_in(SimDuration::from_micros(100), Ev::Hop(n + 1));
            } else {
                self.done_at = Some(ctx.now());
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut sim = Simulation::new(
            Chain {
                hops: 50,
                done_at: None,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Hop(0));
        sim.run();
        assert_eq!(
            sim.model().done_at,
            Some(SimTime::ZERO + SimDuration::from_micros(100) * 50)
        );
        assert_eq!(sim.events_processed(), 51);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(
            Chain {
                hops: 1_000_000,
                done_at: None,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Hop(0));
        sim.run_until(SimTime::from_millis(1));
        assert!(sim.now() <= SimTime::from_millis(1));
        assert!(sim.model().done_at.is_none());
        assert!(sim.pending_events() > 0);
        // Resume.
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.now() <= SimTime::from_millis(2));
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> u64 {
            struct R {
                acc: u64,
            }
            enum E {
                T,
            }
            impl Model for R {
                type Event = E;
                fn handle(&mut self, ctx: &mut Context<'_, E>, _e: E) {
                    self.acc = self.acc.wrapping_mul(31).wrapping_add(ctx.rng().next_u64());
                    if !self.acc.is_multiple_of(7) {
                        ctx.schedule_in(SimDuration::from_nanos(self.acc % 1000 + 1), E::T);
                    }
                }
            }
            use rand::RngCore;
            let mut sim = Simulation::new(R { acc: 1 }, 77);
            sim.schedule_at(SimTime::ZERO, E::T);
            sim.run_until(SimTime::from_millis(1));
            sim.model().acc
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn ranked_schedule_from_a_handler_keeps_its_reserved_place() {
        struct R {
            rank: Option<u64>,
            seen: Vec<&'static str>,
        }
        impl Model for R {
            type Event = &'static str;
            fn handle(&mut self, ctx: &mut Context<'_, &'static str>, e: &'static str) {
                self.seen.push(e);
                let t = SimTime::from_millis(3);
                match e {
                    "start" => {
                        self.rank = Some(ctx.reserve_ranks(1));
                        ctx.schedule_at(t, "plain");
                        ctx.schedule_at(SimTime::from_millis(1), "trigger");
                    }
                    "trigger" => {
                        let rank = self.rank.expect("reserved at start");
                        ctx.schedule_ranked(t, rank, "ranked");
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(
            R {
                rank: None,
                seen: vec![],
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, "start");
        sim.run();
        // Scheduled after "plain", but under a rank reserved before it.
        assert_eq!(sim.model().seen, ["start", "trigger", "ranked", "plain"]);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct P {
            seen: Vec<u64>,
        }
        enum E {
            A,
            B,
        }
        impl Model for P {
            type Event = E;
            fn handle(&mut self, ctx: &mut Context<'_, E>, e: E) {
                match e {
                    E::A => {
                        self.seen.push(ctx.now().as_millis());
                        // Deliberately in the past.
                        ctx.schedule_at(SimTime::ZERO, E::B);
                    }
                    E::B => self.seen.push(ctx.now().as_millis()),
                }
            }
        }
        let mut sim = Simulation::new(P { seen: vec![] }, 0);
        sim.schedule_at(SimTime::from_millis(5), E::A);
        sim.run();
        assert_eq!(sim.model().seen, vec![5, 5]);
    }
}
