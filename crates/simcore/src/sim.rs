//! The simulation kernel: owns the clock, the event queue, the actors and
//! the RNG, and runs the dispatch loop.

use crate::actor::{Actor, ActorId, Ctx, Msg, Start, ENGINE};
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use crate::DetRng;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the simulation's deterministic RNG.
    pub seed: u64,
    /// Record a trace of every dispatch (for determinism tests; costly).
    pub trace: bool,
    /// Safety valve: abort after this many dispatches (0 = unlimited).
    pub max_events: u64,
    /// Perturbation seed: when set, events due at one instant for
    /// different actors leave in an order this seed picks (each actor's
    /// own events keep theirs), and [`Ctx::jitter_ns`] adds up to 1 ns to
    /// fabric deliveries. One seed is one more legal schedule of the same
    /// model; `None` is the schedule every figure in the tree is taken
    /// on. The default reads it from the `SIM_PERTURB` environment
    /// variable (decimal or `0x` hex; unset or empty is `None`), so a test
    /// suite or a benchmark run can be re-run under other schedules
    /// without a code change.
    pub perturb: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xD1CE,
            trace: false,
            max_events: 0,
            perturb: perturb_from_env(),
        }
    }
}

fn perturb_from_env() -> Option<u64> {
    let v = std::env::var("SIM_PERTURB")
        .ok()
        .filter(|v| !v.is_empty())?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("SIM_PERTURB={v:?} is not a u64")))
}

/// Why a run loop returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events left: the simulation reached quiescence.
    Idle,
    /// An actor called [`Ctx::halt`].
    Halted,
    /// The requested time bound was reached (clock advanced to the bound).
    TimeLimit,
    /// `max_events` dispatches were executed.
    EventLimit,
}

struct Slot {
    actor: Option<Box<dyn Actor>>,
    alive: bool,
}

/// A discrete-event simulation instance.
pub struct Sim {
    now: SimTime,
    pub(crate) queue: EventQueue,
    slots: Vec<Slot>,
    pub(crate) rng: DetRng,
    pub(crate) halted: bool,
    pub(crate) trace: Trace,
    dispatched: u64,
    max_events: u64,
}

impl Sim {
    pub fn new(config: SimConfig) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: config
                .perturb
                .map_or_else(EventQueue::new, EventQueue::perturbed),
            slots: Vec::new(),
            rng: DetRng::new(config.seed),
            halted: false,
            trace: Trace::new(config.trace),
            dispatched: 0,
            max_events: config.max_events,
        }
    }

    /// Shorthand: default config with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Sim::new(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of dispatches executed so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events and armed timers waiting to be dispatched.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Spawn an actor; it receives [`Start`] at the current instant.
    pub fn spawn(&mut self, actor: impl Actor + 'static) -> ActorId {
        self.spawn_boxed(Box::new(actor))
    }

    /// Spawn an already-boxed actor (for callers building actors behind
    /// `dyn` factories).
    pub fn spawn_dyn(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.spawn_boxed(actor)
    }

    pub(crate) fn spawn_boxed(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.slots.len() as u32);
        self.slots.push(Slot {
            actor: Some(actor),
            alive: true,
        });
        self.queue.push(self.now, id, Msg::new(ENGINE, Start));
        id
    }

    /// Kill an actor and drop its pending messages.
    pub fn kill(&mut self, id: ActorId) {
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            slot.alive = false;
            slot.actor = None;
            self.queue.discard_for(id);
        }
    }

    pub fn is_alive(&self, id: ActorId) -> bool {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    /// Inject a message from outside the simulation (scenario setup).
    pub fn post<T: std::any::Any>(&mut self, to: ActorId, delay: SimDuration, payload: T) {
        let at = self.now + delay;
        self.queue.push(at, to, Msg::new(ENGINE, payload));
    }

    /// Deterministic RNG access for scenario construction.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Execute one event if any. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.dispatched += 1;

        let idx = event.target.0 as usize;
        // Messages to dead or never-spawned actors are dropped silently:
        // packets to a failed CPU vanish, which is the behaviour the
        // fault-tolerance machinery upstairs must cope with.
        let Some(slot) = self.slots.get_mut(idx) else {
            return true;
        };
        if !slot.alive {
            return true;
        }
        let Some(mut actor) = slot.actor.take() else {
            return true;
        };

        if self.trace.enabled() {
            let name = actor.name().to_string();
            self.trace
                .record_dispatch(self.now, event.target, &name, event.msg.from);
        }

        {
            let mut ctx = Ctx {
                sim: self,
                self_id: event.target,
            };
            actor.handle(&mut ctx, event.msg);
        }

        // Restore the actor unless it was killed during its own dispatch.
        let slot = &mut self.slots[idx];
        if slot.alive {
            slot.actor = Some(actor);
        }
        true
    }

    /// Run until the queue drains, an actor halts, or `max_events` hits.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        loop {
            if self.halted {
                self.halted = false;
                return RunOutcome::Halted;
            }
            if self.max_events != 0 && self.dispatched >= self.max_events {
                return RunOutcome::EventLimit;
            }
            if !self.step() {
                return RunOutcome::Idle;
            }
        }
    }

    /// Run until virtual time would exceed `deadline` (the clock is left at
    /// `deadline` if the limit is what stopped us — or where it was, if
    /// `deadline` is already past), the queue drains, or an actor halts.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            if self.halted {
                self.halted = false;
                return RunOutcome::Halted;
            }
            if self.max_events != 0 && self.dispatched >= self.max_events {
                return RunOutcome::EventLimit;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Idle,
                Some(t) if t > deadline => {
                    // Never backwards: an event scheduled after this would
                    // land before events already dispatched.
                    self.now = self.now.max(deadline);
                    return RunOutcome::TimeLimit;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Run until the total dispatch count reaches `n` (a crash-injection
    /// hook: a deterministic replay stopped at dispatch `n` is "power was
    /// lost at event boundary `n`"). Returns [`RunOutcome::EventLimit`]
    /// when the count is what stopped the run, even when no `max_events`
    /// cap is configured.
    pub fn run_until_dispatched(&mut self, n: u64) -> RunOutcome {
        loop {
            if self.halted {
                self.halted = false;
                return RunOutcome::Halted;
            }
            if self.dispatched >= n {
                return RunOutcome::EventLimit;
            }
            if self.max_events != 0 && self.dispatched >= self.max_events {
                return RunOutcome::EventLimit;
            }
            if !self.step() {
                return RunOutcome::Idle;
            }
        }
    }

    /// FNV-1a digest of the dispatch trace; equal digests ⇒ identical runs.
    /// Only meaningful when tracing was enabled in [`SimConfig`].
    pub fn trace_digest(&self) -> u64 {
        self.trace.digest()
    }

    /// Number of trace records captured.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MICROS;
    use crate::Shared;

    /// Ping-pong pair used by several tests.
    struct Pinger {
        peer: Option<ActorId>,
        remaining: u32,
        log: Shared<Vec<u64>>,
    }
    struct Ping(u32);

    impl Actor for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                if let Some(peer) = self.peer {
                    ctx.send(peer, SimDuration::from_micros(5), Ping(self.remaining));
                }
                return;
            }
            if let Ok((from, Ping(n))) = msg.take::<Ping>() {
                self.log.lock().push(ctx.now().as_nanos());
                if n > 0 {
                    ctx.send(from, SimDuration::from_micros(5), Ping(n - 1));
                } else {
                    ctx.halt();
                }
            }
        }
    }

    fn ping_pong(seed: u64) -> (Vec<u64>, RunOutcome) {
        let log = Shared::new(Vec::new());
        let mut sim = Sim::with_seed(seed);
        let a = sim.spawn(Pinger {
            peer: None,
            remaining: 0,
            log: log.clone(),
        });
        let _b = sim.spawn(Pinger {
            peer: Some(a),
            remaining: 4,
            log: log.clone(),
        });
        let out = sim.run_until_idle();
        let v = log.lock().clone();
        (v, out)
    }

    #[test]
    fn ping_pong_times_advance_in_5us_steps() {
        let (times, out) = ping_pong(1);
        assert_eq!(out, RunOutcome::Halted);
        assert_eq!(times.len(), 5);
        for (i, t) in times.iter().enumerate() {
            assert_eq!(*t, (i as u64 + 1) * 5 * MICROS);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(ping_pong(7), ping_pong(7));
    }

    struct Counter {
        hits: Shared<u32>,
    }
    struct Tick;
    impl Actor for Counter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                ctx.send_self(SimDuration::from_millis(1), Tick);
            } else if msg.is::<Tick>() {
                *self.hits.lock() += 1;
                ctx.send_self(SimDuration::from_millis(1), Tick);
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let hits = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        sim.spawn(Counter { hits: hits.clone() });
        let out = sim.run_until(SimTime(10 * crate::time::MILLIS + 1));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert_eq!(*hits.lock(), 10);
        assert_eq!(sim.now(), SimTime(10 * crate::time::MILLIS + 1));
    }

    #[test]
    fn run_until_a_past_deadline_leaves_the_clock_alone() {
        let hits = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        sim.spawn(Counter { hits: hits.clone() });
        sim.run_until(SimTime(5 * crate::time::MILLIS + 1));
        assert_eq!(
            sim.run_until(SimTime(crate::time::MILLIS)),
            RunOutcome::TimeLimit
        );
        assert_eq!(sim.now(), SimTime(5 * crate::time::MILLIS + 1));
        // What is scheduled now lands after everything already dispatched.
        let log = Shared::new(Vec::new());
        let a = sim.spawn(Pinger {
            peer: None,
            remaining: 0,
            log: log.clone(),
        });
        sim.post(a, SimDuration::ZERO, Ping(0));
        assert_eq!(sim.run_until_idle(), RunOutcome::Halted);
        assert_eq!(*log.lock(), vec![5 * crate::time::MILLIS + 1]);
        assert_eq!(*hits.lock(), 5);
    }

    #[test]
    fn killed_actor_gets_nothing() {
        let hits = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        let id = sim.spawn(Counter { hits: hits.clone() });
        sim.run_until(SimTime(3 * crate::time::MILLIS + 1));
        sim.kill(id);
        assert!(!sim.is_alive(id));
        let out = sim.run_until_idle();
        assert_eq!(out, RunOutcome::Idle);
        assert_eq!(*hits.lock(), 3);
    }

    #[test]
    fn messages_to_unknown_actor_are_dropped() {
        let mut sim = Sim::with_seed(0);
        sim.post(ActorId(99), SimDuration::ZERO, 42u32);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
    }

    #[test]
    fn run_until_dispatched_stops_at_exact_event_boundary() {
        let hits = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        sim.spawn(Counter { hits: hits.clone() });
        // Dispatch 1 is Start; dispatches 2..=6 are ticks.
        assert_eq!(sim.run_until_dispatched(6), RunOutcome::EventLimit);
        assert_eq!(sim.dispatched(), 6);
        assert_eq!(*hits.lock(), 5);
        // Resuming from the boundary continues the same replay.
        assert_eq!(sim.run_until_dispatched(7), RunOutcome::EventLimit);
        assert_eq!(*hits.lock(), 6);
    }

    #[test]
    fn run_until_dispatched_returns_idle_when_queue_drains_first() {
        let (_, out) = ping_pong(1); // 11 dispatches end-to-end
        assert_eq!(out, RunOutcome::Halted);
        let log = Shared::new(Vec::new());
        let mut sim = Sim::with_seed(1);
        let a = sim.spawn(Pinger {
            peer: None,
            remaining: 0,
            log: log.clone(),
        });
        sim.spawn(Pinger {
            peer: Some(a),
            remaining: 4,
            log: log.clone(),
        });
        assert_eq!(sim.run_until_dispatched(1_000_000), RunOutcome::Halted);
    }

    #[test]
    fn event_limit_stops_runaway() {
        let hits = Shared::new(0);
        let mut sim = Sim::new(SimConfig {
            max_events: 100,
            ..SimConfig::default()
        });
        sim.spawn(Counter { hits });
        assert_eq!(sim.run_until_idle(), RunOutcome::EventLimit);
    }

    #[test]
    fn trace_digest_identical_for_identical_runs() {
        let run = |seed| {
            let hits = Shared::new(0);
            let mut sim = Sim::new(SimConfig {
                seed,
                trace: true,
                ..SimConfig::default()
            });
            sim.spawn(Counter { hits });
            sim.run_until(SimTime(crate::time::MILLIS * 5));
            (sim.trace_digest(), sim.trace_len())
        };
        assert_eq!(run(3), run(3));
        assert!(run(3).1 > 0);
    }

    /// Three tickers of co-prime periods whose ticks collide at common
    /// multiples (so tie-breaks by `seq` are exercised), on either
    /// scheduling primitive.
    struct Ticker {
        period: u64,
        timers: bool,
    }
    impl Actor for Ticker {
        fn name(&self) -> &str {
            "ticker"
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() || msg.is::<Tick>() {
                let d = SimDuration::from_micros(self.period);
                if self.timers {
                    ctx.arm_timer(d, Tick);
                } else {
                    ctx.send_self(d, Tick);
                }
            }
        }
    }

    #[test]
    fn undisarmed_timers_trace_exactly_like_send_self() {
        let run = |timers: bool| {
            let mut sim = Sim::new(SimConfig {
                seed: 9,
                trace: true,
                ..SimConfig::default()
            });
            for period in [2, 3, 5] {
                sim.spawn(Ticker { period, timers });
            }
            sim.run_until(SimTime(crate::time::MILLIS));
            (sim.trace_digest(), sim.trace_len(), sim.dispatched())
        };
        assert_eq!(run(true), run(false));
        assert!(run(true).1 > 1000);
    }

    struct Watched {
        fired: Shared<u32>,
        watchdog: Option<crate::TimerId>,
    }
    struct Done;
    impl Actor for Watched {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                self.watchdog = Some(ctx.arm_timer(SimDuration::from_millis(900), Tick));
                ctx.send_self(SimDuration::from_micros(50), Done);
            } else if msg.is::<Done>() {
                let timer = self.watchdog.take().unwrap();
                assert!(ctx.disarm(timer));
                assert!(!ctx.disarm(timer), "a second disarm finds nothing");
            } else if msg.is::<Tick>() {
                *self.fired.lock() += 1;
            }
        }
    }

    #[test]
    fn disarmed_watchdog_leaves_the_queue_and_never_fires() {
        let fired = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        sim.spawn(Watched {
            fired: fired.clone(),
            watchdog: None,
        });
        sim.run_until(SimTime(10 * MICROS));
        assert_eq!(sim.pending_events(), 2, "the completion and its watchdog");
        // The operation completes at 50 us; nothing is left to wait for.
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        assert_eq!(sim.now(), SimTime(50 * MICROS));
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.dispatched(), 2);
        assert_eq!(*fired.lock(), 0);
    }

    #[test]
    fn killed_actor_loses_its_timers() {
        let fired = Shared::new(0);
        let mut sim = Sim::with_seed(0);
        let id = sim.spawn(Watched {
            fired: fired.clone(),
            watchdog: None,
        });
        sim.run_until(SimTime(10 * MICROS));
        sim.kill(id);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
        assert_eq!(*fired.lock(), 0);
    }

    struct SpawnOnStart;
    impl Actor for SpawnOnStart {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                let hits = Shared::new(0);
                let id = ctx.spawn(Box::new(Counter { hits }));
                assert!(ctx.is_alive(id));
                ctx.kill(id);
                assert!(!ctx.is_alive(id));
            }
        }
    }

    #[test]
    fn spawn_and_kill_during_dispatch() {
        let mut sim = Sim::with_seed(0);
        sim.spawn(SpawnOnStart);
        assert_eq!(sim.run_until_idle(), RunOutcome::Idle);
    }
}
