//! What a run that stopped short waits on.
//!
//! [`Sim::stalled`](crate::Sim::stalled) asks every live actor for its
//! [`Wait`]s — only then: nothing records them as the run goes — and
//! notes who was killed and which actors still have an event queued. A
//! [`Stall`] prints that as chains: from a root waiter (one nobody waits
//! on), along whom it waits on, to a process that is dead, idle, or
//! waiting on a timer, with a registry's view of each process it reaches.

use crate::actor::{ActorId, Wait};
use crate::time::SimTime;
use std::collections::BTreeSet;
use std::fmt::{self, Write};

/// A stalled run's wait graph ([`Sim::stalled`](crate::Sim::stalled)).
#[derive(Clone, Debug)]
pub struct Stall {
    at: SimTime,
    /// Each killed actor: its id, its name, and when.
    killed: Vec<(ActorId, String, SimTime)>,
    /// Each live actor, in spawn order.
    live: Vec<Live>,
}

#[derive(Clone, Debug)]
struct Live {
    id: ActorId,
    name: String,
    waits: Vec<Wait>,
    /// When its next queued event or armed timer is due.
    next: Option<SimTime>,
}

impl Stall {
    pub(crate) fn new(at: SimTime, killed: Vec<(ActorId, String, SimTime)>) -> Self {
        Stall {
            at,
            killed,
            live: Vec::new(),
        }
    }

    pub(crate) fn add(&mut self, id: ActorId, name: &str, waits: Vec<Wait>, next: Option<SimTime>) {
        let name = name.to_string();
        self.live.push(Live {
            id,
            name,
            waits,
            next,
        });
    }

    /// Every wait, beside its waiter's name.
    fn waits(&self) -> impl Iterator<Item = (&str, &Wait)> {
        let live = self.live.iter();
        live.flat_map(|a| a.waits.iter().map(move |w| (a.name.as_str(), w)))
    }

    /// The chains, from each root waiter to where they end, with
    /// `registry`'s view of each process they reach (`None` where it has
    /// none, as for an endpoint).
    pub fn render(&self, registry: impl Fn(&str) -> Option<String>) -> String {
        let waiting = self.live.iter().filter(|a| !a.waits.is_empty());
        let mut out = format!(
            "stalled at {}: {} actors wait, {} killed\n",
            self.at,
            waiting.clone().count(),
            self.killed.len()
        );
        let waited: BTreeSet<&str> = self.waits().map(|(_, w)| w.on.as_str()).collect();
        let roots: Vec<&Live> = waiting
            .clone()
            .filter(|a| !waited.contains(a.name.as_str()))
            .collect();
        // Every waiter is waited on: a cycle, printed from each waiter.
        let roots = if roots.is_empty() {
            waiting.collect()
        } else {
            roots
        };
        let mut shown = BTreeSet::new();
        for root in roots {
            self.chain(&mut out, root, 0, &mut shown, &registry);
        }
        out
    }

    /// Print `waiter`'s waits, grouped by what and whom, each followed by
    /// what its target is doing; a target that waits in turn is followed
    /// the same way, once.
    fn chain<'a>(
        &'a self,
        out: &mut String,
        waiter: &'a Live,
        depth: usize,
        shown: &mut BTreeSet<&'a str>,
        registry: &impl Fn(&str) -> Option<String>,
    ) {
        shown.insert(&waiter.name);
        let pad = "    ".repeat(depth);
        let mut groups: Vec<(&str, &str, Vec<&Wait>)> = Vec::new();
        for w in &waiter.waits {
            match groups
                .iter_mut()
                .find(|(what, on, _)| *what == w.what && *on == w.on)
            {
                Some((_, _, ws)) => ws.push(w),
                None => groups.push((w.what, &w.on, vec![w])),
            }
        }
        for (what, on, ws) in groups {
            let ids: Vec<String> = ws.iter().take(4).map(|w| w.id.to_string()).collect();
            let more = if ws.len() > 4 { " …" } else { "" };
            let since = ws.iter().filter_map(|w| w.since).min();
            let since = since.map_or(String::new(), |t| format!(" since {t}"));
            let _ = writeln!(
                out,
                "{pad}{} ({:?}) → {on}: {what} ×{} [{}{more}]{since}",
                waiter.name,
                waiter.id,
                ws.len(),
                ids.join(", ")
            );
            // A target is named, or is the actor an id names.
            let is = |id: &ActorId, name: &str| name == on || format!("{id:?}") == on;
            let killed = self.killed.iter().filter(|(id, name, _)| is(id, name));
            for (id, name, at) in killed.clone() {
                let _ = writeln!(out, "{pad}    {name} {id:?}: killed at {at}");
            }
            let targets = self.live.iter().filter(|a| is(&a.id, &a.name));
            if killed.count() + targets.clone().count() == 0 {
                let _ = writeln!(out, "{pad}    {on}: no such actor");
            }
            for t in targets {
                let (name, id) = (&t.name, t.id);
                if !t.waits.is_empty() && !shown.contains(name.as_str()) {
                    self.chain(out, t, depth + 1, shown, registry);
                } else if !t.waits.is_empty() {
                    let _ = writeln!(out, "{pad}    {name} {id:?}: waits (shown above)");
                } else if let Some(next) = t.next {
                    let _ = writeln!(
                        out,
                        "{pad}    {name} {id:?}: no waits, next event at {next}"
                    );
                } else {
                    let _ = writeln!(out, "{pad}    {name} {id:?}: idle, nothing queued");
                }
            }
            if let Some(view) = registry(on) {
                let _ = writeln!(out, "{pad}    registry: {view}");
            }
        }
    }
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(|_| None))
    }
}

#[cfg(test)]
mod tests {
    use crate::actor::{Actor, Ctx, Msg, Start, Wait};
    use crate::{Sim, SimDuration, SimTime};

    /// Waits on `on` for "reply" from its start, unless `on` is empty.
    struct Waiter {
        name: &'static str,
        on: &'static str,
        tick: bool,
    }

    impl Actor for Waiter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if self.tick && msg.is::<Start>() {
                ctx.send_self(SimDuration::from_nanos(1_000_000_000), ());
            }
        }

        fn name(&self) -> &str {
            self.name
        }

        fn waits(&self, out: &mut Vec<Wait>) {
            if !self.on.is_empty() {
                let (on, since) = (self.on.to_string(), Some(SimTime::ZERO));
                out.push(Wait {
                    what: "reply",
                    on,
                    id: 7,
                    since,
                });
            }
        }
    }

    #[test]
    fn a_chain_runs_from_the_root_to_a_dead_an_idle_and_a_timed_process() {
        let mut sim = Sim::with_seed(1);
        let spawn = |sim: &mut Sim, name, on, tick| sim.spawn(Waiter { name, on, tick });
        spawn(&mut sim, "client", "$A", false);
        let dead = spawn(&mut sim, "$A", "$B", false);
        spawn(&mut sim, "$A", "$B", false);
        spawn(&mut sim, "$B", "$C", false);
        spawn(&mut sim, "$C", "", true);
        spawn(&mut sim, "$D", "", false);
        spawn(&mut sim, "other", "$D", false);
        sim.run_until(SimTime(1));
        sim.kill(dead);
        let stall = sim.stalled();
        let text = stall.render(|name| (name == "$A").then(|| "primary on cpu 1".into()));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "stalled at t+1ns: 4 actors wait, 1 killed",
                "client (actor#0) → $A: reply ×1 [7] since t+0ns",
                "    $A actor#1: killed at t+1ns",
                "    $A (actor#2) → $B: reply ×1 [7] since t+0ns",
                "        $B (actor#3) → $C: reply ×1 [7] since t+0ns",
                "            $C actor#4: no waits, next event at t+1.000s",
                "    registry: primary on cpu 1",
                "other (actor#6) → $D: reply ×1 [7] since t+0ns",
                "    $D actor#5: idle, nothing queued",
            ]
        );
    }
}
