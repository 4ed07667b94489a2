//! The disk volume actor: request queue, mechanical latency, cache policy.

use crate::config::{DiskConfig, WriteCachePolicy};
use crate::media::SparseMedia;
use bytes::Bytes;
use simcore::durable::Image;
use simcore::{Actor, ActorId, Ctx, Histogram, Msg, Shared, SimDuration};

/// I/O result code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskStatus {
    Ok,
}

/// Write request. Send to the volume's actor; completion goes to `reply_to`.
pub struct DiskWrite {
    pub offset: u64,
    pub data: Bytes,
    /// On-media length for timing purposes; 0 means `data.len()`. Lets
    /// benchmark-scale scenarios carry compact descriptors while paying
    /// full-size transfer latency (only `data` bytes reach the media
    /// image).
    pub advisory_len: u32,
    pub tag: u64,
    pub reply_to: ActorId,
}

/// Read request.
pub struct DiskRead {
    pub offset: u64,
    pub len: u32,
    pub tag: u64,
    pub reply_to: ActorId,
}

/// Write completion. For [`WriteCachePolicy::WriteThrough`] this means
/// on-media; for `BatteryBacked` it means in durable cache; for `Volatile`
/// it means *only in DRAM* — a power loss may still eat it.
#[derive(Clone, Copy, Debug)]
pub struct DiskWriteDone {
    pub tag: u64,
    pub status: DiskStatus,
}

/// Read completion with data.
#[derive(Clone, Debug)]
pub struct DiskReadDone {
    pub tag: u64,
    pub status: DiskStatus,
    pub data: Bytes,
}

/// Traffic/latency statistics, shared with the harness.
#[derive(Default)]
pub struct DiskStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub sequential_ios: u64,
    pub random_ios: u64,
    pub latency: Histogram,
}

pub type SharedDiskStats = Shared<DiskStats>;

/// Internal completion event.
struct Complete {
    kind: CompleteKind,
    tag: u64,
    reply_to: ActorId,
    issued_ns: u64,
}

enum CompleteKind {
    Write {
        offset: u64,
        data: Bytes,
        apply: bool,
    },
    Read {
        offset: u64,
        len: u32,
    },
}

/// Background destage of a volatile-cache write.
struct Destage {
    seq: u64,
}

/// One simulated disk volume.
pub struct DiskVolume {
    name: String,
    cfg: DiskConfig,
    media: Image<SparseMedia>,
    stats: SharedDiskStats,
    /// Mechanical-arm reservation horizon, ns.
    busy_until_ns: u64,
    /// End offset of the last mechanical access (sequential detection).
    last_end: Option<u64>,
    /// Volatile-cache writes not yet destaged: (seq, offset, data).
    pending: Vec<(u64, u64, Bytes)>,
    next_pending_seq: u64,
}

impl DiskVolume {
    pub fn new(name: impl Into<String>, cfg: DiskConfig, media: Image<SparseMedia>) -> Self {
        DiskVolume {
            name: name.into(),
            cfg,
            media,
            stats: Shared::new(DiskStats::default()),
            busy_until_ns: 0,
            last_end: None,
            pending: Vec::new(),
            next_pending_seq: 0,
        }
    }

    pub fn stats(&self) -> SharedDiskStats {
        self.stats.clone()
    }

    /// Mechanical time for an access at `offset` of `len` bytes, and
    /// whether it was sequential.
    fn mechanical_ns(&mut self, ctx: &mut Ctx<'_>, offset: u64, len: u32) -> (u64, bool) {
        let sequential = match self.last_end {
            Some(end) => offset >= end && offset - end <= self.cfg.sequential_window,
            None => false,
        };
        let position = if sequential {
            (self.cfg.revolution_ns as f64 * self.cfg.sequential_rot_frac) as u64
        } else {
            let seek = ctx
                .rng()
                .jitter(self.cfg.avg_seek_ns as f64, self.cfg.jitter_frac)
                as u64;
            // Rotational latency uniform in [0, revolution).
            let rot = ctx.rng().below(self.cfg.revolution_ns);
            seek + rot
        };
        let transfer = len as u128 * 1_000_000_000 / self.cfg.media_bw_bps as u128;
        self.last_end = Some(offset + len as u64);
        (position + transfer as u64, sequential)
    }

    /// Reserve the mechanism from `now`: returns queueing delay.
    fn reserve(&mut self, now_ns: u64, dur_ns: u64) -> u64 {
        let start = self.busy_until_ns.max(now_ns);
        self.busy_until_ns = start + dur_ns;
        start - now_ns
    }

    fn record(&self, kind_read: bool, bytes: u64, sequential: bool, latency_ns: u64) {
        let mut s = self.stats.lock();
        if kind_read {
            s.reads += 1;
            s.bytes_read += bytes;
        } else {
            s.writes += 1;
            s.bytes_written += bytes;
        }
        if sequential {
            s.sequential_ios += 1;
        } else {
            s.random_ios += 1;
        }
        s.latency.record(latency_ns);
    }
}

impl Actor for DiskVolume {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            return;
        }
        let now_ns = ctx.now().as_nanos();

        let msg = match msg.take::<DiskWrite>() {
            Ok((_, w)) => {
                let len = (w.data.len() as u32).max(w.advisory_len);
                let (mech, seq) = self.mechanical_ns(ctx, w.offset, len);
                let stack = self.cfg.stack_overhead_ns;
                match self.cfg.cache {
                    WriteCachePolicy::WriteThrough => {
                        let q = self.reserve(now_ns + stack, mech);
                        let total = stack + q + mech;
                        self.record(false, len as u64, seq, total);
                        ctx.send_self(
                            SimDuration::from_nanos(total),
                            Complete {
                                kind: CompleteKind::Write {
                                    offset: w.offset,
                                    data: w.data,
                                    apply: true,
                                },
                                tag: w.tag,
                                reply_to: w.reply_to,
                                issued_ns: now_ns,
                            },
                        );
                    }
                    WriteCachePolicy::BatteryBacked => {
                        // Durable on cache entry: complete after stack
                        // overhead; the mechanism still pays destage time
                        // in the background (reserved, delays later I/O).
                        self.reserve(now_ns + stack, mech);
                        self.record(false, len as u64, seq, stack);
                        ctx.send_self(
                            SimDuration::from_nanos(stack),
                            Complete {
                                kind: CompleteKind::Write {
                                    offset: w.offset,
                                    data: w.data,
                                    apply: true,
                                },
                                tag: w.tag,
                                reply_to: w.reply_to,
                                issued_ns: now_ns,
                            },
                        );
                    }
                    WriteCachePolicy::Volatile => {
                        self.reserve(now_ns + stack, mech);
                        self.record(false, len as u64, seq, stack);
                        let seq_no = self.next_pending_seq;
                        self.next_pending_seq += 1;
                        self.pending.push((seq_no, w.offset, w.data.clone()));
                        ctx.send_self(
                            SimDuration::from_nanos(stack),
                            Complete {
                                kind: CompleteKind::Write {
                                    offset: w.offset,
                                    data: w.data,
                                    apply: false,
                                },
                                tag: w.tag,
                                reply_to: w.reply_to,
                                issued_ns: now_ns,
                            },
                        );
                        ctx.send_self(
                            SimDuration::from_nanos(stack + self.cfg.destage_delay_ns),
                            Destage { seq: seq_no },
                        );
                    }
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<DiskRead>() {
            Ok((_, r)) => {
                let (mech, seq) = self.mechanical_ns(ctx, r.offset, r.len);
                let stack = self.cfg.stack_overhead_ns;
                let q = self.reserve(now_ns + stack, mech);
                let total = stack + q + mech;
                self.record(true, r.len as u64, seq, total);
                ctx.send_self(
                    SimDuration::from_nanos(total),
                    Complete {
                        kind: CompleteKind::Read {
                            offset: r.offset,
                            len: r.len,
                        },
                        tag: r.tag,
                        reply_to: r.reply_to,
                        issued_ns: now_ns,
                    },
                );
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<Complete>() {
            Ok((_, c)) => {
                let _ = c.issued_ns;
                match c.kind {
                    CompleteKind::Write {
                        offset,
                        data,
                        apply,
                    } => {
                        if apply {
                            self.media.lock().write(offset, &data);
                        }
                        ctx.send(
                            c.reply_to,
                            SimDuration::ZERO,
                            DiskWriteDone {
                                tag: c.tag,
                                status: DiskStatus::Ok,
                            },
                        );
                    }
                    CompleteKind::Read { offset, len } => {
                        let mut buf = self.media.lock().read(offset, len as usize);
                        // Read-your-writes through the volatile cache.
                        for (_, woff, wdata) in &self.pending {
                            overlay(&mut buf, offset, *woff, wdata);
                        }
                        ctx.send(
                            c.reply_to,
                            SimDuration::ZERO,
                            DiskReadDone {
                                tag: c.tag,
                                status: DiskStatus::Ok,
                                data: Bytes::from(buf),
                            },
                        );
                    }
                }
                return;
            }
            Err(m) => m,
        };

        if let Ok((_, d)) = msg.take::<Destage>() {
            if let Some(pos) = self.pending.iter().position(|(s, _, _)| *s == d.seq) {
                let (_, off, data) = self.pending.remove(pos);
                self.media.lock().write(off, &data);
            }
        }
    }
}

/// Copy the overlap of a cached write into a read buffer.
fn overlay(buf: &mut [u8], buf_off: u64, w_off: u64, w_data: &[u8]) {
    let buf_end = buf_off + buf.len() as u64;
    let w_end = w_off + w_data.len() as u64;
    let lo = buf_off.max(w_off);
    let hi = buf_end.min(w_end);
    if lo >= hi {
        return;
    }
    let dst = (lo - buf_off) as usize;
    let src = (lo - w_off) as usize;
    let n = (hi - lo) as usize;
    buf[dst..dst + n].copy_from_slice(&w_data[src..src + n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::actor::Start;
    use simcore::{Sim, SimTime};

    /// Test harness actor: fires a script of requests, records completions.
    #[allow(clippy::type_complexity)]
    struct Client {
        disk: ActorId,
        script: Vec<ClientOp>,
        done: Shared<Vec<(u64, u64)>>, // (tag, completion ns)
        read_data: Shared<Vec<(u64, Vec<u8>)>>,
    }

    enum ClientOp {
        Write(u64, Vec<u8>, u64),
        Read(u64, u32, u64),
    }

    impl Actor for Client {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                let me = ctx.self_id();
                for op in self.script.drain(..) {
                    match op {
                        ClientOp::Write(off, data, tag) => ctx.send(
                            self.disk,
                            SimDuration::ZERO,
                            DiskWrite {
                                offset: off,
                                data: Bytes::from(data),
                                advisory_len: 0,
                                tag,
                                reply_to: me,
                            },
                        ),
                        ClientOp::Read(off, len, tag) => ctx.send(
                            self.disk,
                            SimDuration::ZERO,
                            DiskRead {
                                offset: off,
                                len,
                                tag,
                                reply_to: me,
                            },
                        ),
                    }
                }
                return;
            }
            let msg = match msg.take::<DiskWriteDone>() {
                Ok((_, d)) => {
                    self.done.lock().push((d.tag, ctx.now().as_nanos()));
                    return;
                }
                Err(m) => m,
            };
            if let Ok((_, d)) = msg.take::<DiskReadDone>() {
                self.done.lock().push((d.tag, ctx.now().as_nanos()));
                self.read_data.lock().push((d.tag, d.data.to_vec()));
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run(
        cfg: DiskConfig,
        script: Vec<ClientOp>,
    ) -> (
        Vec<(u64, u64)>,
        Vec<(u64, Vec<u8>)>,
        Image<SparseMedia>,
        SharedDiskStats,
    ) {
        let mut sim = Sim::with_seed(7);
        let media: Image<SparseMedia> = Shared::new(SparseMedia::new());
        let vol = DiskVolume::new("$DATA0", cfg, media.clone());
        let stats = vol.stats();
        let disk = sim.spawn(vol);
        let done = Shared::new(Vec::new());
        let rdata = Shared::new(Vec::new());
        sim.spawn(Client {
            disk,
            script,
            done: done.clone(),
            read_data: rdata.clone(),
        });
        sim.run_until(SimTime(simcore::time::SECS * 10));
        let d = done.lock().clone();
        let r = rdata.lock().clone();
        (d, r, media, stats)
    }

    #[test]
    fn write_through_random_io_costs_milliseconds() {
        let (done, _, media, stats) = run(
            DiskConfig::default(),
            vec![ClientOp::Write(0, vec![7u8; 4096], 1)],
        );
        assert_eq!(done.len(), 1);
        let t = done[0].1;
        assert!((2_000_000..15_000_000).contains(&t), "latency {t}ns");
        assert_eq!(media.lock().read(0, 4), vec![7u8; 4]);
        assert_eq!(stats.lock().writes, 1);
        assert_eq!(stats.lock().random_ios, 1);
    }

    #[test]
    fn sequential_writes_much_cheaper_than_random() {
        // First write random, subsequent appends sequential.
        let script: Vec<ClientOp> = (0..8u64)
            .map(|i| ClientOp::Write(i * 4096, vec![1u8; 4096], i))
            .collect();
        let (done, _, _, stats) = run(DiskConfig::default(), script);
        assert_eq!(done.len(), 8);
        let mut times: Vec<u64> = done.iter().map(|(_, t)| *t).collect();
        times.sort_unstable();
        let first = times[0];
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        // Appends skip the seek but still pay ~half a rotation (sync log
        // write model), so they are cheaper than the first positioned
        // I/O, not free.
        for g in &gaps {
            assert!(*g < first * 6 / 10, "gap {g} vs first {first}");
            assert!(*g > 1_000_000, "gap {g} suspiciously free");
        }
        assert_eq!(stats.lock().sequential_ios, 7);
    }

    #[test]
    fn battery_backed_completes_at_stack_latency_and_is_durable() {
        let (done, _, media, _) = run(
            DiskConfig::data_volume(),
            vec![ClientOp::Write(0, vec![9u8; 512], 1)],
        );
        let t = done[0].1;
        assert_eq!(t, DiskConfig::default().stack_overhead_ns);
        // Durable immediately (battery): media already has it.
        assert_eq!(media.lock().read(0, 1), vec![9u8]);
    }

    #[test]
    fn volatile_cache_applies_only_after_destage() {
        let cfg = DiskConfig {
            cache: WriteCachePolicy::Volatile,
            ..DiskConfig::default()
        };
        let mut sim = Sim::with_seed(7);
        let media: Image<SparseMedia> = Shared::new(SparseMedia::new());
        let vol = DiskVolume::new("$VOL", cfg.clone(), media.clone());
        let disk = sim.spawn(vol);
        let done = Shared::new(Vec::new());
        sim.spawn(Client {
            disk,
            script: vec![ClientOp::Write(0, vec![3u8; 64], 1)],
            done: done.clone(),
            read_data: Shared::new(Vec::new()),
        });
        // Run to just after completion but before destage.
        sim.run_until(SimTime(cfg.stack_overhead_ns + 1000));
        assert_eq!(done.lock().len(), 1, "write completed fast");
        assert_eq!(media.lock().read(0, 1), vec![0u8], "not yet on media");
        // A power loss here would lose the write (media image is all the
        // durable store keeps; `pending` is actor state and dies with it).
        sim.run_until_idle();
        assert_eq!(media.lock().read(0, 1), vec![3u8], "destaged");
    }

    #[test]
    fn volatile_cache_read_your_writes() {
        let cfg = DiskConfig {
            cache: WriteCachePolicy::Volatile,
            destage_delay_ns: simcore::time::SECS, // keep it pending
            ..DiskConfig::default()
        };
        let (_, reads, _, _) = run(
            cfg,
            vec![
                ClientOp::Write(100, vec![5u8; 8], 1),
                ClientOp::Read(96, 16, 2),
            ],
        );
        let (_, data) = reads.iter().find(|(t, _)| *t == 2).unwrap();
        assert_eq!(&data[4..12], &[5u8; 8]);
        assert_eq!(&data[..4], &[0u8; 4]);
    }

    #[test]
    fn queueing_serializes_mechanical_time() {
        // Two random 4KB write-through ops issued together: the second
        // completes roughly one mechanical service later.
        let script = vec![
            ClientOp::Write(0, vec![1u8; 4096], 1),
            ClientOp::Write(1 << 30, vec![2u8; 4096], 2),
        ];
        let (done, _, _, _) = run(DiskConfig::default(), script);
        let t1 = done.iter().find(|(t, _)| *t == 1).unwrap().1;
        let t2 = done.iter().find(|(t, _)| *t == 2).unwrap().1;
        assert!(t2 > t1 + 1_000_000, "t1={t1} t2={t2}");
    }

    #[test]
    fn overlay_math() {
        let mut buf = vec![0u8; 10];
        overlay(&mut buf, 100, 95, &[1, 1, 1, 1, 1, 1, 1]); // covers 100..102
        assert_eq!(&buf[..2], &[1, 1]);
        assert_eq!(buf[2], 0);
        overlay(&mut buf, 100, 108, &[2, 2, 2, 2]); // covers 108..110
        assert_eq!(&buf[8..], &[2, 2]);
        overlay(&mut buf, 100, 200, &[3]); // no overlap
        assert_eq!(buf[5], 0);
    }
}
