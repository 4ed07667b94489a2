//! The recovery oracle: the acked-commit invariants, stated once.
//!
//! The paper's promise is that a commit the ODS acknowledged survives any
//! single failure, recovered from what reached the NPMUs (or the audit
//! disks) alone. A crash state is whatever reached the array, so the
//! oracle starts from a [`DurableStore`] after power loss:
//!
//! * **One trail reader.** [`Snapshot::read`] opens every audit trail of a
//!   node, a pool, a shard cluster or a DR replica ([`Trails`] says where
//!   they live): a PM trail region from both mirror halves, control cell
//!   first, up to the region's last written block, read as a ring — the
//!   window `[watermark − capacity, watermark)` in LSN order
//!   ([`ring_window`]); a disk trail is its media up to its high water.
//!   Which halves recovery may read is the
//!   pool member's durable health, as the PMM recovers it (its newest
//!   [`VolumeMeta`]): a `Healthy` member's reader may route any read to
//!   either half, so each half must recover every promise; a `Degraded`
//!   or `Resilvering` member's suspect half is read by nobody.
//! * **One check.** [`Snapshot::check`] redoes the snapshot
//!   ([`redo_windows_sharded`]; a node is the one-shard case) once per
//!   half a reader may read and names a [`Violation`] for each breach of
//!   six invariants:
//!   1. every acked transaction whose records all lie at or above its
//!      trail's floor is redone whole, and every recovered commit carries
//!      its full insert set; an acked transaction a lap overwrote is
//!      counted ([`Report::overwritten`]), not flagged — one lap of a
//!      trail is the durability horizon (DESIGN.md §5);
//!   2. nothing is invented: what recovery commits, an uncrashed run
//!      commits too;
//!   3. the 2PC verdict is single-valued, a participant's commit record
//!      stands only behind its coordinator's (the decision leaves once
//!      the commit point is durable), and no shard redoes a key of a
//!      transaction that did not commit;
//!   4. a healthy member's halves agree over the LSNs both windows hold,
//!      up to the lower published watermark;
//!   5. a DR replica's trails are bit-identical prefixes of the primary's,
//!      LSN for LSN;
//!   6. after a completed repair the halves are byte-equal
//!      ([`verify_mirrors`]).
//!
//!   Its [`Report`] also says how each half's read went ([`HalfScan`]), so
//!   a violation can be told from a lap.

use crate::integrity::{verify_mirrors, Discrepancy};
use npmu::NvImage;
use pmm::{MetaStore, VolumeMeta};
use simcore::durable::Image;
use simcore::hash::{FastMap, FastSet};
use simcore::DurableStore;
use std::borrow::Cow;
use txnkit::audit::{ring_window, AuditRecord, Records, Window};
use txnkit::recovery::{redo_windows_sharded, ShardedRecovery};
use txnkit::scenario::{adp_count, AuditMode, ClusterParams, Names, OdsParams, DR_POOL};
use txnkit::trail;
use txnkit::{Lsn, TxnId};

/// Where one shard's audit trails live in a durable store.
#[derive(Clone, Debug)]
pub enum Trails {
    /// PM trail regions `adp<i>.audit`, written by ADP pair `adps[i]`,
    /// each one extent on one member of a pool whose member `v` is the
    /// mirrored pair of images `npmu:<members[v]>-a` / `-b`.
    Pm {
        members: Vec<String>,
        adps: Vec<String>,
    },
    /// One trail per disk audit volume, by its media's store key.
    Disk { media: Vec<String> },
}

impl Trails {
    /// A standalone node's trails (`build_ods`).
    pub fn node(base: &OdsParams) -> Trails {
        Trails::of(Names::Node, base)
    }

    /// Every shard's trails of a cluster (`build_cluster`), in shard order.
    pub fn cluster(params: &ClusterParams) -> Vec<Trails> {
        (0..params.shards)
            .map(|s| Trails::of(Names::Shard(s), &params.base))
            .collect()
    }

    /// A geo-replicated node's DR copies of its trail regions.
    pub fn replica(base: &OdsParams) -> Trails {
        Trails::Pm {
            members: vec![DR_POOL.into()],
            adps: (0..adp_count(base)).map(|i| Names::Node.adp(i)).collect(),
        }
    }

    /// Writes so far to every device image a [`Snapshot`] of these
    /// trails reads. `PageStore::write` is the only way media changes, so
    /// two cuts of one run with the same count and the same acked set
    /// read the same bytes and get the same verdict.
    pub fn media_writes(&self, store: &DurableStore) -> u64 {
        match self {
            Trails::Pm { members, .. } => (members.iter())
                .flat_map(|m| ['a', 'b'].map(|h| npmu_image(m, h)))
                .filter_map(|key| store.get::<NvImage>(&key))
                .map(|img| img.lock().writes())
                .sum(),
            Trails::Disk { media } => (media.iter())
                .filter_map(|key| store.get::<simdisk::SparseMedia>(key))
                .map(|img| img.lock().writes())
                .sum(),
        }
    }

    fn of(names: Names, base: &OdsParams) -> Trails {
        let n = adp_count(base);
        if base.audit == AuditMode::Disk {
            let media = (0..n).map(|i| format!("disk:{}", names.audit_volume(i)));
            return Trails::Disk {
                media: media.collect(),
            };
        }
        Trails::Pm {
            members: (0..base.pm_volumes.max(1)).map(|v| names.npmu(v)).collect(),
            adps: (0..n).map(|i| names.adp(i)).collect(),
        }
    }
}

/// The store key of half `h` (`a` or `b`) of pool member `member`.
fn npmu_image(member: &str, h: char) -> String {
    format!("npmu:{member}-{h}")
}

/// One copy of a trail as the store holds it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Half {
    /// The region's control cell (empty for a disk volume).
    pub cell: Vec<u8>,
    /// The trail past the cell as the device holds it, in ring offsets,
    /// up to the region's last written block (a disk volume: its media up
    /// to its high water).
    pub trail: Vec<u8>,
    /// The trail's durable end: the cell's watermark (0 when no slot is
    /// valid), or a disk volume's high water.
    pub watermark: u64,
    /// The ring's capacity, the region's length past the cell (a disk
    /// volume never wraps: `u64::MAX`).
    pub cap: u64,
    /// The LSN the published trail starts at: 0, or `watermark − cap`
    /// once the ring has lapped.
    pub base: u64,
    /// A lapped ring's published trail in LSN order, `[base, watermark)`
    /// (empty before the first lap, when it is `trail`'s prefix).
    pub window: Vec<u8>,
}

impl Half {
    fn new(cell: Vec<u8>, trail: Vec<u8>, watermark: u64, cap: u64) -> Half {
        let (base, window) = ring_window(&trail, watermark, cap);
        // Before the first lap the window is `trail`'s prefix: no copy.
        let window = match window {
            Cow::Owned(lapped) => lapped,
            Cow::Borrowed(_) => Vec::new(),
        };
        Half {
            cell,
            trail,
            watermark,
            cap,
            base,
            window,
        }
    }

    /// The published trail, each byte at its LSN.
    fn bytes(&self) -> Window<'_> {
        let bytes = match self.base {
            0 => &self.trail[..self.trail.len().min(self.watermark as usize)],
            _ => &self.window,
        };
        Window {
            base: self.base,
            bytes,
        }
    }
}

/// One trail: a PM region's mirror halves `a`, `b` (a half whose image or
/// region is missing is empty), or a disk volume's one copy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trail {
    pub name: String,
    pub halves: Vec<Half>,
    /// The half its member's durable health marks failed or under
    /// repair: no reader reads it.
    pub stale: Option<usize>,
}

impl Trail {
    /// The halves a reader may read, `a` first.
    fn readable(&self) -> impl Iterator<Item = &Half> {
        let stale = self.stale;
        let halves = self.halves.iter().enumerate();
        halves
            .filter(move |&(i, _)| Some(i) != stale)
            .map(|(_, h)| h)
    }

    /// What a reader routing to readable half `h` reads: that half's
    /// published window, or the only readable half's.
    fn view(&self, h: usize) -> Window<'_> {
        let half = self.readable().nth(h).or_else(|| self.readable().next());
        half.map_or_else(Window::default, Half::bytes)
    }

    /// The first readable half's published bytes in LSN order (none if
    /// the trail never reached the store).
    pub fn bytes(&self) -> &[u8] {
        self.view(0).bytes
    }

    /// The first readable half's watermark.
    pub fn watermark(&self) -> u64 {
        self.readable().next().map_or(0, |h| h.watermark)
    }
}

/// Region `name` of one device image, if its metadata holds it.
fn read_half(img: &NvImage, meta: &VolumeMeta, name: &str) -> Option<Half> {
    let r = meta.find(name)?;
    let image = img.read(r.base, img.written_extent(r.base, r.len) as usize);
    let (cell, ring) = trail::split_image(image);
    let watermark = trail::watermark(&cell);
    Some(Half::new(cell, ring, watermark, trail::capacity(r.len)))
}

/// A disk audit volume's media up to its high water.
fn read_disk(store: &DurableStore, key: &str) -> Trail {
    let half = store.get::<simdisk::SparseMedia>(key).map(|m| {
        let m = m.lock();
        let watermark = m.high_water();
        let trail = m.read(0, watermark as usize);
        Half::new(Vec::new(), trail, watermark, u64::MAX)
    });
    Trail {
        name: key.into(),
        halves: half.into_iter().collect(),
        ..Trail::default()
    }
}

/// The LSNs two windows both hold, up to `end`, and each one's bytes
/// there; `None` if they share none.
fn overlap<'a>(x: Window<'a>, y: Window<'a>, end: u64) -> Option<(u64, &'a [u8], &'a [u8])> {
    let from = x.base.max(y.base);
    let end = end
        .min(x.base + x.bytes.len() as u64)
        .min(y.base + y.bytes.len() as u64);
    let at = |w: Window<'a>| &w.bytes[(from - w.base) as usize..(end - w.base) as usize];
    (from < end).then(|| (from, at(x), at(y)))
}

/// Everything the store holds of a site's trails, per shard.
pub struct Snapshot {
    pub shards: Vec<Vec<Trail>>,
    /// The ADP pair writing each PM trail, parallel to `shards` (none
    /// for disk volumes, which never wrap).
    writers: Vec<Vec<String>>,
    /// Every PM pool member whose two images exist: `(member, a, b)`.
    pairs: Vec<(String, Image<NvImage>, Image<NvImage>)>,
}

impl Snapshot {
    /// Open every trail of `site` (one [`Trails`] per shard) in `store`.
    pub fn read(store: &DurableStore, site: &[Trails]) -> Snapshot {
        let mut snapshot = Snapshot {
            shards: Vec::new(),
            writers: Vec::new(),
            pairs: Vec::new(),
        };
        for trails in site {
            let (shard, writers) = match trails {
                Trails::Disk { media } => {
                    (media.iter().map(|k| read_disk(store, k)).collect(), vec![])
                }
                Trails::Pm { members, adps } => {
                    (snapshot.read_pool(store, members, adps.len()), adps.clone())
                }
            };
            snapshot.shards.push(shard);
            snapshot.writers.push(writers);
        }
        snapshot
    }

    /// A pool's trail regions, each from the halves of whichever member
    /// holds it, marked with that member's durable health.
    fn read_pool(&mut self, store: &DurableStore, members: &[String], n: usize) -> Vec<Trail> {
        let mut pool = Vec::new();
        for m in members {
            let imgs = ['a', 'b'].map(|h| store.get::<NvImage>(&npmu_image(m, h)));
            if let [Some(a), Some(b)] = &imgs {
                self.pairs.push((m.clone(), a.clone(), b.clone()));
            }
            let halves = imgs.map(|img| {
                img.map(|img| {
                    let meta = MetaStore::recover(|o, l| img.lock().read(o, l));
                    (img, meta)
                })
            });
            // A degraded PMM writes its metadata to the survivor alone:
            // the member's health is its newest copy's.
            let newest = halves.iter().flatten().max_by_key(|(_, m)| m.epoch);
            let stale = newest.and_then(|(_, m)| m.health.suspect_half());
            pool.push((halves, stale.map(usize::from)));
        }
        let trail = |name: String| {
            let holds = |(_, meta): &(_, VolumeMeta)| meta.find(&name).is_some();
            let Some((halves, stale)) = pool.iter().find(|(h, _)| h.iter().flatten().any(holds))
            else {
                return Trail {
                    name,
                    ..Trail::default()
                };
            };
            let read = |h: &Option<(Image<NvImage>, VolumeMeta)>| {
                let half = h
                    .as_ref()
                    .and_then(|(img, meta)| read_half(&img.lock(), meta, &name));
                half.unwrap_or_default()
            };
            Trail {
                halves: halves.iter().map(read).collect(),
                stale: *stale,
                name,
            }
        };
        (0..n).map(|i| trail(format!("adp{i}.audit"))).collect()
    }

    /// Offline redo/undo over every trail's first readable half.
    pub fn recover(&self) -> ShardedRecovery {
        self.recover_view(0)
    }

    fn recover_view(&self, h: usize) -> ShardedRecovery {
        let windows: Vec<Vec<Window<'_>>> = self
            .shards
            .iter()
            .map(|s| s.iter().map(|t| t.view(h)).collect())
            .collect();
        redo_windows_sharded(&windows)
    }

    /// The acked transactions a lap overwrote in readable half `h`: some
    /// record of theirs begins below its trail's floor.
    fn overwritten(&self, h: usize, expect: &Expect) -> FastSet<TxnId> {
        let floors: FastMap<&str, u64> = (self.shards.iter().zip(&self.writers))
            .flat_map(|(trails, adps)| trails.iter().zip(adps))
            .map(|(t, adp)| (adp.as_str(), t.view(h).base))
            .collect();
        let below = |(_, adp, lsn): &&(TxnId, String, Lsn)| {
            floors.get(adp.as_str()).is_some_and(|&floor| lsn.0 < floor)
        };
        expect.acked_at.iter().filter(below).map(|a| a.0).collect()
    }

    /// Invariants 1–3 over `recovery`, the redo of readable half `h`.
    fn redo_violations(
        &self,
        h: usize,
        recovery: &ShardedRecovery,
        expect: &Expect,
    ) -> Vec<Violation> {
        let committed = &recovery.committed;
        let mut sorted: Vec<TxnId> = committed.iter().copied().collect();
        sorted.sort_unstable();
        let mut v = Vec::new();

        // 1. Acked and inside the horizon ⇒ redone, and redone ⇒ whole.
        // Each insert has its own key; a re-driven insert's second record
        // is the same key.
        let overwritten = self.overwritten(h, expect);
        let owed = |t: &&TxnId| !overwritten.contains(t);
        v.extend(
            expect
                .acked
                .iter()
                .filter(owed)
                .filter(|t| !committed.contains(t))
                .map(|&t| Violation::Lost(t)),
        );
        let mut keys_of: FastMap<TxnId, FastSet<u64>> = FastMap::default();
        let mut owner: FastMap<u64, TxnId> = FastMap::default();
        // Per shard: what its own records prepare and commit.
        let n = self.shards.len();
        let (mut prepared, mut commits) =
            (vec![FastSet::default(); n], vec![FastSet::default(); n]);
        for (s, trails) in self.shards.iter().enumerate() {
            for (_, r) in trails.iter().flat_map(|t| Records::new(t.view(h))) {
                match r {
                    AuditRecord::Insert { txn, key, .. } => {
                        keys_of.entry(txn).or_default().insert(key);
                        owner.insert(key, txn);
                    }
                    AuditRecord::Prepared { txn } => _ = prepared[s].insert(txn),
                    AuditRecord::Commit { txn } => _ = commits[s].insert(txn),
                    _ => {}
                }
            }
        }
        for &t in sorted.iter().filter(owed) {
            let found = keys_of.get(&t).map_or(0, |k| k.len());
            if found != expect.inserts as usize {
                v.push(Violation::HalfApplied(t, found));
            }
        }

        // 2. Nothing invented.
        if let Some(truth) = expect.truth {
            let truth: FastSet<TxnId> = truth.iter().copied().collect();
            let invented = sorted.iter().filter(|t| !truth.contains(t));
            v.extend(invented.map(|&t| Violation::Invented(t)));
        }

        // 3. One verdict per transaction, redone only where it committed.
        let split = sorted.iter().filter(|t| recovery.aborted.contains(t));
        v.extend(split.map(|&t| Violation::SplitVerdict(t)));
        let mut ahead: Vec<TxnId> = (prepared.iter().zip(&commits).enumerate())
            .flat_map(|(s, (p, c))| p.intersection(c).map(move |&t| (s, t)))
            .filter(|&(s, t)| {
                let home = t.coordinator_shard() as usize;
                home != s && commits.get(home).is_some_and(|c| !c.contains(&t))
            })
            .map(|(_, t)| t)
            .collect();
        ahead.sort_unstable();
        v.extend(ahead.into_iter().map(Violation::DecidedAhead));
        let mut keys: Vec<u64> = recovery
            .shards
            .iter()
            .flat_map(|s| s.tables.values().flat_map(|t| t.keys().copied()))
            .collect();
        keys.sort_unstable();
        keys.retain(|k| owner.get(k).is_none_or(|t| !committed.contains(t)));
        v.extend(keys.into_iter().map(Violation::UncommittedApplied));

        v
    }

    /// Recover, and hold the result to every invariant `expect` asks for.
    pub fn check(&self, expect: &Expect) -> Report {
        let recovery = self.recover();
        let mut v = self.redo_violations(0, &recovery, expect);
        // A healthy pair's reader may route any read to `b`: recover what
        // it would, wherever that differs.
        if self.shards.iter().flatten().any(|t| t.view(0) != t.view(1)) {
            for x in self.redo_violations(1, &self.recover_view(1), expect) {
                if !v.contains(&x) {
                    v.push(x);
                }
            }
        }

        // 4. A healthy member's halves agree below the lower watermark,
        // LSN for LSN, wherever both windows reach.
        for t in self.shards.iter().flatten().filter(|t| t.stale.is_none()) {
            if let [a, b] = t.halves.as_slice() {
                let wm = a.watermark.min(b.watermark);
                let Some((from, pa, pb)) = overlap(a.bytes(), b.bytes(), wm) else {
                    continue;
                };
                if pa != pb {
                    let i = pa.iter().zip(pb).position(|(x, y)| x != y).unwrap_or(0);
                    v.push(Violation::MirrorsDiverge(t.name.clone(), from + i as u64));
                }
            }
        }

        // 5. The replica is a bit-identical prefix of the primary: it ends
        // no later, and the LSNs both windows hold carry the same bytes.
        // Below its watermark, past its last written page, the primary
        // reads as zeros (an append's virtual tail is never written), so
        // the zeros a shipped image carries there are the primary's bytes.
        if let Some(replica) = expect.replica {
            let pairs = self
                .shards
                .iter()
                .flatten()
                .zip(replica.shards.iter().flatten());
            for (p, r) in pairs {
                let (pw, rw) = (p.view(0), r.view(0));
                let ends = |w: Window<'_>| w.base + w.bytes.len() as u64;
                let same = overlap(pw, rw, u64::MAX).is_none_or(|(_, x, y)| x == y);
                let past = ends(pw).saturating_sub(rw.base) as usize;
                let zeros = rw.bytes.get(past..).unwrap_or(&[]).iter().all(|&b| b == 0);
                if r.watermark() > p.watermark() || (ends(rw) > ends(pw) && !zeros) || !same {
                    v.push(Violation::NotAPrefix(r.name.clone()));
                }
            }
        }

        // 6. Repaired halves are byte-equal, metadata included.
        if expect.resilvered {
            for (member, a, b) in &self.pairs {
                let found = verify_mirrors(a, b, 8).discrepancies;
                v.extend(
                    found
                        .into_iter()
                        .map(|d| Violation::NotResilvered(member.clone(), d)),
                );
            }
        }
        // A clean report needs no explanation: reading every half once
        // more would double the oracle's scans at every crash point.
        let (halves, txns) = match v.is_empty() {
            true => Default::default(),
            false => (self.half_scans(), self.txn_scans(&v, expect)),
        };
        Report {
            recovery,
            violations: v,
            overwritten: self.overwritten(0, expect).len(),
            halves,
            txns,
        }
    }

    /// How the read of every trail half went, stale halves included.
    fn half_scans(&self) -> Vec<HalfScan> {
        let mut out = Vec::new();
        for t in self.shards.iter().flatten() {
            for (i, half) in t.halves.iter().enumerate() {
                let mut read = Records::new(half.bytes());
                out.push(HalfScan {
                    trail: t.name.clone(),
                    half: i,
                    stale: t.stale == Some(i),
                    watermark: half.watermark,
                    laps: half.watermark.checked_div(half.cap).unwrap_or(0),
                    base: half.base,
                    records: read.by_ref().count(),
                    skipped: read.skipped,
                    stopped_at: read.stopped_at,
                });
            }
        }
        out
    }

    /// What every half of its trail holds where each `Lost` or
    /// `HalfApplied` commit in `violations` was acked.
    fn txn_scans(&self, violations: &[Violation], expect: &Expect) -> Vec<TxnScan> {
        let trails: FastMap<&str, &Trail> = (self.shards.iter().zip(&self.writers))
            .flat_map(|(trails, adps)| adps.iter().map(String::as_str).zip(trails))
            .collect();
        let mut out = Vec::new();
        for v in violations {
            let (Violation::Lost(txn) | Violation::HalfApplied(txn, _)) = v else {
                continue;
            };
            let acked = expect.acked_at.iter().filter(|(t, ..)| t == txn);
            for (_, adp, lsn) in acked {
                let Some(trail) = trails.get(adp.as_str()) else {
                    continue;
                };
                let halves: Vec<HalfAt> = (trail.halves.iter().enumerate())
                    .map(|(i, half)| HalfAt::new(half, trail.stale == Some(i), *lsn))
                    .collect();
                out.push(TxnScan {
                    violation: v.clone(),
                    trail: trail.name.clone(),
                    lsn: *lsn,
                    cause: Cause::of(&halves, *lsn),
                    halves,
                });
            }
        }
        out
    }
}

/// What recovery is held to.
#[derive(Clone, Copy, Default)]
pub struct Expect<'a> {
    /// Transactions acknowledged to a client as committed.
    pub acked: &'a [TxnId],
    /// Every transaction an uncrashed run commits; `None` skips
    /// invariant 2. A run that finished acked all it committed, so its
    /// acked set serves.
    pub truth: Option<&'a [TxnId]>,
    /// Inserts (distinct keys) every transaction carries.
    pub inserts: u32,
    /// Where acked transactions' records begin: `(txn, ADP, lowest LSN)`
    /// per ADP a transaction wrote through (`WorkloadStats::acked_at`).
    /// One whose records begin below that trail's floor was overwritten
    /// by a lap and is owed nothing; with none given, every acked
    /// transaction is owed.
    pub acked_at: &'a [(TxnId, String, Lsn)],
    /// The DR site's snapshot, held to invariant 5.
    pub replica: Option<&'a Snapshot>,
    /// The run ended with every repair done: hold each pool member's
    /// halves to invariant 6.
    pub resilvered: bool,
}

impl<'a> Expect<'a> {
    /// A finished run: every commit it made was acked, `inserts` each.
    pub fn finished(acked: &'a [TxnId], inserts: u32) -> Expect<'a> {
        Expect {
            acked,
            truth: Some(acked),
            inserts,
            ..Expect::default()
        }
    }
}

/// One breach of an invariant, named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// 1: an acknowledged transaction is not recovered as committed.
    Lost(TxnId),
    /// 1: a recovered commit carries this many of its inserts.
    HalfApplied(TxnId, usize),
    /// 2: recovered as committed, but the uncrashed run never commits it.
    Invented(TxnId),
    /// 3: recovered both committed and aborted.
    SplitVerdict(TxnId),
    /// 3: a participant shard's own record commits this transaction, and
    /// its coordinator's trail holds no commit record: the decision left
    /// before the commit point was durable.
    DecidedAhead(TxnId),
    /// 3: a shard redid this key, whose transaction did not commit.
    UncommittedApplied(u64),
    /// 4: this trail's halves differ at this offset, below the lower
    /// published watermark.
    MirrorsDiverge(String, u64),
    /// 5: this replica trail is not a prefix of the primary's.
    NotAPrefix(String),
    /// 6: this repaired pool member's halves differ.
    NotResilvered(String, Discrepancy),
}

/// How the read of one trail half went: what a `Lost` is weighed
/// against (a dropped record stops a scan short; a lap moves the floor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfScan {
    pub trail: String,
    /// 0 for `a`, 1 for `b`.
    pub half: usize,
    /// Its member's durable health marks it stale: no reader reads it.
    pub stale: bool,
    pub watermark: u64,
    /// Whole rings written below the watermark.
    pub laps: u64,
    /// The window's floor, the lowest LSN the ring still holds.
    pub base: u64,
    /// Records the scan read.
    pub records: usize,
    /// Non-zero bytes the read of a lapped window passed over.
    pub skipped: u64,
    /// Where an undecodable byte stopped the read; `None` when it reached
    /// the window's end.
    pub stopped_at: Option<Lsn>,
}

/// What one trail half holds at the LSN a commit was acked at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfAt {
    /// Its member's durable health marks it stale: no reader reads it.
    pub stale: bool,
    /// The half's window `[floor, watermark)`.
    pub floor: u64,
    pub watermark: u64,
    /// A record decodes at the LSN.
    pub decodes: bool,
}

impl HalfAt {
    fn new(half: &Half, stale: bool, lsn: Lsn) -> HalfAt {
        let Window { base, bytes } = half.bytes();
        let at = lsn
            .0
            .checked_sub(base)
            .and_then(|o| bytes.get(o as usize..));
        HalfAt {
            stale,
            floor: base,
            watermark: half.watermark,
            decodes: at.and_then(AuditRecord::decode).is_some(),
        }
    }

    fn holds(&self, lsn: Lsn) -> bool {
        (self.floor..self.watermark).contains(&lsn.0)
    }
}

/// Why a commit is not whole, as its trail's halves tell it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// No readable half holds a record where it was acked (nothing
    /// published it, or the bytes there are torn), or one does and a
    /// later record of it is missing.
    DroppedRecord,
    /// A lapped window holds its LSN and nothing decodes there: a
    /// fragment of an older lap.
    LappedFragment,
    /// One readable half holds its record; another's watermark stops
    /// short of it.
    StaleHalf,
}

impl Cause {
    fn of(halves: &[HalfAt], lsn: Lsn) -> Cause {
        let readable = || halves.iter().filter(|h| !h.stale);
        if readable().any(|h| h.holds(lsn) && h.decodes) && readable().any(|h| !h.holds(lsn)) {
            Cause::StaleHalf
        } else if readable().any(|h| h.holds(lsn) && !h.decodes && h.floor > 0) {
            Cause::LappedFragment
        } else {
            Cause::DroppedRecord
        }
    }
}

/// A `Lost` or `HalfApplied` commit at one LSN it was acked at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnScan {
    pub violation: Violation,
    /// The trail the acking ADP writes.
    pub trail: String,
    /// The lowest LSN the commit wrote there.
    pub lsn: Lsn,
    /// Every half of the trail, `a` first.
    pub halves: Vec<HalfAt>,
    pub cause: Cause,
}

impl std::fmt::Display for TxnScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cause = match self.cause {
            Cause::DroppedRecord => "a dropped record",
            Cause::LappedFragment => "a lapped fragment",
            Cause::StaleHalf => "a stale half",
        };
        write!(
            f,
            "{:?} acked at {} LSN {}: {cause}",
            self.violation, self.trail, self.lsn.0
        )?;
        for (i, h) in self.halves.iter().enumerate() {
            let holds = match h.holds(self.lsn) {
                true => "holds it",
                false => "does not hold it",
            };
            let decodes = match h.decodes {
                true => "a record decodes there",
                false => "no record decodes there",
            };
            let stale = if h.stale { " (stale, not read)" } else { "" };
            write!(
                f,
                "; half {i}{stale}: window [{}, {}) {holds}, {decodes}",
                h.floor, h.watermark
            )?;
        }
        Ok(())
    }
}

/// A recovery and what it breached.
pub struct Report {
    pub recovery: ShardedRecovery,
    pub violations: Vec<Violation>,
    /// Acked transactions a lap overwrote before the cut: beyond the
    /// durability horizon, so counted rather than flagged.
    pub overwritten: usize,
    /// How each trail half's read went, when the report names a
    /// violation.
    pub halves: Vec<HalfScan>,
    /// Where each `Lost` or `HalfApplied` commit was acked
    /// ([`Expect::acked_at`]), and what its trail's halves hold there.
    pub txns: Vec<TxnScan>,
}

impl Report {
    /// Acknowledged transactions recovery did not redo.
    pub fn lost(&self) -> usize {
        let lost = |v: &&Violation| matches!(v, Violation::Lost(_));
        self.violations.iter().filter(lost).count()
    }

    /// The violations, how each trail half was read, then what the
    /// halves hold where each lost or half-applied commit was acked.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "{} violations: {:?}; {} acked overwritten by a lap",
            self.violations.len(),
            self.violations,
            self.overwritten
        );
        for h in &self.halves {
            out += &format!("\n  {h:?}");
        }
        for t in &self.txns {
            out += &format!("\n  {t}");
        }
        out
    }

    /// Fail with every violation listed, `what` naming the run.
    #[track_caller]
    pub fn assert_clean(&self, what: &str) {
        assert!(self.violations.is_empty(), "{what}: {}", self.explain());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm::{HealthState, RegionMeta, META_BYTES};
    use txnkit::trail::{encode_ctrl_slot, PM_CTRL_BYTES};
    use txnkit::PartitionId;
    use Violation::*;

    fn ins(txn: u64, key: u64) -> AuditRecord {
        AuditRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId { file: 0, part: 0 },
            key,
            virtual_len: 4096,
            body_crc: 0,
            body: Default::default(),
        }
    }

    /// A trail: transaction `id` inserts `keys` then commits, for each
    /// `(id, keys)`; `aborted` ids end in an abort record instead.
    fn trail(txns: &[(u64, &[u64])], aborted: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(id, keys) in txns {
            let txn = TxnId(id);
            for &key in keys {
                out.extend_from_slice(&ins(id, key).encode());
            }
            let end = match aborted.contains(&id) {
                true => AuditRecord::Abort { txn },
                false => AuditRecord::Commit { txn },
            };
            out.extend_from_slice(&end.encode());
        }
        out
    }

    /// One image of a one-region member: metadata recording `health`
    /// (at a later epoch than a healthy half's), a control cell
    /// publishing the first `published` bytes, then `bytes`.
    fn put_half(
        store: &mut DurableStore,
        key: &str,
        bytes: &[u8],
        published: usize,
        health: HealthState,
    ) {
        let region = RegionMeta {
            id: 0,
            name: "adp0.audit".into(),
            base: META_BYTES,
            len: 64 << 10,
            owner_cpu: 0,
        };
        let meta = VolumeMeta {
            epoch: 1 + u64::from(!health.is_healthy()),
            regions: vec![region],
            health,
            ..VolumeMeta::default()
        };
        let img = store.get_or_insert_with(key, || NvImage::new(1 << 20));
        let mut img = img.lock();
        img.write(MetaStore::slot_for_epoch(meta.epoch), &meta.encode());
        img.write(META_BYTES, &encode_ctrl_slot(published as u64));
        img.write(META_BYTES + PM_CTRL_BYTES, bytes);
    }

    /// Both halves of `member` hold `bytes`, all published.
    fn put_pair(store: &mut DurableStore, member: &str, bytes: &[u8]) {
        for h in ['a', 'b'] {
            let key = format!("npmu:{member}-{h}");
            put_half(store, &key, bytes, bytes.len(), HealthState::Healthy);
        }
    }

    /// One shard per member, one trail each.
    fn site(members: &[&str]) -> Vec<Trails> {
        let pm = |m: &&str| Trails::Pm {
            members: vec![m.to_string()],
            adps: vec![format!("$ADP-{m}")],
        };
        members.iter().map(pm).collect()
    }

    fn check(store: &DurableStore, members: &[&str], expect: &Expect) -> Report {
        Snapshot::read(store, &site(members)).check(expect)
    }

    fn violations(store: &DurableStore, members: &[&str], expect: Expect) -> Vec<Violation> {
        check(store, members, &expect).violations
    }

    const HEALTHY: HealthState = HealthState::Healthy;
    const T1: &[TxnId] = &[TxnId(1)];
    const T12: &[TxnId] = &[TxnId(1), TxnId(2)];

    #[test]
    fn a_whole_recovered_history_breaks_nothing() {
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &trail(&[(1, &[10, 11])], &[]));
        let repaired = Expect {
            resilvered: true,
            ..Expect::finished(T1, 2)
        };
        assert_eq!(violations(&store, &["pm"], repaired), vec![]);
    }

    /// `report` names one `Lost` or `HalfApplied` commit, at `lsn`, and
    /// `cause` as why.
    fn assert_explained(report: &Report, lsn: u64, cause: Cause, says: &str) {
        let [txn] = &report.txns[..] else {
            panic!("one commit explained: {}", report.explain());
        };
        assert_eq!((txn.lsn, txn.cause), (Lsn(lsn), cause), "{txn}");
        let line = format!("acked at adp0.audit LSN {lsn}: {says}");
        assert!(report.explain().contains(&line), "{}", report.explain());
    }

    #[test]
    fn a_dropped_acked_txn_is_lost() {
        let mut store = DurableStore::new();
        let bytes = trail(&[(1, &[10])], &[]);
        put_pair(&mut store, "pm", &bytes);
        // Txn 2 was acked where its record would follow txn 1's: no half
        // published it.
        let acked_at = at(&[(1, 0), (2, bytes.len() as u64)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T12, 1)
        };
        let report = check(&store, &["pm"], &expect);
        assert_eq!(report.violations, vec![Lost(TxnId(2))]);
        assert_eq!(report.lost(), 1);
        let dropped = Cause::DroppedRecord;
        assert_explained(&report, bytes.len() as u64, dropped, "a dropped record");
        assert!(report.explain().contains("does not hold it"));
    }

    #[test]
    fn a_commit_the_uncrashed_run_never_made_is_invented() {
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &trail(&[(1, &[10]), (3, &[30])], &[]));
        let v = violations(&store, &["pm"], Expect::finished(T1, 1));
        assert_eq!(v, vec![Invented(TxnId(3))]);
    }

    #[test]
    fn a_half_applied_commit_is_named() {
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &trail(&[(1, &[10])], &[]));
        let acked_at = at(&[(1, 0)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T1, 2)
        };
        let report = check(&store, &["pm"], &expect);
        assert_eq!(report.violations, vec![HalfApplied(TxnId(1), 1)]);
        // Its first record is where it was acked; a later one was dropped.
        assert_explained(&report, 0, Cause::DroppedRecord, "a dropped record");
        assert!(report
            .explain()
            .contains("holds it, a record decodes there"));
    }

    #[test]
    fn a_txn_committed_on_one_shard_and_aborted_on_another_is_a_split_verdict() {
        let mut store = DurableStore::new();
        put_pair(&mut store, "s0", &trail(&[(7, &[1])], &[]));
        put_pair(&mut store, "s1", &trail(&[(7, &[2])], &[7]));
        let two = Expect {
            inserts: 2,
            ..Expect::default()
        };
        let v = violations(&store, &["s0", "s1"], two);
        assert_eq!(v, vec![SplitVerdict(TxnId(7))]);
    }

    #[test]
    fn a_participant_commit_ahead_of_its_coordinators_is_named() {
        let txn = TxnId(7);
        let two = Expect {
            inserts: 2,
            ..Expect::default()
        };
        let participant: Vec<u8> = [ins(7, 2), AuditRecord::Prepared { txn }, commit(7)]
            .iter()
            .flat_map(|r| r.encode().to_vec())
            .collect();
        let mut store = DurableStore::new();
        put_pair(&mut store, "s0", &ins(7, 1).encode());
        put_pair(&mut store, "s1", &participant);
        assert_eq!(
            violations(&store, &["s0", "s1"], two),
            vec![DecidedAhead(txn)]
        );
        // Behind the coordinator's commit record, the same record stands.
        let mut store = DurableStore::new();
        put_pair(&mut store, "s0", &trail(&[(7, &[1])], &[]));
        put_pair(&mut store, "s1", &participant);
        assert_eq!(violations(&store, &["s0", "s1"], two), vec![]);
    }

    #[test]
    fn a_mirror_byte_flipped_below_the_watermark_is_named() {
        let bytes = trail(&[(1, &[10, 11])], &[]);
        let mut flipped = bytes.clone();
        flipped[3] ^= 0x40;
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &bytes);
        put_half(&mut store, "npmu:pm-b", &flipped, bytes.len(), HEALTHY);
        // A reader routed to `b` no longer finds txn 1 whole: its first
        // record there is torn.
        let diverge = MirrorsDiverge("adp0.audit".into(), 3);
        let acked_at = at(&[(1, 0)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T1, 2)
        };
        let report = check(&store, &["pm"], &expect);
        assert_eq!(report.violations, vec![Lost(TxnId(1)), diverge]);
        assert_explained(&report, 0, Cause::DroppedRecord, "a dropped record");
        let [a, b] = &report.txns[0].halves[..] else {
            panic!("two halves")
        };
        assert!(a.decodes && !b.decodes);
        // Repaired halves must agree everywhere: invariant 6 fails too.
        let repaired = Expect {
            resilvered: true,
            ..Expect::finished(T1, 2)
        };
        let v = violations(&store, &["pm"], repaired);
        assert!(matches!(
            v[..],
            [Lost(_), MirrorsDiverge(..), NotResilvered(..)]
        ));

        // Past the lower watermark the halves may differ (a tail not yet
        // published on `a`), but not once the pair is repaired.
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &bytes);
        let tail = trail(&[(1, &[10, 11]), (2, &[20, 21])], &[]);
        put_half(&mut store, "npmu:pm-b", &tail, bytes.len(), HEALTHY);
        assert_eq!(violations(&store, &["pm"], Expect::finished(T1, 2)), vec![]);
        let v = violations(&store, &["pm"], repaired);
        assert!(matches!(v[..], [NotResilvered(..)]));
    }

    #[test]
    fn a_replica_that_is_not_a_prefix_is_named() {
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &trail(&[(1, &[10]), (2, &[20])], &[]));
        let mut shipped = trail(&[(1, &[10])], &[]);
        let mut check_replica = |shipped: &[u8]| {
            put_pair(&mut store, DR_POOL, shipped);
            let replica = Snapshot::read(&store, &site(&[DR_POOL]));
            let expect = Expect {
                inserts: 1,
                replica: Some(&replica),
                ..Expect::default()
            };
            violations(&store, &["pm"], expect)
        };
        assert_eq!(check_replica(&shipped), vec![]);
        shipped[12] ^= 1;
        assert_eq!(
            check_replica(&shipped),
            vec![NotAPrefix("adp0.audit".into())]
        );
    }

    /// A primary whose last append's virtual tail crosses into a page it
    /// never wrote reads as zeros there; a replica that wrote the shipped
    /// image of that tail — zeros — holds the same bytes, one page more of
    /// them. A non-zero byte there is not the primary's.
    #[test]
    fn a_replica_holding_the_zeros_of_a_virtual_tail_is_a_prefix() {
        let bytes = trail(&[(1, &[10]), (2, &[20])], &[]);
        let published = bytes.len() + 4096;
        let mut store = DurableStore::new();
        for half in ["npmu:pm-a", "npmu:pm-b"] {
            put_half(&mut store, half, &bytes, published, HEALTHY);
        }
        let mut check_replica = |shipped: &[u8]| {
            for half in ["npmu:drpm-a", "npmu:drpm-b"] {
                put_half(&mut store, half, shipped, published, HEALTHY);
            }
            let replica = Snapshot::read(&store, &site(&[DR_POOL]));
            let expect = Expect {
                inserts: 1,
                replica: Some(&replica),
                ..Expect::default()
            };
            violations(&store, &["pm"], expect)
        };
        let mut shipped = bytes.clone();
        shipped.resize(published, 0);
        assert_eq!(check_replica(&shipped), vec![]);
        shipped[published - 1] = 1;
        assert_eq!(
            check_replica(&shipped),
            vec![NotAPrefix("adp0.audit".into())]
        );
    }

    /// Half `a` missed txn 2 while `health` was recorded on `b`.
    fn stale_a(health: HealthState) -> (DurableStore, Vec<u8>) {
        let new = trail(&[(1, &[10]), (2, &[20])], &[]);
        let old = trail(&[(1, &[10])], &[]);
        let mut store = DurableStore::new();
        put_half(&mut store, "npmu:pm-a", &old, old.len(), HEALTHY);
        put_half(&mut store, "npmu:pm-b", &new, new.len(), health);
        (store, new)
    }

    #[test]
    fn a_half_the_pmm_marked_stale_is_not_read() {
        for health in [
            HealthState::Degraded {
                half: 0,
                since_epoch: 1,
                dirty_upto: 1 << 20,
            },
            HealthState::Resilvering {
                half: 0,
                since_epoch: 1,
                dirty_upto: 1 << 20,
                pass: 0,
            },
        ] {
            let (store, new) = stale_a(health);
            let snapshot = Snapshot::read(&store, &site(&["pm"]));
            assert_eq!(snapshot.shards[0][0].watermark(), new.len() as u64);
            let report = snapshot.check(&Expect::finished(T12, 1));
            report.assert_clean("stale a");
        }
    }

    #[test]
    fn an_ack_on_one_half_of_a_healthy_pair_is_lost() {
        // Nothing marked `a` stale, so a reader may route to it: txn 2,
        // durable on `b` alone, is lost there.
        let old = trail(&[(1, &[10])], &[]);
        let acked_at = at(&[(1, 0), (2, old.len() as u64)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T12, 1)
        };
        let (store, _) = stale_a(HEALTHY);
        let report = check(&store, &["pm"], &expect);
        assert_eq!(report.violations, vec![Lost(TxnId(2))]);
        let lsn = old.len() as u64;
        assert_explained(&report, lsn, Cause::StaleHalf, "a stale half");
        // The same state with `a`, then `b`, the half left behind.
        let (mut store, new) = stale_a(HEALTHY);
        put_half(&mut store, "npmu:pm-a", &new, new.len(), HEALTHY);
        put_half(&mut store, "npmu:pm-b", &old, old.len(), HEALTHY);
        let report = check(&store, &["pm"], &expect);
        assert_eq!(report.violations, vec![Lost(TxnId(2))]);
        assert_explained(&report, lsn, Cause::StaleHalf, "a stale half");
    }

    /// The test region's ring: 64 KiB less the control cell.
    const CAP: u64 = (64 << 10) - PM_CTRL_BYTES;

    fn commit(txn: u64) -> AuditRecord {
        AuditRecord::Commit { txn: TxnId(txn) }
    }

    /// Both halves of member "pm" hold `recs`, each at offset `lsn mod
    /// CAP` of the ring, published up to `watermark`.
    fn put_ring(store: &mut DurableStore, recs: &[(u64, AuditRecord)], watermark: u64) {
        let mut ring = vec![0u8; CAP as usize];
        for (lsn, r) in recs {
            for (i, b) in r.encode().iter().enumerate() {
                ring[((lsn + i as u64) % CAP) as usize] = *b;
            }
        }
        for h in ['a', 'b'] {
            let key = format!("npmu:pm-{h}");
            put_half(store, &key, &ring, watermark as usize, HEALTHY);
        }
    }

    /// Where `txns` wrote, in `site(&["pm"])`'s one trail.
    fn at(txns: &[(u64, u64)]) -> Vec<(TxnId, String, Lsn)> {
        let at = |&(t, lsn): &(u64, u64)| (TxnId(t), "$ADP-pm".to_string(), Lsn(lsn));
        txns.iter().map(at).collect()
    }

    #[test]
    fn a_record_split_across_the_ring_end_redoes() {
        // Txn 1's first insert starts 20 bytes short of the ring's end.
        let first = CAP - 20;
        let recs = [
            (first, ins(1, 10)),
            (first + 4096, ins(1, 11)),
            (first + 8192, commit(1)),
        ];
        let mut store = DurableStore::new();
        put_ring(&mut store, &recs, first + 8192 + 64);
        let acked_at = at(&[(1, first)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T1, 2)
        };
        let snapshot = Snapshot::read(&store, &site(&["pm"]));
        assert!(snapshot.shards[0][0].halves[0].base > 0, "the ring lapped");
        let report = snapshot.check(&expect);
        report.assert_clean("a wrapped record");
        assert_eq!(report.overwritten, 0);
    }

    /// Txn 1 began at LSN 0 and a lap overwrote its head: txn 2's second
    /// insert lies at LSN `CAP`, offset 0. The floor ends up inside an
    /// insert of txn 9 (never committed), so the window opens on a
    /// fragment of it.
    fn lapped_over_txn_1() -> (Vec<(u64, AuditRecord)>, u64) {
        let recs = vec![
            (0, ins(1, 10)),
            (4100, ins(9, 90)),
            (8196, ins(1, 11)),
            (12292, commit(1)),
            (CAP - 4096, ins(2, 20)),
            (CAP, ins(2, 21)),
            (CAP + 4096, commit(2)),
        ];
        (recs, CAP + 4130)
    }

    /// The oracle's verdict on that ring for `acked` commits (two
    /// inserts each) whose records begin `at` these LSNs, or with none
    /// given.
    fn check_lapped(acked: &[TxnId], at_lsns: &[(u64, u64)]) -> Report {
        let (recs, wm) = lapped_over_txn_1();
        let mut store = DurableStore::new();
        put_ring(&mut store, &recs, wm);
        let acked_at = at(at_lsns);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(acked, 2)
        };
        check(&store, &["pm"], &expect)
    }

    #[test]
    fn an_acked_txn_a_lap_overwrote_is_counted_not_flagged() {
        let report = check_lapped(T12, &[(1, 0), (2, CAP - 4096)]);
        // Txn 1 redoes with one insert of two: below the horizon, it is
        // owed nothing.
        assert!(report.recovery.committed.contains(&TxnId(1)));
        report.assert_clean("one lap over txn 1");
        assert_eq!(report.overwritten, 1);
        // Without the acks' LSNs every acked commit is owed.
        let v = check_lapped(T12, &[]).violations;
        assert_eq!(v, vec![HalfApplied(TxnId(1), 1)]);
    }

    #[test]
    fn a_missing_txn_that_begins_at_the_floor_is_lost() {
        // Txn 3 was acked from the floor (LSN 4130) up, yet none of it is
        // on the ring.
        let acked = [TxnId(1), TxnId(2), TxnId(3)];
        let report = check_lapped(&acked, &[(1, 0), (2, CAP - 4096), (3, 4130)]);
        assert_eq!(report.violations, vec![Lost(TxnId(3))]);
        assert_eq!(report.overwritten, 1);
        // The floor opens on the tail of txn 9's insert.
        let fragment = Cause::LappedFragment;
        assert_explained(&report, 4130, fragment, "a lapped fragment");
    }

    #[test]
    fn the_explanation_tells_a_lap_from_a_dropped_record() {
        // A lap: the read skips the fragment at the floor and reaches the
        // window's end, while txn 3, acked from the floor up, is missing.
        let acked = [TxnId(1), TxnId(2), TxnId(3)];
        let lap = check_lapped(&acked, &[(1, 0), (2, CAP - 4096), (3, 4130)]);
        let a = &lap.halves[0];
        assert_eq!((a.laps, a.base, a.stopped_at), (1, 4130, None));
        assert!(a.skipped > 0 && a.records == 5, "{a:?}");
        assert!(lap.explain().contains("stopped_at: None"));
        let fragment = Cause::LappedFragment;
        assert_explained(&lap, 4130, fragment, "a lapped fragment");
        // A dropped record: txn 2's first insert torn in place on an
        // unlapped trail. The read stops there, and txn 2 is lost, not
        // overwritten.
        let mut bytes = trail(&[(1, &[10])], &[]);
        let at2 = bytes.len();
        bytes.extend(trail(&[(2, &[20])], &[]));
        bytes[at2 + 12] ^= 1;
        let mut store = DurableStore::new();
        put_pair(&mut store, "pm", &bytes);
        let acked_at = at(&[(1, 0), (2, at2 as u64)]);
        let expect = Expect {
            acked_at: &acked_at,
            ..Expect::finished(T12, 1)
        };
        let dropped = check(&store, &["pm"], &expect);
        assert_eq!(dropped.violations, vec![Lost(TxnId(2))]);
        assert_eq!(dropped.overwritten, 0);
        let a = &dropped.halves[0];
        let torn = Some(Lsn(at2 as u64));
        assert_eq!((a.laps, a.skipped, a.stopped_at), (0, 0, torn));
        assert!(dropped.explain().contains(&format!("stopped_at: {torn:?}")));
        let cause = Cause::DroppedRecord;
        assert_explained(&dropped, at2 as u64, cause, "a dropped record");
    }
}
