//! Crash recovery: latest valid checkpoint + commit-ordered log replay,
//! with cross-shard 2PC resolution.
//!
//! Replay is pure post-image application in LSN order, so it needs no
//! transactions: each shard's surviving state is folded into an ordered
//! map, then bulk-loaded into a *fresh* backend instance. Torn or
//! corrupt tail records are detected by checksum and dropped (nothing
//! past the last valid frame was ever reported durable).
//!
//! ## 2PC resolution (presumed abort, decision-anywhere commit)
//!
//! The live protocol orders its records so that recovery can decide any
//! in-flight cross-shard transaction from the logs alone:
//!
//! 1. a participant's `XBegin` (participant set + undo image) and
//!    `XApply` (post-image) are appended together, `XBegin` first — so a
//!    surviving `XApply` always has its `XBegin` ahead of it in the same
//!    log;
//! 2. every participant's `XApply` is durable (one durable round for all
//!    the legs) before any `XDecide` is appended, so every leg is durable
//!    before any decision can be;
//! 3. Sync acks after the first durable `XDecide`; Async acks do not
//!    wait (the decisions ride the next group commit);
//! 4. the `XDecide` goes to every participant before the `XLock`s drop,
//!    so any later record on a participant that could conflict with the
//!    transaction (the next cross-shard leg, a local call) lies behind
//!    its `XDecide` and is durable only if that decision is;
//! 5. a checkpoint prunes only once every shard is durable through what
//!    it has appended, so no checkpoint prunes a decision that is not yet
//!    durable on the other participants.
//!
//! So: an `XDecide` in **any** participant's log proves every
//! participant's `XApply` survived — replaying the post-images commits
//! the transaction everywhere — and a decision a checkpoint pruned from
//! one log is durable in the others. No decision anywhere means the
//! transaction was never Sync-acked: participants whose `XApply` survived
//! are compensated from their `XBegin` (delta-undo for `Add` parts,
//! which commutes with later logged local updates; image-restore for
//! blind `Put` parts, which by rule 4 no surviving later call
//! overwrote), and everyone else never applied — all shards converge on
//! "it didn't happen". An Async ack may name such a transaction: Async
//! acks promise no durability, only no torn state.
//!
//! An `XAbort` on a shard marks that shard's part as compensated by the
//! live coordinator and carries the compensation post-image in the same
//! atomic record, so recovery replays it and skips compensating *that
//! shard* — other participants whose own `XAbort` didn't reach disk are
//! still compensated here. A
//! degraded shard still takes the `XAbort` (and the `XDecide`), behind
//! the leg's retained frames, so a rejoin never makes a leg durable
//! without how it ended.
//!
//! Recovery ends by writing a fresh checkpoint per shard and pruning
//! the replayed segments, so the next [`super::WalSet::open`] starts
//! from a compact, valid on-disk state — and recovery itself is
//! idempotent.

use super::checkpoint;
use super::record::{decode_all, DecodeTail, Record};
use super::wal::{segments, DurabilityConfig, WalSet};
use crate::shard::{ShardMap, UndoImage, XUpdate};
use crate::store::KvStore;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use tm_api::TmBackend;
use txmem::Addr;

/// What a recovery pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub shards: usize,
    /// Entries loaded from checkpoint files.
    pub checkpoint_entries: u64,
    /// Log records replayed past the checkpoints.
    pub replayed: u64,
    /// Torn/corrupt tail events dropped by checksum (≤ 1 per segment).
    pub torn_tails: u64,
    /// In-flight cross-shard transactions resolved as committed (a
    /// decision record was found in some participant's log).
    pub xids_committed: u64,
    /// In-flight cross-shard transactions resolved by compensation
    /// (presumed abort: no decision anywhere).
    pub xids_compensated: u64,
}

#[derive(Default)]
struct XidState {
    decided: bool,
    /// Shards whose own `XAbort` (marker + compensation post-image in
    /// one record) survived: already rolled back by replay.
    aborted_on: HashSet<usize>,
    /// Shards whose `XApply` survived, with the prepare-time info needed
    /// to compensate them.
    applied: Vec<(usize, XUpdate, UndoImage)>,
    /// Prepare info per shard (filled from `XBegin`).
    begun: HashMap<usize, (XUpdate, UndoImage)>,
}

/// Rebuild every shard's state from disk into fresh backend instances.
///
/// `mk_backend`, `base` and `words` mirror [`crate::shard::build_domains`]:
/// each shard gets its own backend (own memory, own quiescence domain)
/// and a store bulk-loaded with its recovered entries.
pub fn recover<B: TmBackend>(
    dir: &Path,
    map: &ShardMap,
    mut mk_backend: impl FnMut(usize) -> B,
    base: Addr,
    words: u64,
) -> std::io::Result<(Vec<(B, KvStore)>, RecoveryReport)> {
    let shards = map.shards();
    let storage = super::storage::default_storage();
    let mut report = RecoveryReport { shards, ..RecoveryReport::default() };

    // Pass 1: load checkpoints and surviving records per shard.
    let mut ckpt_lsns = vec![0u64; shards];
    let mut shard_records: Vec<Vec<Record>> = Vec::with_capacity(shards);
    let mut states: Vec<BTreeMap<u64, u64>> = Vec::with_capacity(shards);
    for (s, ckpt_lsn) in ckpt_lsns.iter_mut().enumerate() {
        let sdir = dir.join(format!("shard-{s}"));
        std::fs::create_dir_all(&sdir)?;
        let mut state = BTreeMap::new();
        if let Some((lsn, entries)) = checkpoint::latest_valid(&sdir) {
            *ckpt_lsn = lsn;
            report.checkpoint_entries += entries.len() as u64;
            state.extend(entries);
        }
        let mut records = Vec::new();
        let mut last_lsn = *ckpt_lsn;
        for (_, path) in segments(&sdir)? {
            let bytes = std::fs::read(&path)?;
            let (recs, tail) = decode_all(&bytes);
            if matches!(tail, DecodeTail::Torn { .. }) {
                report.torn_tails += 1;
            }
            for rec in recs {
                // LSN-filter: skip what the checkpoint covers and any
                // stale overlap a failed prune left behind.
                if rec.lsn() > last_lsn {
                    last_lsn = rec.lsn();
                    records.push(rec);
                }
            }
        }
        shard_records.push(records);
        states.push(state);
    }

    // Pass 2: resolve cross-shard transactions across all logs.
    let mut xids: HashMap<u64, XidState> = HashMap::new();
    for (s, records) in shard_records.iter().enumerate() {
        for rec in records {
            match rec {
                Record::XBegin { xid, upd, undo, .. } => {
                    xids.entry(*xid).or_default().begun.insert(s, (upd.clone(), undo.clone()));
                }
                Record::XApply { xid, .. } => {
                    let st = xids.entry(*xid).or_default();
                    if let Some((upd, undo)) = st.begun.get(&s) {
                        st.applied.push((s, upd.clone(), undo.clone()));
                    }
                }
                Record::XDecide { xid, .. } => xids.entry(*xid).or_default().decided = true,
                Record::XAbort { xid, .. } => {
                    xids.entry(*xid).or_default().aborted_on.insert(s);
                }
                Record::Write { .. } => {}
            }
        }
    }

    // Pass 3: replay post-images in LSN order, then compensate the
    // dangling (undecided, unaborted) transactions' applied parts.
    for (s, records) in shard_records.iter().enumerate() {
        let state = &mut states[s];
        for rec in records {
            match rec {
                Record::Write { writes, .. }
                | Record::XApply { writes, .. }
                | Record::XAbort { writes, .. } => {
                    report.replayed += 1;
                    for &(k, v) in writes {
                        match v {
                            Some(v) => {
                                state.insert(k, v);
                            }
                            None => {
                                state.remove(&k);
                            }
                        }
                    }
                }
                _ => {
                    report.replayed += 1;
                }
            }
        }
    }
    let mut resolved: Vec<(&u64, &XidState)> = xids
        .iter()
        .filter(|(_, st)| {
            !st.decided && st.applied.iter().any(|(s, ..)| !st.aborted_on.contains(s))
        })
        .collect();
    resolved.sort_by_key(|(xid, _)| **xid);
    for (_, st) in &resolved {
        report.xids_compensated += 1;
        for (s, upd, undo) in &st.applied {
            // Shards whose own XAbort survived already rolled back via
            // that record's replayed post-image — don't undo them twice.
            if !st.aborted_on.contains(s) {
                compensate(&mut states[*s], upd, undo);
            }
        }
    }
    report.xids_committed =
        xids.values().filter(|st| st.decided && !st.applied.is_empty()).count() as u64;

    // Pass 4: fresh backends, compact on-disk state (checkpoint at the
    // replay horizon, covered segments pruned) so the next open — and a
    // repeated recovery — starts from exactly this state.
    let mut domains = Vec::with_capacity(shards);
    for (s, state) in states.iter().enumerate() {
        let sdir = dir.join(format!("shard-{s}"));
        let horizon = shard_records[s].last().map(|r| r.lsn()).unwrap_or(ckpt_lsns[s]);
        let entries: Vec<(u64, u64)> = state.iter().map(|(&k, &v)| (k, v)).collect();
        checkpoint::write(storage.as_ref(), &sdir, s, horizon, &entries)
            .map_err(std::io::Error::other)?;
        for (first, path) in segments(&sdir)? {
            if first <= horizon {
                let _ = std::fs::remove_file(path);
            }
        }
        checkpoint::prune_older(&sdir, horizon);
        let backend = mk_backend(s);
        let store = KvStore::create_with(
            tm_api::TmBackend::memory(&backend),
            base,
            words,
            entries.iter().copied(),
        );
        domains.push((backend, store));
    }
    Ok((domains, report))
}

/// Undo one applied participant's part, mirroring the live rollback in
/// [`crate::shard::coordinate`]: `Add` parts undo in delta form
/// (commutes with later logged local adds), `Put` parts — and call legs,
/// logged as an empty `Put` — restore the leg's pre-image.
fn compensate(state: &mut BTreeMap<u64, u64>, upd: &XUpdate, undo: &UndoImage) {
    match upd {
        XUpdate::Add(deltas) => {
            for &(k, d) in deltas {
                let cur = state.get(&k).copied().unwrap_or(0);
                state.insert(k, cur.wrapping_sub(d as u64));
            }
        }
        XUpdate::Put(_) => {
            for &(k, old) in undo {
                match old {
                    Some(v) => {
                        state.insert(k, v);
                    }
                    None => {
                        state.remove(&k);
                    }
                }
            }
        }
    }
}

/// Recover and reopen in one step: the shape every restart takes. The
/// returned [`WalSet`] carries the recovery counters, so the next
/// service report shows the restart provenance.
#[allow(clippy::type_complexity)]
pub fn recover_and_open<B: TmBackend>(
    cfg: &DurabilityConfig,
    map: &ShardMap,
    mk_backend: impl FnMut(usize) -> B,
    base: Addr,
    words: u64,
) -> std::io::Result<(Vec<(B, KvStore)>, Arc<WalSet>, RecoveryReport)> {
    let (domains, report) = recover(&cfg.dir, map, mk_backend, base, words)?;
    let wal = WalSet::open(cfg, map.shards())?;
    wal.note_recovery(report.replayed, report.torn_tails);
    Ok((domains, wal, report))
}
