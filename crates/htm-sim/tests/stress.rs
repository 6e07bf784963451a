//! Multi-threaded stress and behavioural tests of the P8-HTM simulator.
//!
//! The machine-level tests honour `HTM_SIM_PIN=scatter|pack`, so the
//! suite can be re-run against the adversarial pinning layout:
//! `HTM_SIM_PIN=pack cargo test -p htm-sim --test stress`.

use htm_sim::{AbortReason, Htm, HtmConfig, NonTxClass, TxMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retry helper: run a closure-transaction until it commits.
fn run_tx(
    t: &mut htm_sim::HtmThread,
    mode: TxMode,
    mut body: impl FnMut(&mut htm_sim::HtmThread) -> Result<(), AbortReason>,
) {
    loop {
        t.begin(mode);
        match body(t) {
            Ok(()) => {
                if t.commit().is_ok() {
                    return;
                }
            }
            Err(_) => { /* engine tore the tx down; retry */ }
        }
    }
}

#[test]
fn htm_mode_counters_never_lose_updates() {
    // Regular (tracked-read) transactions over shared lines: serializable,
    // so no increment may be lost.
    let htm = Htm::new(HtmConfig { cores: 2, smt: 4, ..HtmConfig::default() }.apply_env(), 16 * 8);
    let threads = 6;
    let per = 250u64;
    crossbeam_utils::thread::scope(|s| {
        for _ in 0..threads {
            let htm = Arc::clone(&htm);
            s.spawn(move |_| {
                let mut t = htm.register_thread();
                for n in 0..per {
                    let line = (n % 4) * 16;
                    run_tx(&mut t, TxMode::Htm, |t| {
                        let v = t.read(line)?;
                        t.write(line, v + 1)
                    });
                }
            });
        }
    })
    .unwrap();
    let total: u64 = (0..4u64).map(|l| htm.memory().load(l * 16)).sum();
    assert_eq!(total, threads as u64 * per);
    assert_eq!(htm.directory().tracked_lines(), 0);
}

#[test]
fn raw_rot_read_modify_write_loses_updates() {
    // The documented unsafety of bare ROTs (why SI-HTM needs quiescence):
    // a ROT's read is untracked, so a concurrent writer that commits
    // between the read and the write goes undetected and its update is
    // silently overwritten. Deterministic schedule, single OS thread.
    let htm = Htm::new(HtmConfig::small().apply_env(), 256);
    let mut a = htm.register_thread();
    let mut b = htm.register_thread();

    a.begin(TxMode::Rot);
    let v = a.read(0).unwrap(); // v = 0, untracked
                                // b increments and commits immediately (no quiescence at this layer).
    b.begin(TxMode::Rot);
    let w = b.read(0).unwrap();
    b.write(0, w + 1).unwrap();
    b.commit().unwrap();
    assert_eq!(htm.memory().load(0), 1);
    // a's stale write goes through: ROT detects no conflict.
    a.write(0, v + 1).unwrap();
    a.commit().unwrap();
    assert_eq!(htm.memory().load(0), 1, "b's increment was lost — as real ROTs lose it");
}

#[test]
fn multi_line_commits_are_atomic_under_transactional_readers() {
    // A writer commits N-line batches where all words carry the same
    // stamp; HTM-mode readers (tracked, so they conflict rather than
    // race) must always observe a uniform batch.
    const LINES: u64 = 4;
    let htm = Htm::new(HtmConfig { cores: 2, smt: 2, ..HtmConfig::default() }.apply_env(), 16 * 8);
    let stop = Arc::new(AtomicU64::new(0));

    crossbeam_utils::thread::scope(|s| {
        let hw = Arc::clone(&htm);
        let stop_w = Arc::clone(&stop);
        s.spawn(move |_| {
            let mut t = hw.register_thread();
            for stamp in 1..400u64 {
                run_tx(&mut t, TxMode::Rot, |t| {
                    for l in 0..LINES {
                        t.write(l * 16, stamp)?;
                    }
                    Ok(())
                });
            }
            stop_w.store(1, Ordering::Release);
        });

        for _ in 0..2 {
            let hr = Arc::clone(&htm);
            let stop_r = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut t = hr.register_thread();
                while stop_r.load(Ordering::Acquire) == 0 {
                    let mut vals = [0u64; LINES as usize];
                    run_tx(&mut t, TxMode::Htm, |t| {
                        for l in 0..LINES {
                            vals[l as usize] = t.read(l * 16)?;
                        }
                        Ok(())
                    });
                    let first = vals[0];
                    assert!(vals.iter().all(|v| *v == first), "torn batch observed: {vals:?}");
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn rot_read_tracking_fraction_one_behaves_like_htm() {
    // Footnote 1 at its extreme: with the whole read set tracked, ROT
    // capacity degenerates to regular-HTM capacity.
    let cfg = HtmConfig {
        cores: 1,
        smt: 1,
        tmcam_lines: 4,
        rot_read_tracking: 1.0,
        ..HtmConfig::default()
    };
    let htm = Htm::new(cfg, 16 * 16);
    let mut t = htm.register_thread();
    t.begin(TxMode::Rot);
    let mut err = None;
    for i in 0..10u64 {
        if let Err(e) = t.read(i * 16) {
            err = Some(e);
            break;
        }
    }
    assert_eq!(err, Some(AbortReason::Capacity), "fully-tracked ROT reads must overflow");
}

#[test]
fn rot_read_tracking_fraction_partial_tracks_some_lines() {
    let cfg = HtmConfig {
        cores: 1,
        smt: 1,
        tmcam_lines: 64,
        rot_read_tracking: 0.25,
        ..HtmConfig::default()
    };
    let htm = Htm::new(cfg, 16 * 256);
    let mut t = htm.register_thread();
    t.begin(TxMode::Rot);
    for i in 0..200u64 {
        t.read(i * 16).unwrap();
    }
    let tracked = t.tmcam_footprint();
    assert!(
        (10..=90).contains(&tracked),
        "~25% of 200 read lines should be tracked, got {tracked}"
    );
    t.commit().unwrap();
}

#[test]
fn smt_capacity_pressure_eases_when_neighbours_commit() {
    // Two SMT threads on one core; the second can only fit its write set
    // after the first released the TMCAM.
    let htm =
        Htm::new(HtmConfig { cores: 1, smt: 2, tmcam_lines: 8, ..HtmConfig::default() }, 16 * 32);
    let mut a = htm.register_thread();
    let mut b = htm.register_thread();

    a.begin(TxMode::Rot);
    for i in 0..6u64 {
        a.write(i * 16, 1).unwrap();
    }
    b.begin(TxMode::Rot);
    for i in 6..8u64 {
        b.write(i * 16, 1).unwrap();
    }
    assert_eq!(b.write(8 * 16, 1), Err(AbortReason::Capacity), "shared TMCAM full");
    a.commit().unwrap();
    // Fresh attempt now fits: the neighbour's entries were released.
    b.begin(TxMode::Rot);
    for i in 6..12u64 {
        b.write(i * 16, 1).unwrap();
    }
    b.commit().unwrap();
}

#[test]
fn nontx_writes_do_not_corrupt_transactional_lines() {
    // A non-transactional writer hammers line A (killing whatever reads
    // it) while transactions increment line B; B must stay exact and A
    // must end at the last non-tx value. Transactions that also *read* A
    // get killed and retried, which is the point.
    const A: u64 = 0;
    const B: u64 = 16;
    let htm = Htm::new(HtmConfig { cores: 2, smt: 2, ..HtmConfig::default() }.apply_env(), 64);
    let tx_done = AtomicU64::new(0);
    crossbeam_utils::thread::scope(|s| {
        {
            let htm = Arc::clone(&htm);
            let tx_done = &tx_done;
            s.spawn(move |_| {
                let mut t = htm.register_thread();
                let mut n = 0u64;
                while tx_done.load(Ordering::Acquire) < 2 {
                    n += 1;
                    t.write_notx(A, n, NonTxClass::Sgl);
                }
                t.write_notx(A, 424_242, NonTxClass::Sgl);
            });
        }
        for _ in 0..2 {
            let htm = Arc::clone(&htm);
            let tx_done = &tx_done;
            s.spawn(move |_| {
                let mut t = htm.register_thread();
                for _ in 0..300 {
                    run_tx(&mut t, TxMode::Htm, |t| {
                        let _a = t.read(A)?; // puts us in the kill zone
                        let v = t.read(B)?;
                        t.write(B, v + 1)
                    });
                }
                tx_done.fetch_add(1, Ordering::AcqRel);
            });
        }
    })
    .unwrap();
    assert_eq!(htm.memory().load(B), 600, "transactional increments lost");
    assert_eq!(htm.memory().load(A), 424_242);
    assert_eq!(htm.directory().tracked_lines(), 0);
}
