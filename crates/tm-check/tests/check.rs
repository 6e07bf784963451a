//! tm-check end-to-end: determinism, replay, clean sweeps over every
//! backend x workload, fault-injection sweeps, and the seeded-bug
//! acceptance test (quiescence off => SI violation with a shrunk trace).

use tm_check::{
    check_seed, check_seeds, execute, BackendKind, CheckConfig, FaultPlan, WorkloadKind,
};

fn cfg(backend: BackendKind, workload: WorkloadKind) -> CheckConfig {
    CheckConfig { backend, workload, ..CheckConfig::default() }
}

#[test]
fn same_seed_same_run() {
    for &backend in &BackendKind::ALL {
        let c = cfg(backend, WorkloadKind::Bank);
        let a = execute(&c, 42, Vec::new());
        let b = execute(&c, 42, Vec::new());
        assert_eq!(a.run.trace, b.run.trace, "{}: trace diverged", backend.name());
        assert_eq!(a.run.log, b.run.log, "{}: log diverged", backend.name());
        assert!(a.failure.is_none(), "{}: {:?}", backend.name(), a.failure);
    }
}

#[test]
fn replay_reproduces_log() {
    let c = cfg(BackendKind::SiHtm, WorkloadKind::Bank);
    let a = execute(&c, 7, Vec::new());
    let b = execute(&c, 7, a.run.trace.clone());
    assert_eq!(a.run.log, b.run.log, "replaying the trace must reproduce the log");
}

#[test]
fn clean_sweep_all_backends_all_workloads() {
    for &backend in &BackendKind::ALL {
        for &workload in &WorkloadKind::ALL {
            let c = cfg(backend, workload);
            if let Err(f) = check_seeds(&c, 0..30) {
                panic!(
                    "{} x {} failed at seed {}: {}\n{}",
                    backend.name(),
                    workload.name(),
                    f.seed,
                    f.message,
                    f.pretty
                );
            }
        }
    }
}

#[test]
fn clean_sweep_with_fault_injection() {
    let faults = FaultPlan { access_abort_per_mille: 30, commit_abort_per_mille: 30 };
    for &backend in &BackendKind::ALL {
        let c = CheckConfig { faults, ..cfg(backend, WorkloadKind::Bank) };
        if let Err(f) = check_seeds(&c, 0..20) {
            panic!("{} under faults failed at seed {}: {}", backend.name(), f.seed, f.message);
        }
    }
}

#[test]
fn history_is_nonempty_and_committed() {
    let c = cfg(BackendKind::SiHtm, WorkloadKind::Counter);
    let out = execute(&c, 3, Vec::new());
    assert!(out.failure.is_none(), "{:?}", out.failure);
    assert!(!out.run.overflowed);
    // 3 threads x 8 txns, none of which user-abort: all commit.
    assert_eq!(out.txns.len(), c.threads * c.txns_per_thread);
    // Commit order is ascending by construction.
    assert!(out.txns.windows(2).all(|w| w[0].commit_idx < w[1].commit_idx));
}

/// The txkv handoff scenario is deterministic and clean: requests pushed
/// through the bounded submission queue are all served, batched audits
/// observe consistent snapshots, and replaying a trace reproduces the
/// exact serialized log (the queue mutex never spans a yield point).
#[test]
fn txkv_handoff_is_deterministic_and_clean() {
    for &backend in &BackendKind::ALL {
        let c = cfg(backend, WorkloadKind::Txkv);
        let a = execute(&c, 11, Vec::new());
        assert!(a.failure.is_none(), "{}: {:?}", backend.name(), a.failure);
        let b = execute(&c, 11, a.run.trace.clone());
        assert_eq!(a.run.log, b.run.log, "{}: txkv replay diverged", backend.name());
    }
    // Degenerate single-thread run: enqueue the script, then serve it.
    let c = CheckConfig { threads: 1, ..cfg(BackendKind::SiHtm, WorkloadKind::Txkv) };
    let out = execute(&c, 5, Vec::new());
    assert!(out.failure.is_none(), "single-thread txkv: {:?}", out.failure);
    assert!(!out.txns.is_empty(), "the executor must have committed transactions");
}

/// The acceptance test: disabling SI-HTM's quiescence wait (the paper's
/// "safety wait", Alg. 2) must be caught as an SI violation, and the
/// shrunk reproduction must be materially smaller than the original.
#[test]
fn break_si_is_detected_and_shrunk() {
    let c = CheckConfig { break_si: true, ..cfg(BackendKind::SiHtm, WorkloadKind::Bank) };
    let mut found = None;
    for seed in 0..50 {
        if let Err(f) = check_seed(&c, seed) {
            found = Some(f);
            break;
        }
    }
    let f = found.expect("quiescence-off must produce an SI violation within 50 seeds");
    assert!(
        f.message.contains("SI violation") || f.message.contains("torn"),
        "unexpected verdict: {}",
        f.message
    );
    assert!(f.shrunk_trace_len <= f.original_trace_len);
    assert!(f.shrunk_trace_len > 0);
    assert!(f.pretty.contains("minimal interleaving"), "report must render the schedule");
    // The shrunk schedule must itself still fail when replayed: check_seed
    // re-executed it to produce `pretty`, so reaching here proves it, but
    // assert the trace really shrank into something human-sized.
    assert!(
        f.shrunk_trace_len < f.original_trace_len,
        "shrinking made no progress ({} -> {})",
        f.original_trace_len,
        f.shrunk_trace_len
    );
}

/// With quiescence ON (the paper's algorithm), the same sweep is clean —
/// the detector is specific to the seeded bug, not trigger-happy.
#[test]
fn unbroken_si_htm_passes_same_seeds() {
    let c = cfg(BackendKind::SiHtm, WorkloadKind::Bank);
    if let Err(f) = check_seeds(&c, 0..50) {
        panic!("unmodified SI-HTM flagged at seed {}: {}\n{}", f.seed, f.message, f.pretty);
    }
}

/// The cross-shard scenario (two independent backend instances, 2PC
/// transfers, locked audits) is deterministic and replayable on every
/// backend — the multi-backend event stream still shrinks and replays.
#[test]
fn xshard_is_deterministic_and_replayable() {
    for &backend in &BackendKind::ALL {
        let c = cfg(backend, WorkloadKind::XShard);
        let a = execute(&c, 13, Vec::new());
        assert!(a.failure.is_none(), "{}: {:?}", backend.name(), a.failure);
        let b = execute(&c, 13, a.run.trace.clone());
        assert_eq!(a.run.log, b.run.log, "{}: xshard replay diverged", backend.name());
    }
}

/// The 2PC acceptance test: a coordinator handed one leg of a transfer's
/// two must be caught — by a locked global audit or by end-of-run
/// conservation — in the log-free xshard scenario and in the durable
/// recovery one. Cross-shard atomicity comes from the protocol, not from
/// any backend, so the seeded bug must be detected on all four.
#[test]
fn break_2pc_is_detected_on_every_backend() {
    for workload in [WorkloadKind::XShard, WorkloadKind::Recovery] {
        for &backend in &BackendKind::ALL {
            let c = CheckConfig { break_2pc: true, ..cfg(backend, workload) };
            let mut found = None;
            for seed in 0..50 {
                if let Err(f) = check_seed(&c, seed) {
                    found = Some(f);
                    break;
                }
            }
            let f = found.unwrap_or_else(|| {
                panic!(
                    "{} x {}: a broken 2PC coordinator must leak a half-applied transfer \
                     within 50 seeds",
                    backend.name(),
                    workload.name()
                )
            });
            assert!(
                f.message.contains("conserved") || f.message.contains("torn"),
                "{} x {}: unexpected verdict: {}",
                backend.name(),
                workload.name(),
                f.message
            );
            assert!(f.shrunk_trace_len <= f.original_trace_len);
        }
    }
}

/// With the coordinator intact, the identical sweep is clean: the
/// detector is specific to the seeded 2PC bug.
#[test]
fn unbroken_2pc_passes_same_seeds() {
    let c = cfg(BackendKind::SiHtm, WorkloadKind::XShard);
    if let Err(f) = check_seeds(&c, 0..50) {
        panic!("intact 2PC flagged at seed {}: {}\n{}", f.seed, f.message, f.pretty);
    }
}

/// The typed-index scenario (txkv-schema table + secondary index through
/// `LocalTx`) is deterministic and replayable on every backend.
#[test]
fn typed_index_is_deterministic_and_replayable() {
    for &backend in &BackendKind::ALL {
        let c = cfg(backend, WorkloadKind::TypedIndex);
        let a = execute(&c, 17, Vec::new());
        assert!(a.failure.is_none(), "{}: {:?}", backend.name(), a.failure);
        let b = execute(&c, 17, a.run.trace.clone());
        assert_eq!(a.run.log, b.run.log, "{}: typed-index replay diverged", backend.name());
    }
}

/// The index acceptance test: an update path that rewrites the indexed
/// column but skips the index move must be caught — by a committed
/// snapshot seeing base and index disagree, or by the end-of-run
/// reachability / dangling-entry sweep. Index atomicity comes from
/// doing both writes in one transaction, so the seeded bug must be
/// detected on all four backends.
#[test]
fn break_index_is_detected_on_every_backend() {
    for &backend in &BackendKind::ALL {
        let c = CheckConfig { break_index: true, ..cfg(backend, WorkloadKind::TypedIndex) };
        let mut found = None;
        for seed in 0..50 {
            if let Err(f) = check_seed(&c, seed) {
                found = Some(f);
                break;
            }
        }
        let f = found.unwrap_or_else(|| {
            panic!(
                "{}: skipped index maintenance must leave an unreachable row or \
                 dangling entry within 50 seeds",
                backend.name()
            )
        });
        assert!(
            f.message.contains("index") || f.message.contains("disagree"),
            "{}: unexpected verdict: {}",
            backend.name(),
            f.message
        );
        assert!(f.shrunk_trace_len <= f.original_trace_len);
    }
}

/// With index maintenance intact, the identical sweep is clean: the
/// detector is specific to the seeded index bug.
#[test]
fn unbroken_typed_index_passes_same_seeds() {
    let c = cfg(BackendKind::SiHtm, WorkloadKind::TypedIndex);
    if let Err(f) = check_seeds(&c, 0..50) {
        panic!("intact index flagged at seed {}: {}\n{}", f.seed, f.message, f.pretty);
    }
}
