//! Building a simulated machine commits no host memory for the simulated
//! lines a run never touches: the word array, the directory's writer words
//! and its reader slots all come zeroed from the allocator, not from a fill
//! pass. One test, alone in this binary, so no other test's allocations
//! move the process's resident set while it measures.
#![cfg(target_os = "linux")]

use htm_sim::{Htm, HtmConfig, NonTxClass, TxMode};

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmRSS line")
}

#[test]
fn untouched_simulated_memory_is_not_resident() {
    let before = vm_rss_kib();
    // 1 GiB of simulated memory, plus 64 MiB of writer words and the
    // reader slots for its 8 Mi lines.
    let htm = Htm::new(HtmConfig::default(), 1 << 27);
    let last = htm.memory().len() as u64 - 1;
    let mut t = htm.register_thread();
    t.begin(TxMode::Rot);
    t.write(last, 42).expect("uncontended write");
    t.commit().expect("uncontended commit");
    assert_eq!(t.read_notx(last, NonTxClass::Data), 42);
    let grown_mib = vm_rss_kib().saturating_sub(before) / 1024;
    assert!(grown_mib < 64, "a 1 GiB machine made {grown_mib} MiB resident");
}
