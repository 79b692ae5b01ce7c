//! Kill-9 crash-recovery integration test: SIGKILL the real `serve`
//! binary mid-write-load, restart it against the same `--persist` path,
//! and assert that every *acknowledged* insert survived.
//!
//! The durability contract under test: with `--fsync always`, an insert
//! is acknowledged only after its WAL record is written **and** fsynced,
//! so a SIGKILL at any moment may lose un-acked tail writes but never an
//! acked one — and recovery must never load a corrupted entry.
//!
//! One writer never has two inserts in a batch, so a second cycle drives
//! eight concurrent writer connections: there the batcher commits several
//! records with one sync and the kill can land inside a multi-record commit.
//!
//! Iteration count comes from `CRASH_ITERS` (default 3 locally; CI runs
//! 20). Each iteration prints a recovery report line that CI captures as
//! an artifact.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, SystemTime};

use mc_serve::Client;

/// Scratch directory unique to this process + call site (no tempfile
/// crate in the workspace).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "mc_serve_crash_{tag}_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("crash-test scratch dir");
    dir
}

/// Spawns the `serve` binary on an ephemeral port and parses the bound
/// address off its startup banner. `extra_args` appends to the base
/// durability flags (the tenancy test adds `--tenants`/`--default-tenant`).
fn spawn_serve(persist: &Path, extra_args: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--persist",
            persist.to_str().expect("utf-8 persist path"),
            "--fsync",
            "always",
            "--batch-wait-us",
            "100",
        ])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve binary");
    let stdout = child.stdout.take().expect("serve stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before printing its banner")
            .expect("read serve stdout");
        // "mc-serve listening on 127.0.0.1:NNNNN (...)"
        if let Some(rest) = line.strip_prefix("mc-serve listening on ") {
            let addr = rest.split_whitespace().next().expect("addr token");
            break addr.parse().expect("parse bound address");
        }
    };
    // Keep draining stdout in the background so the child never blocks on
    // a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

/// SIGKILLs `child` from another thread after `delay_ms`, racing whatever
/// load the caller drives meanwhile.
fn kill_after(child: &Child, delay_ms: u64) -> std::thread::JoinHandle<()> {
    // SIGKILL via the child handle is racy to share; signal by pid.
    let pid = child.id();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    })
}

fn query_for(i: usize) -> String {
    format!("crash recovery topic number {i} with some distinct words")
}

fn response_for(i: usize) -> String {
    format!("durable response {i}")
}

/// One crash cycle: load inserts, SIGKILL mid-stream, restart, verify.
/// Returns (acked, replayed, truncated) for the recovery report.
fn crash_cycle(iter: u32, kill_after_ms: u64) -> (usize, u64, u64) {
    let dir = temp_dir(&format!("iter{iter}"));
    let persist = dir.join("cache.log");

    let (mut child, addr) = spawn_serve(&persist, &[]);
    let mut client = Client::connect(addr).expect("connect to serve");

    // Killer fires mid-load; varying the delay per iteration moves the
    // kill point across the insert stream.
    let killer = kill_after(&child, kill_after_ms);

    // Insert until the connection dies under us. Every Ok(_) is an
    // acknowledged write the restart must preserve.
    let mut acked = 0usize;
    for i in 0..5_000 {
        match client.insert(&query_for(i), &response_for(i), &[]) {
            Ok(_) => acked = i + 1,
            Err(_) => break,
        }
    }
    killer.join().expect("killer thread");
    let status = child.wait().expect("reap killed serve");
    assert!(
        !status.success(),
        "serve must have died from SIGKILL, not exited cleanly"
    );

    // Restart against the same persist path: WAL replay must restore
    // every acknowledged insert, with the original response text.
    let (mut child, addr) = spawn_serve(&persist, &[]);
    let mut client = Client::connect(addr).expect("connect after restart");
    let stats = client.stats().expect("stats after restart");
    assert!(
        stats.wal_replayed >= acked as u64,
        "restart replayed {} WAL ops but {} inserts were acknowledged",
        stats.wal_replayed,
        acked
    );
    let probes: Vec<(String, Vec<String>)> =
        (0..acked).map(|i| (query_for(i), Vec::new())).collect();
    if !probes.is_empty() {
        let outcomes = client
            .lookup_pipelined(&probes)
            .expect("post-recovery lookups");
        for (i, outcome) in outcomes.iter().enumerate() {
            let hit = outcome
                .hit()
                .unwrap_or_else(|| panic!("acked insert {i} lost after crash recovery"));
            assert_eq!(
                hit.response,
                response_for(i),
                "acked insert {i} came back corrupted"
            );
        }
    }
    let (replayed, truncated) = (stats.wal_replayed, stats.recovered_bytes_truncated);
    client.shutdown_server().expect("graceful shutdown");
    let status = child.wait().expect("reap restarted serve");
    assert!(status.success(), "restarted serve must shut down cleanly");
    std::fs::remove_dir_all(&dir).ok();
    (acked, replayed, truncated)
}

#[test]
fn sigkill_mid_load_loses_no_acknowledged_insert() {
    let iters: u32 = std::env::var("CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    for iter in 0..iters {
        // Sweep the kill point from "almost immediately" to "well into
        // the load" across iterations.
        let kill_after_ms = 30 + 40 * u64::from(iter % 5);
        let (acked, replayed, truncated) = crash_cycle(iter, kill_after_ms);
        println!(
            "recovery-report iter={iter} kill_after_ms={kill_after_ms} \
             acked={acked} wal_replayed={replayed} bytes_truncated={truncated}"
        );
    }
}

// ---- eight concurrent writers: real batches under the kill --------------------

/// Writers of the concurrent cycle; with one insert outstanding each, the
/// batcher's group commits cover up to this many records.
const WRITERS: usize = 8;

/// Writer `w`'s `i`-th insert, distinct across writers.
fn writer_index(w: usize, i: usize) -> usize {
    w * 100_000 + i
}

/// One concurrent crash cycle: [`WRITERS`] connections insert in closed
/// loops until the SIGKILL takes the server away under them, so the kill
/// lands between a multi-record commit's writes, inside its one sync, or
/// between the sync and the acks. After the restart every insert any writer
/// saw acknowledged must be present verbatim, and the WAL must have
/// replayed at least that many records. Returns (acked, replayed).
fn concurrent_crash_cycle(iter: u32, kill_after_ms: u64) -> (usize, u64) {
    let dir = temp_dir(&format!("writers_iter{iter}"));
    let persist = dir.join("cache.log");

    let (mut child, addr) = spawn_serve(&persist, &[]);
    let killer = kill_after(&child, kill_after_ms);
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut acked = 0usize;
                let Ok(mut client) = Client::connect(addr) else {
                    return acked; // killed before the connect completed
                };
                for i in 0..5_000 {
                    let n = writer_index(w, i);
                    match client.insert(&query_for(n), &response_for(n), &[]) {
                        Ok(_) => acked = i + 1,
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<usize> = writers
        .into_iter()
        .map(|w| w.join().expect("writer thread"))
        .collect();
    killer.join().expect("killer thread");
    let status = child.wait().expect("reap killed serve");
    assert!(
        !status.success(),
        "serve must have died from SIGKILL, not exited cleanly"
    );

    let (mut child, addr) = spawn_serve(&persist, &[]);
    let mut client = Client::connect(addr).expect("connect after restart");
    let stats = client.stats().expect("stats after restart");
    let total: usize = acked.iter().sum();
    assert!(
        stats.wal_replayed >= total as u64,
        "restart replayed {} WAL ops but {total} inserts were acknowledged",
        stats.wal_replayed
    );
    for (w, &acked) in acked.iter().enumerate() {
        let probes: Vec<(String, Vec<String>)> = (0..acked)
            .map(|i| (query_for(writer_index(w, i)), Vec::new()))
            .collect();
        if probes.is_empty() {
            continue;
        }
        let outcomes = client
            .lookup_pipelined(&probes)
            .expect("post-recovery lookups");
        for (i, outcome) in outcomes.iter().enumerate() {
            let hit = outcome.hit().unwrap_or_else(|| {
                panic!("writer {w}: acked insert {i} lost after crash recovery")
            });
            assert_eq!(
                hit.response,
                response_for(writer_index(w, i)),
                "writer {w}: acked insert {i} came back corrupted"
            );
        }
    }
    client.shutdown_server().expect("graceful shutdown");
    let status = child.wait().expect("reap restarted serve");
    assert!(status.success(), "restarted serve must shut down cleanly");
    std::fs::remove_dir_all(&dir).ok();
    (total, stats.wal_replayed)
}

#[test]
fn sigkill_under_concurrent_writers_loses_no_acknowledged_insert() {
    let iters: u32 = std::env::var("CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(2, |n: u32| n.div_ceil(4).max(2));
    for iter in 0..iters {
        let kill_after_ms = 40 + 35 * u64::from(iter % 5);
        let (acked, replayed) = concurrent_crash_cycle(iter, kill_after_ms);
        println!(
            "recovery-report writers={WRITERS} iter={iter} kill_after_ms={kill_after_ms} \
             acked={acked} wal_replayed={replayed}"
        );
    }
}

// ---- two concurrent tenants -------------------------------------------------

const TENANT_FLAGS: &[&str] = &[
    "--tenants",
    "acme:sekret:0,beta:hunter2:0",
    "--default-tenant",
    "none",
];

fn tenant_response_for(tenant: &str, i: usize) -> String {
    format!("durable response {tenant} {i}")
}

/// One two-tenant crash cycle: both tenants insert concurrently over their
/// own authenticated connections — deliberately using the *same* query
/// texts, so after recovery the only thing separating them is the WAL's
/// tenant tag. SIGKILL mid-load, restart, then verify per tenant:
///
/// 1. every acknowledged insert is present verbatim under its own tenant
///    (exact response bytes), and
/// 2. no lookup ever resolves with the *other* tenant's frame — including
///    queries the other tenant acked but this one never inserted.
///
/// Returns per-tenant acked counts for the recovery report.
fn tenant_crash_cycle(iter: u32, kill_after_ms: u64) -> [usize; 2] {
    const TENANTS: [(&str, &str); 2] = [("acme", "sekret"), ("beta", "hunter2")];
    let dir = temp_dir(&format!("tenants_iter{iter}"));
    let persist = dir.join("cache.log");

    let (mut child, addr) = spawn_serve(&persist, TENANT_FLAGS);
    let killer = kill_after(&child, kill_after_ms);

    // Two insert loops race the killer on separate connections.
    let writers: Vec<_> = TENANTS
        .iter()
        .map(|&(name, token)| {
            std::thread::spawn(move || {
                let mut acked = 0usize;
                let Ok(mut client) = Client::connect(addr) else {
                    return acked; // killed before the connect completed
                };
                if client.hello(name, token).is_err() {
                    return acked;
                }
                for i in 0..5_000 {
                    match client.insert(&query_for(i), &tenant_response_for(name, i), &[]) {
                        Ok(_) => acked = i + 1,
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<usize> = writers
        .into_iter()
        .map(|w| w.join().expect("writer thread"))
        .collect();
    killer.join().expect("killer thread");
    let status = child.wait().expect("reap killed serve");
    assert!(
        !status.success(),
        "serve must have died from SIGKILL, not exited cleanly"
    );

    // Restart and verify each tenant's slice through its own handshake.
    let (mut child, addr) = spawn_serve(&persist, TENANT_FLAGS);
    let max_acked = acked.iter().copied().max().unwrap_or(0);
    for (t, &(name, token)) in TENANTS.iter().enumerate() {
        let mut client = Client::connect(addr).expect("connect after restart");
        client.hello(name, token).expect("re-authenticate");
        let probes: Vec<(String, Vec<String>)> =
            (0..max_acked).map(|i| (query_for(i), Vec::new())).collect();
        if probes.is_empty() {
            continue;
        }
        let outcomes = client
            .lookup_pipelined(&probes)
            .expect("post-recovery lookups");
        let own = format!("durable response {name} ");
        for (i, outcome) in outcomes.iter().enumerate() {
            if i < acked[t] {
                let hit = outcome.hit().unwrap_or_else(|| {
                    panic!("{name}: acked insert {i} lost after crash recovery")
                });
                assert_eq!(
                    hit.response,
                    tenant_response_for(name, i),
                    "{name}: acked insert {i} came back corrupted"
                );
            } else if let Some(hit) = outcome.hit() {
                // This tenant never inserted query i; the other may have.
                // A semantic near-hit on the tenant's *own* entries is
                // legal — serving the neighbour's frame is not.
                assert!(
                    hit.response.starts_with(&own),
                    "{name}: probe {i} resolved with a foreign frame {:?}",
                    hit.response
                );
            }
        }
    }

    let mut client = Client::connect(addr).expect("control connect");
    let stats = client.stats().expect("stats after restart");
    for (t, &(name, _)) in TENANTS.iter().enumerate() {
        let entries = stats
            .tenants
            .iter()
            .find(|row| row.name == name)
            .map_or(0, |row| row.entries);
        assert!(
            entries >= acked[t],
            "{name}: {entries} resident entries but {} acked inserts",
            acked[t]
        );
    }
    client.shutdown_server().expect("graceful shutdown");
    let status = child.wait().expect("reap restarted serve");
    assert!(status.success(), "restarted serve must shut down cleanly");
    std::fs::remove_dir_all(&dir).ok();
    [acked[0], acked[1]]
}

#[test]
fn sigkill_with_two_tenants_keeps_acked_inserts_isolated_per_tenant() {
    // Fewer iterations than the single-tenant sweep: each cycle runs two
    // full write streams, and the tenant-tagging property does not depend
    // on where the kill lands as finely as the fsync contract does.
    let iters: u32 = std::env::var("CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(2, |n: u32| n.div_ceil(4).max(2));
    for iter in 0..iters {
        let kill_after_ms = 40 + 60 * u64::from(iter % 3);
        let [acme, beta] = tenant_crash_cycle(iter, kill_after_ms);
        println!(
            "recovery-report tenants iter={iter} kill_after_ms={kill_after_ms} \
             acked_acme={acme} acked_beta={beta}"
        );
    }
}
