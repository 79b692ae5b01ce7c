//! Fault-tolerance integration tests: request deadlines, panic isolation,
//! Busy-storm client retries, idle-connection reaping, short-write
//! tolerance on the socket, serve-WAL replay after a simulated crash, and a
//! save that dies while replacing one of its JSON sidecars.
//!
//! These run against real servers on localhost TCP; the fault-injection
//! points come from `mc_store::failpoints` (active here via this crate's
//! dev-dependency feature, inert in release builds).

use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::wal::wal_path;
use mc_serve::{
    Client, ClientConfig, ClientError, ErrorCode, ServeConfig, ServePipeline, ServeReply,
    ServeRequest, ServeTenant, ServeWal, Server,
};
use mc_store::failpoints::{self, FailAction};
use mc_store::FsyncPolicy;
use meancache::persist::{load_sharded_cache_with_report, save_sharded_cache_with_config};
use meancache::{MeanCacheConfig, RoutingMode, SemanticCache, ShardedCache};

const SEED: u64 = 7;

fn cache(shards: usize) -> ShardedCache {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    ShardedCache::new(
        encoder,
        MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(shards),
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mc_serve_resilience_{tag}_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A lookup that out-waits its deadline in the batch queue must come back
/// as a retryable `DeadlineExceeded` failure frame — promptly (within 2×
/// the deadline), and without killing the connection.
#[test]
fn expired_deadline_fails_retryably_within_twice_the_deadline() {
    let deadline = Duration::from_millis(150);
    let config = ServeConfig {
        request_deadline: deadline,
        // The linger keeps a lone lookup queued past its deadline but
        // still well inside the 2× reply budget.
        max_wait: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let started = Instant::now();
    let result = client.lookup("a lookup doomed to out-wait its deadline", &[]);
    let elapsed = started.elapsed();
    match result {
        Err(ClientError::Rejected {
            code: ErrorCode::DeadlineExceeded,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected retryable DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed < deadline * 2,
        "failure frame took {elapsed:?}, over the 2x deadline budget"
    );
    // The failure frame is per-request: the same connection keeps working.
    client
        .ping()
        .expect("connection must survive the failure frame");
    let stats = client.stats().unwrap();
    assert!(stats.deadline_expired >= 1, "metric must count the expiry");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// A panic inside per-batch cache work resolves the victim's ticket with a
/// retryable `Panicked` frame, is counted, and leaves the batcher thread
/// alive for subsequent traffic.
#[test]
fn batch_work_panic_is_fenced_to_an_error_frame() {
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let fuse = "panic fuse probe zzqx";
    failpoints::set_scoped(
        "serve.batch.work",
        fuse,
        FailAction::ErrorOnNth {
            n: 1,
            kind: std::io::ErrorKind::Other,
        },
    );
    let result = client.lookup(fuse, &[]);
    failpoints::clear_scoped("serve.batch.work", fuse);
    match result {
        Err(ClientError::Rejected {
            code: ErrorCode::Panicked,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected retryable Panicked frame, got {other:?}"),
    }
    // The batcher survived: the very same connection serves the retry.
    let outcome = client.lookup(fuse, &[]).expect("retry after the panic");
    assert!(outcome.is_miss(), "nothing was ever inserted");
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics_caught, 1, "metric must count the caught panic");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Busy storm: a one-slot queue hammered by a pipelining flooder sheds,
/// yet a retrying client lands 100% of its calls.
///
/// The first shed is forced, not left to the scheduler: a `Hold` on the
/// batcher's `serve.batch.work` point, scoped to the flood's texts, parks
/// the batcher on one held probe; a second, sent only then, fills the
/// queue; so the flooder's first lookup is refused and its first reply is
/// `Busy`. Replies leave each connection in submission order, so the held
/// probes ride connections of their own. The hold is cleared once the
/// flooder has counted that `Overloaded`; the retrying client's texts never
/// match it.
#[test]
fn retrying_client_survives_a_busy_storm() {
    const FLOOD: &str = "storm flood probe";
    /// Clears the hold however the test ends: a failed run must fail, not
    /// park the batcher — and the server's shutdown behind it — for good.
    struct ReleaseHold;
    impl Drop for ReleaseHold {
        fn drop(&mut self) {
            failpoints::clear_scoped("serve.batch.work", FLOOD);
        }
    }
    let wait_until = |done: &dyn Fn() -> bool, what: &str| {
        let started = Instant::now();
        while !done() {
            assert!(started.elapsed() < Duration::from_secs(30), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        max_wait: Duration::from_micros(100),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    failpoints::set_scoped("serve.batch.work", FLOOD, FailAction::Hold);
    let release = ReleaseHold;
    let held = |i: usize| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("holder connect");
            client
                .lookup(&format!("{FLOOD} held {i}"), &[])
                .expect("held probes are served once released")
        })
    };
    let parked = held(0);
    wait_until(
        &|| failpoints::hits("serve.batch.work", FLOOD) > 0,
        "the batcher must park on the first held probe",
    );
    let queued = held(1);
    wait_until(
        &|| handle.queue_depth() > 0,
        "the second held probe must fill the queue",
    );

    let stop = Arc::new(AtomicBool::new(false));
    let flood_stop = stop.clone();
    let (first_busy, busy_counted) = std::sync::mpsc::channel();
    let flooder = std::thread::spawn(move || {
        let probes: Vec<(String, Vec<String>)> = (0..32)
            .map(|i| (format!("{FLOOD} {i}"), Vec::new()))
            .collect();
        let mut busy_seen = 0u64;
        let mut client = Client::connect(addr).expect("flooder connect");
        while !flood_stop.load(Ordering::Relaxed) {
            match client.lookup_pipelined(&probes) {
                Ok(_) => {}
                Err(ClientError::Overloaded) => {
                    busy_seen += 1;
                    let _ = first_busy.send(());
                    // The aborted window leaves unread frames behind;
                    // resync on a fresh connection.
                    if client.reconnect().is_err() {
                        break;
                    }
                }
                Err(_) => {
                    if client.reconnect().is_err() {
                        break;
                    }
                }
            }
        }
        busy_seen
    });
    let counted = busy_counted.recv_timeout(Duration::from_secs(30));
    drop(release);
    counted.expect("the flooder must count the forced Overloaded");
    for holder in [parked, queued] {
        holder.join().expect("holder panicked");
    }

    let mut client = Client::connect_with_config(addr, ClientConfig::resilient()).unwrap();
    for i in 0..10 {
        client
            .insert(
                &format!("storm durable entry {i}"),
                &format!("kept {i}"),
                &[],
            )
            .unwrap_or_else(|e| panic!("insert {i} must eventually land: {e}"));
    }
    for i in 0..10 {
        let outcome = client
            .lookup(&format!("storm durable entry {i}"), &[])
            .unwrap_or_else(|e| panic!("lookup {i} must eventually land: {e}"));
        assert!(outcome.is_hit(), "lookup {i} must hit");
    }
    stop.store(true, Ordering::Relaxed);
    let busy_seen = flooder.join().expect("flooder panicked");
    assert!(busy_seen > 0, "the storm must actually have shed windows");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Connections silent for longer than the idle timeout are reaped by the
/// event loop (observed as EOF on the socket) and counted.
#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(1), &config, "127.0.0.1:0").unwrap();

    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    let read = idle.read(&mut buf).expect("reaper must close, not hang");
    assert_eq!(read, 0, "expected EOF from the idle reaper");

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.idle_reaped >= 1, "metric must count the reaped conn");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// Injected short writes on the server's socket path: the flush loop must
/// keep writing until every frame is fully delivered.
#[test]
fn short_socket_writes_still_deliver_complete_frames() {
    let handle = Server::start(cache(2), &ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    // Scope the failpoint to this server's address so concurrent tests in
    // this binary are unaffected.
    failpoints::set_scoped(
        "serve.conn.write",
        &addr.to_string(),
        FailAction::ShortWrite { max: 7 },
    );
    let mut client = Client::connect(addr).unwrap();
    for i in 0..8 {
        client
            .insert(
                &format!("short write entry {i}"),
                &format!("a response long enough to span several dribbled writes {i}"),
                &[],
            )
            .unwrap();
    }
    let probes: Vec<(String, Vec<String>)> = (0..8)
        .map(|i| (format!("short write entry {i}"), Vec::new()))
        .collect();
    let outcomes = client.lookup_pipelined(&probes).unwrap();
    assert!(outcomes.iter().all(|o| o.is_hit()), "all frames intact");
    failpoints::clear("serve.conn.write");
    client.shutdown_server().unwrap();
    handle.wait();
}

/// A WAL left behind by a crash (no graceful save, no snapshot) is
/// replayed on the next start: acknowledged inserts come back, and the
/// replay is visible in the stats plane.
#[test]
fn crashed_wal_is_replayed_on_restart() {
    let dir = temp_dir("wal_replay");
    let persist = dir.join("cache.log");

    // Simulate the aftermath of a crash: WAL records exist, but no
    // snapshot was ever written (the process died before any Save).
    {
        let (mut wal, ops, _) = ServeWal::open(wal_path(&persist), FsyncPolicy::Always).unwrap();
        assert!(ops.is_empty());
        wal.append_insert("crashed insert one", "survivor one", &[])
            .unwrap();
        wal.append_insert("crashed insert two", "survivor two", &[])
            .unwrap();
    }

    let config = ServeConfig {
        persist_path: Some(persist),
        ..ServeConfig::default()
    };
    let handle = Server::start(cache(2), &config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for (query, response) in [
        ("crashed insert one", "survivor one"),
        ("crashed insert two", "survivor two"),
    ] {
        let outcome = client.lookup(query, &[]).unwrap();
        let hit = outcome.hit().expect("replayed insert must hit");
        assert_eq!(hit.response, response);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.wal_replayed, 2, "both WAL ops counted as replayed");
    client.shutdown_server().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Makes the next atomic replacement of `file` fail after its temp file is
/// written and before the rename — what a crash at that point leaves behind.
/// Returns the failpoint tag to clear.
fn fail_next_replacement_of(file: &Path) -> String {
    let tag = file.display().to_string();
    failpoints::set_scoped(
        "wal.sync",
        &tag,
        FailAction::ErrorOnNth {
            n: 1,
            kind: std::io::ErrorKind::Other,
        },
    );
    tag
}

fn entry_set(cache: &ShardedCache) -> Vec<(String, String)> {
    let mut all = Vec::new();
    for shard in 0..cache.shard_count() {
        cache.with_shard(shard, |inner| {
            all.extend(
                inner
                    .entries()
                    .map(|e| (e.query.clone(), e.response.clone())),
            );
        });
    }
    all.sort();
    all
}

/// Saves a centroid-routed cache, changes what `P<suffix>` would record
/// (`mutate` leaves the entries alone), and lets the next save die while
/// replacing that sidecar: the sidecar keeps its bytes, and the save still
/// loads with the entries, τ and routing it recorded.
fn failed_sidecar_write_keeps_the_previous_save(suffix: &str, mutate: fn(&mut ShardedCache)) {
    let dir = temp_dir("sidecar");
    let base = dir.join("cache.log");
    let sidecar = dir.join(format!("cache.log{suffix}"));
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    let config = MeanCacheConfig::default()
        .with_threshold(0.6)
        .with_shards(3)
        .with_routing(RoutingMode::Centroid);
    let mut saved = ShardedCache::new(encoder.clone(), config).unwrap();
    let roots: Vec<String> = (0..12).map(|i| format!("sidecar subject {i}")).collect();
    saved.seed_centroids_from_texts(&roots).unwrap();
    for root in &roots {
        saved.insert(root, "kept", &[]).unwrap();
    }
    save_sharded_cache_with_config(&saved, &base).unwrap();
    let before = std::fs::read(&sidecar).unwrap();
    let fresh: Vec<String> = (0..40).map(|i| format!("fresh root {i}")).collect();
    let routed = |cache: &ShardedCache| -> Vec<usize> {
        fresh.iter().map(|q| cache.shard_of(q, &[])).collect()
    };
    let routed_before = routed(&saved);

    mutate(&mut saved);
    let tag = fail_next_replacement_of(&sidecar);
    assert!(save_sharded_cache_with_config(&saved, &base).is_err());
    failpoints::clear_scoped("wal.sync", &tag);

    assert_eq!(std::fs::read(&sidecar).unwrap(), before);
    let (loaded, report) = load_sharded_cache_with_report(encoder, &base).unwrap();
    assert_eq!(report.snapshot_loaded, 3);
    assert_eq!(entry_set(&loaded), entry_set(&saved));
    assert!((loaded.threshold() - 0.6).abs() < 1e-6);
    assert_eq!(routed(&loaded), routed_before);
    // Once writes work again the sidecar does change.
    save_sharded_cache_with_config(&saved, &base).unwrap();
    assert_ne!(std::fs::read(&sidecar).unwrap(), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_config_sidecar_write_keeps_the_previous_save_loadable() {
    failed_sidecar_write_keeps_the_previous_save(".config.json", |cache| {
        cache.set_threshold(0.9);
    });
}

#[test]
fn failed_routing_sidecar_write_keeps_the_previous_centroids() {
    failed_sidecar_write_keeps_the_previous_save(".routing.json", |cache| {
        let other: Vec<String> = (0..12).map(|i| format!("reseed text {i}")).collect();
        cache.seed_centroids_from_texts(&other).unwrap();
    });
}

/// The same for `P.tenants.json`, through the server's own `Save`: the
/// request fails, and a restart still finds every tenant's entries and
/// invalidation epoch — by snapshot, which `/metrics` now says.
#[test]
fn failed_tenant_manifest_write_keeps_tenants_and_epochs() {
    let dir = temp_dir("tenant_manifest");
    let persist = dir.join("cache.log");
    let manifest = dir.join("cache.log.tenants.json");
    let config = ServeConfig {
        persist_path: Some(persist.clone()),
        tenants: vec![ServeTenant {
            name: "acme".into(),
            token: "secret".into(),
            quota: 0,
        }],
        ..ServeConfig::default()
    };
    let ask = |pipeline: &ServePipeline, tenant: &str, request: ServeRequest| {
        pipeline.submit_for(tenant, request, None).unwrap().wait()
    };
    let insert = |query: &str| ServeRequest::Insert {
        query: query.into(),
        response: format!("answer to {query}"),
        context: vec![],
    };
    let lookup = |query: &str| ServeRequest::Lookup {
        query: query.into(),
        context: vec![],
    };

    let pipeline = ServePipeline::start(cache(2), &config).unwrap();
    let default_tenant = pipeline.default_tenant().to_string();
    let bump = ServeRequest::Invalidate {
        tenant: "acme".into(),
        epoch: 0,
    };
    assert_eq!(ask(&pipeline, "acme", bump), ServeReply::Invalidated(1));
    for i in 0..4 {
        let reply = ask(
            &pipeline,
            "acme",
            insert(&format!("acme tenant subject {i}")),
        );
        assert!(matches!(reply, ServeReply::Inserted(_)), "{reply:?}");
        let reply = ask(
            &pipeline,
            &default_tenant,
            insert(&format!("default tenant subject {i}")),
        );
        assert!(matches!(reply, ServeReply::Inserted(_)), "{reply:?}");
    }
    let reply = ask(&pipeline, &default_tenant, ServeRequest::Save);
    assert_eq!(reply, ServeReply::Saved(8));
    let before = std::fs::read(&manifest).unwrap();

    let tag = fail_next_replacement_of(&manifest);
    let reply = ask(&pipeline, &default_tenant, ServeRequest::Save);
    assert!(matches!(reply, ServeReply::Failed { .. }), "{reply:?}");
    failpoints::clear_scoped("wal.sync", &tag);
    pipeline.shutdown();
    assert_eq!(std::fs::read(&manifest).unwrap(), before);

    // Restart as the serve binary does: default tenant first, then start.
    let encoder = QueryEncoder::new(ModelProfile::tiny(), SEED).unwrap();
    let (restored, report) = load_sharded_cache_with_report(encoder, &persist).unwrap();
    let config = ServeConfig {
        restored: report,
        ..config
    };
    let pipeline = ServePipeline::start(restored, &config).unwrap();
    for i in 0..4 {
        for (tenant, query) in [
            ("acme", format!("acme tenant subject {i}")),
            (&default_tenant, format!("default tenant subject {i}")),
        ] {
            match ask(&pipeline, tenant, lookup(&query)) {
                ServeReply::Outcome(outcome) => assert!(outcome.is_hit(), "{tenant}: {query}"),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
    }
    let ServeReply::Stats(stats) = ask(&pipeline, &default_tenant, ServeRequest::Stats) else {
        panic!("expected stats");
    };
    let acme = stats.tenants.iter().find(|t| t.name == "acme").unwrap();
    assert_eq!((acme.entries, acme.epoch), (4, 1));
    assert_eq!(stats.restore_snapshot_shards, 4, "two tenants, two shards");
    let ServeReply::MetricsText(text) = ask(&pipeline, &default_tenant, ServeRequest::Metrics)
    else {
        panic!("expected metrics");
    };
    assert!(text.contains("serve_restore_snapshot_shards 4"), "{text}");
    pipeline.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
