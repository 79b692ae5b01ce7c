//! The `mc-serve` server binary: config → sharded cache → TCP listener.
//!
//! ```text
//! serve [--addr 127.0.0.1:4077] [--shards 8] [--capacity 100000]
//!       [--threshold 0.7] [--index flat-sq8|flat|ivf|ivf-sq8] [--seed 2024]
//!       [--routing hash|centroid|scatter-gather] [--persist PATH]
//!       [--fsync always|never|every-N] [--deadline-ms N] [--idle-timeout-ms N]
//!       [--batch-max 64] [--batch-wait-us 200] [--queue-cap 1024]
//!       [--max-conns 32] [--poller epoll|poll] [--memo-capacity N]
//!       [--memo-bytes N] [--no-singleflight] [--metrics-out PATH]
//!       [--tenants name:token:quota,...] [--default-tenant NAME|none]
//!       [--ttl-secs N] [--trace-sample N] [--trace-slow-ms N]
//!       [--trace-log PATH] [--trace-dump-out PATH] [--smoke]
//! ```
//!
//! `--tenants acme:sekret:5000,beta:hunter2:0` provisions named tenants
//! (token authenticates the `Hello` handshake, quota caps resident
//! entries; `0` inherits `--capacity`). `--default-tenant` names the
//! tenant that un-authenticated (legacy) connections map to — `none`
//! makes the handshake mandatory for data requests. `--ttl-secs N`
//! expires entries N seconds after insert (0 = never).
//!
//! `--persist PATH` wires durability in: an existing save at PATH is
//! restored on startup (torn tails are truncated, recovery stats are
//! reported), inserts are logged to a crash-safe WAL at `PATH.wal`
//! (fsynced per `--fsync`), the `Save` control command writes back to
//! PATH, and a graceful shutdown saves automatically — a restart keeps
//! its contents even after a kill -9. When restoring, the save's config
//! sidecar wins over the non-topology CLI flags (`--threshold`,
//! `--capacity`, `--index`); only `--shards` and `--routing` override the
//! save, by resharding the restored cache in place.
//!
//! `--deadline-ms N` fails lookups that sat in the batch queue longer
//! than N ms with a retryable `DeadlineExceeded` frame (0 disables);
//! `--idle-timeout-ms N` reaps connections with no traffic for N ms.
//!
//! `--trace-sample N` samples one request in N into the flight recorder
//! (0 disables sampling; slow/failed requests are recorded regardless),
//! `--trace-slow-ms N` marks requests over N ms as slow, and
//! `--trace-log PATH` appends each slow/failed trace to PATH as one JSON
//! line. During `--smoke`, `--trace-dump-out PATH` writes the tracing
//! phase's flight-recorder dump to PATH as a CI artifact.
//!
//! `--smoke` runs the CI self-test instead of serving forever: bind an
//! ephemeral localhost port, drive a real client over TCP (ping, inserts,
//! exact-repeat lookups that must hit, novel lookups that must miss, a
//! stats cross-check, a routing-mode switch, a save/restore cycle, a
//! graceful shutdown), and exit non-zero on any mismatch.

use std::path::PathBuf;
use std::time::Duration;

use mc_embedder::{ModelProfile, QueryEncoder};
use mc_serve::{
    Client, ClientConfig, ClientError, ErrorCode, PollerKind, ServeConfig, ServeTenant, Server,
};
use mc_store::{IndexKind, RecoveryStats};
use meancache::persist::load_sharded_cache_with_report;
use meancache::{reshard, MeanCacheConfig, RoutingMode, ShardedCache};

struct Args {
    addr: String,
    shards: usize,
    capacity: usize,
    threshold: f32,
    index: IndexKind,
    seed: u64,
    routing: RoutingMode,
    serve_config: ServeConfig,
    poller: Option<PollerKind>,
    metrics_out: Option<PathBuf>,
    trace_dump_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:4077".to_string(),
        shards: 8,
        capacity: 100_000,
        threshold: 0.7,
        index: IndexKind::flat_sq8(),
        seed: 2024,
        routing: RoutingMode::Hash,
        serve_config: ServeConfig::default(),
        poller: None,
        metrics_out: None,
        trace_dump_out: None,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i, "--addr"),
            "--shards" => {
                args.shards = value(&mut i, "--shards")
                    .parse()
                    .expect("--shards: integer")
            }
            "--capacity" => {
                args.capacity = value(&mut i, "--capacity")
                    .parse()
                    .expect("--capacity: integer");
            }
            "--threshold" => {
                args.threshold = value(&mut i, "--threshold")
                    .parse()
                    .expect("--threshold: float");
            }
            "--index" => {
                args.index = match value(&mut i, "--index").as_str() {
                    "flat" => IndexKind::flat(),
                    "flat-sq8" => IndexKind::flat_sq8(),
                    "ivf" => IndexKind::ivf(),
                    "ivf-sq8" => IndexKind::ivf_sq8(),
                    other => {
                        eprintln!("unknown index backend `{other}`");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => args.seed = value(&mut i, "--seed").parse().expect("--seed: integer"),
            "--routing" => {
                let name = value(&mut i, "--routing");
                args.routing = RoutingMode::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown routing mode `{name}` (hash|centroid|scatter-gather)");
                    std::process::exit(2);
                });
            }
            "--persist" => {
                args.serve_config.persist_path = Some(PathBuf::from(value(&mut i, "--persist")));
            }
            "--fsync" => {
                let name = value(&mut i, "--fsync");
                args.serve_config.fsync = name.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--deadline-ms" => {
                args.serve_config.request_deadline = Duration::from_millis(
                    value(&mut i, "--deadline-ms")
                        .parse()
                        .expect("--deadline-ms: integer"),
                );
            }
            "--idle-timeout-ms" => {
                args.serve_config.idle_timeout = Duration::from_millis(
                    value(&mut i, "--idle-timeout-ms")
                        .parse()
                        .expect("--idle-timeout-ms: integer"),
                );
            }
            "--batch-max" => {
                args.serve_config.max_batch = value(&mut i, "--batch-max")
                    .parse()
                    .expect("--batch-max: integer");
            }
            "--batch-wait-us" => {
                args.serve_config.max_wait = Duration::from_micros(
                    value(&mut i, "--batch-wait-us")
                        .parse()
                        .expect("--batch-wait-us: integer"),
                );
            }
            "--queue-cap" => {
                args.serve_config.queue_capacity = value(&mut i, "--queue-cap")
                    .parse()
                    .expect("--queue-cap: integer");
            }
            "--max-conns" => {
                args.serve_config.max_connections = value(&mut i, "--max-conns")
                    .parse()
                    .expect("--max-conns: integer");
            }
            "--poller" => {
                let name = value(&mut i, "--poller");
                args.poller = Some(PollerKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown poller backend `{name}` (epoll|poll)");
                    std::process::exit(2);
                }));
            }
            "--memo-capacity" => {
                args.serve_config.memo_capacity = value(&mut i, "--memo-capacity")
                    .parse()
                    .expect("--memo-capacity: integer");
            }
            "--memo-bytes" => {
                args.serve_config.memo_max_bytes = value(&mut i, "--memo-bytes")
                    .parse()
                    .expect("--memo-bytes: integer");
            }
            "--no-singleflight" => args.serve_config.singleflight = false,
            "--tenants" => {
                let spec = value(&mut i, "--tenants");
                for part in spec.split(',').filter(|s| !s.is_empty()) {
                    let mut fields = part.splitn(3, ':');
                    let name = fields.next().unwrap_or_default().to_string();
                    let token = fields.next().unwrap_or_default().to_string();
                    let quota = fields.next().map_or(0, |q| {
                        q.parse().unwrap_or_else(|_| {
                            eprintln!("--tenants: quota in `{part}` must be an integer");
                            std::process::exit(2);
                        })
                    });
                    if name.is_empty() {
                        eprintln!("--tenants: empty tenant name in `{spec}`");
                        std::process::exit(2);
                    }
                    args.serve_config
                        .tenants
                        .push(ServeTenant { name, token, quota });
                }
            }
            "--default-tenant" => {
                let name = value(&mut i, "--default-tenant");
                args.serve_config.default_tenant = if name == "none" { None } else { Some(name) };
            }
            "--ttl-secs" => {
                args.serve_config.ttl = Duration::from_secs(
                    value(&mut i, "--ttl-secs")
                        .parse()
                        .expect("--ttl-secs: integer"),
                );
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(value(&mut i, "--metrics-out")));
            }
            "--trace-sample" => {
                args.serve_config.trace_sample = value(&mut i, "--trace-sample")
                    .parse()
                    .expect("--trace-sample: integer");
            }
            "--trace-slow-ms" => {
                args.serve_config.trace_slow = Duration::from_millis(
                    value(&mut i, "--trace-slow-ms")
                        .parse()
                        .expect("--trace-slow-ms: integer"),
                );
            }
            "--trace-log" => {
                args.serve_config.trace_log = Some(PathBuf::from(value(&mut i, "--trace-log")));
            }
            "--trace-dump-out" => {
                args.trace_dump_out = Some(PathBuf::from(value(&mut i, "--trace-dump-out")));
            }
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: serve [--addr A] [--shards N] [--capacity N] [--threshold T] \
                     [--index KIND] [--seed N] [--routing MODE] [--persist PATH] \
                     [--fsync always|never|every-N] [--deadline-ms N] [--idle-timeout-ms N] \
                     [--batch-max N] [--batch-wait-us N] [--queue-cap N] [--max-conns N] \
                     [--poller epoll|poll] [--memo-capacity N] [--memo-bytes N] \
                     [--no-singleflight] [--tenants name:token:quota,...] \
                     [--default-tenant NAME|none] [--ttl-secs N] \
                     [--metrics-out PATH] [--trace-sample N] \
                     [--trace-slow-ms N] [--trace-log PATH] [--trace-dump-out PATH] [--smoke]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn build_cache(args: &Args) -> (ShardedCache, RecoveryStats) {
    let encoder = QueryEncoder::new(ModelProfile::tiny(), args.seed).expect("tiny profile");
    let config = MeanCacheConfig::default()
        .with_threshold(args.threshold)
        .with_index(args.index.clone())
        .with_shards(args.shards)
        .with_routing(args.routing);
    let config = MeanCacheConfig {
        capacity: args.capacity,
        ..config
    };
    // A previous save at the persist path takes precedence over an empty
    // cache, and its sidecar config (threshold, capacity, index, …) wins
    // over the corresponding CLI flags — consistently, whether or not a
    // reshard happens. Only the topology flags (`--shards`, `--routing`)
    // override the save, via an explicit reshard-in-place.
    if let Some(path) = &args.serve_config.persist_path {
        let mut sidecar = path.as_os_str().to_os_string();
        sidecar.push(".config.json");
        if PathBuf::from(sidecar).exists() {
            let restore_start = std::time::Instant::now();
            let (restored, recovery) = load_sharded_cache_with_report(encoder, path)
                .unwrap_or_else(|e| {
                    eprintln!("cannot restore cache from {}: {e}", path.display());
                    std::process::exit(2);
                });
            let restore_elapsed = restore_start.elapsed();
            // Which of the two restore states ran (see docs/FORMAT.md §7):
            // mmap snapshot, or log replay.
            let via = if recovery.snapshot_loaded > 0 {
                format!(
                    "{}/{} shards via mmap snapshot, {} records replayed for the rest",
                    recovery.snapshot_loaded,
                    restored.shard_count(),
                    recovery.records_replayed,
                )
            } else {
                format!("log replay, {} records", recovery.records_replayed)
            };
            println!(
                "mc-serve: restored {} entries from {} in {:.1?} ({via})",
                meancache::SemanticCache::len(&restored),
                path.display(),
                restore_elapsed,
            );
            if recovery.bytes_truncated > 0 {
                println!(
                    "mc-serve: truncated {} torn-tail bytes while replaying {} records from {}",
                    recovery.bytes_truncated,
                    recovery.records_replayed,
                    path.display(),
                );
            }
            if restored.shard_count() != args.shards || restored.routing() != args.routing {
                println!(
                    "mc-serve: resharding restored cache ({} shards, {} routing) to \
                     ({} shards, {} routing)",
                    restored.shard_count(),
                    restored.routing().name(),
                    args.shards,
                    args.routing.name(),
                );
                let desired = restored
                    .config()
                    .clone()
                    .with_shards(args.shards)
                    .with_routing(args.routing);
                let resharded = reshard(&restored, desired).unwrap_or_else(|e| {
                    eprintln!("reshard of restored cache failed: {e}");
                    std::process::exit(2);
                });
                return (resharded, recovery);
            }
            return (restored, recovery);
        }
    }
    let cache = ShardedCache::new(encoder, config).expect("valid serving config");
    (cache, RecoveryStats::default())
}

fn start_server(
    cache: ShardedCache,
    args: &Args,
    restored: RecoveryStats,
) -> mc_serve::ServerHandle {
    let mut config = args.serve_config.clone();
    config.restored = restored;
    match args.poller {
        Some(kind) => Server::start_with_poller(cache, &config, args.addr.as_str(), kind)
            .expect("bind serving address"),
        None => Server::start(cache, &config, args.addr.as_str()).expect("bind serving address"),
    }
}

fn main() {
    let args = parse_args();
    if args.smoke {
        smoke(&args);
        return;
    }
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    println!(
        "mc-serve listening on {} ({} shards, {} index, {} kernels, batch ≤ {} / {:?} linger, queue {} cap, {} conns max)",
        handle.addr(),
        args.shards,
        args.index.name(),
        mc_tensor::kernels::active_isa(),
        args.serve_config.max_batch,
        args.serve_config.max_wait,
        args.serve_config.queue_capacity,
        args.serve_config.max_connections,
    );
    // Parks until a client sends Shutdown, then tears down gracefully.
    handle.wait();
    println!("mc-serve: drained and shut down");
}

/// The localhost smoke test CI runs: known traffic, asserted hit/miss
/// counts, graceful shutdown.
fn smoke(args: &Args) {
    // A fast smoke wants visible batching: tiny linger, default batch size.
    // Persistence gets a scratch path so the save/restore cycle is covered.
    let persist_dir = std::env::temp_dir().join(format!("mc_serve_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&persist_dir).expect("smoke scratch dir");
    let mut serve_config = args.serve_config.clone();
    serve_config.max_wait = Duration::from_micros(100);
    serve_config.persist_path = Some(persist_dir.join("cache.log"));
    let args = Args {
        addr: "127.0.0.1:0".to_string(),
        shards: args.shards,
        capacity: args.capacity,
        threshold: args.threshold,
        index: args.index.clone(),
        seed: args.seed,
        routing: args.routing,
        serve_config,
        poller: args.poller,
        metrics_out: args.metrics_out.clone(),
        trace_dump_out: args.trace_dump_out.clone(),
        smoke: true,
    };
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    let addr = handle.addr();
    println!(
        "smoke: serving on {addr} (poller {})",
        args.poller.map_or("default", |k| k.name())
    );
    let metrics_out = args.metrics_out.clone();

    let inserts = 40;
    let misses_expected = 25;
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.ping().expect("ping");
        for i in 0..inserts {
            client
                .insert(
                    &format!("smoke topic number {i} with some distinct words"),
                    &format!("response {i}"),
                    &[],
                )
                .expect("insert");
        }
        // Exact repeats must hit, novel queries must miss — pipelined, so
        // the batcher sees real windows.
        let hit_probes: Vec<(String, Vec<String>)> = (0..inserts)
            .map(|i| {
                (
                    format!("smoke topic number {i} with some distinct words"),
                    Vec::new(),
                )
            })
            .collect();
        let outcomes = client.lookup_pipelined(&hit_probes).expect("hit lookups");
        let hits = outcomes.iter().filter(|o| o.is_hit()).count();
        assert_eq!(hits, inserts, "every exact repeat must hit");
        let miss_probes: Vec<(String, Vec<String>)> = (0..misses_expected)
            .map(|i| (format!("never inserted probe {i} zzqx"), Vec::new()))
            .collect();
        let outcomes = client.lookup_pipelined(&miss_probes).expect("miss lookups");
        let misses = outcomes.iter().filter(|o| o.is_miss()).count();
        assert_eq!(misses, misses_expected, "novel probes must miss");

        let stats = client.stats().expect("stats");
        assert_eq!(stats.entries, inserts, "stats: entries");
        assert_eq!(stats.inserts, inserts as u64, "stats: inserts");
        assert_eq!(stats.served_hits, inserts as u64, "stats: served hits");
        assert_eq!(
            stats.served_misses, misses_expected as u64,
            "stats: served misses"
        );
        assert_eq!(stats.shed, 0, "stats: nothing shed");
        assert!(stats.batches > 0, "stats: batches formed");
        println!(
            "smoke: {} hits / {} misses, {} batches (avg size {:.1}), occupancy {:?}",
            stats.served_hits,
            stats.served_misses,
            stats.batches,
            stats.avg_batch,
            stats.shard_occupancy
        );

        // Metrics plane: the text exposition must cross-check the stats
        // snapshot, and (when asked) lands on disk as a CI artifact.
        let metrics = client.metrics_text().expect("metrics");
        assert!(
            metrics.contains(&format!("serve_entries {inserts}")),
            "metrics: entries gauge\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("serve_served_hits_total {inserts}")),
            "metrics: served hits counter\n{metrics}"
        );
        assert!(
            metrics.contains("serve_latency_us_count"),
            "metrics: latency histogram\n{metrics}"
        );
        assert!(
            metrics.contains("serve_kernel_info{isa=\""),
            "metrics: live dot-kernel label\n{metrics}"
        );
        if let Some(path) = &metrics_out {
            std::fs::write(path, &metrics).expect("write --metrics-out");
            println!("smoke: wrote metrics exposition to {}", path.display());
        }

        // Routing control plane: switch to scatter-gather (reshards in
        // place) — every exact repeat must still hit afterwards.
        client
            .set_routing(RoutingMode::ScatterGather)
            .expect("set_routing");
        let stats = client.stats().expect("stats after set_routing");
        assert_eq!(stats.routing, "scatter-gather", "stats: routing mode");
        assert_eq!(stats.entries, inserts, "stats: entries after reshard");
        let outcomes = client.lookup_pipelined(&hit_probes).expect("post-reshard");
        assert!(
            outcomes.iter().all(|o| o.is_hit()),
            "every exact repeat must hit after resharding"
        );

        // Persistence control plane: an explicit save reports the entry
        // count; shutdown re-saves automatically.
        let saved = client.save().expect("save");
        assert_eq!(saved, inserts as u64, "save: persisted entry count");
        client.shutdown_server().expect("shutdown");
    });

    handle.wait();
    client.join().expect("smoke client panicked");

    // Restart against the same persist path: contents must survive.
    let (restored, _recovery) = build_cache(&args);
    assert_eq!(
        meancache::SemanticCache::len(&restored),
        inserts,
        "restart must restore every saved entry"
    );
    assert_eq!(
        restored.routing(),
        args.routing,
        "CLI routing wins on restart"
    );
    std::fs::remove_dir_all(&persist_dir).ok();

    smoke_busy_retry(&args);
    smoke_deadline(&args);
    smoke_tracing(&args);
    smoke_tenancy(&args);
    println!("smoke: PASS (incl. reshard, save/restore, Busy retry, deadline, tracing, tenancy)");
}

/// Tenancy check over the real wire: provisioned tenants authenticate via
/// `Hello`, a wrong token is rejected without killing the connection,
/// tenants cannot see each other's inserts, and `Invalidate` stales a
/// tenant's pre-bump entries while leaving the neighbour untouched.
fn smoke_tenancy(args: &Args) {
    let mut serve_config = args.serve_config.clone();
    serve_config.persist_path = None;
    serve_config.tenants = vec![
        ServeTenant {
            name: "acme".to_string(),
            token: "sekret".to_string(),
            quota: 0,
        },
        ServeTenant {
            name: "beta".to_string(),
            token: "hunter2".to_string(),
            quota: 0,
        },
    ];
    let args = Args {
        addr: "127.0.0.1:0".to_string(),
        serve_config,
        ..clone_args(args)
    };
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    let addr = handle.addr();

    let mut acme = Client::connect(addr).expect("acme connect");
    match acme.hello("acme", "wrong-token") {
        Err(ClientError::Rejected {
            code: ErrorCode::Unauthenticated,
            ..
        }) => {}
        other => panic!("wrong token must be rejected as Unauthenticated, got {other:?}"),
    }
    // The rejection leaves the connection usable for a corrected handshake.
    acme.hello("acme", "sekret").expect("acme hello");
    acme.insert("tenancy smoke entry", "acme answer", &[])
        .expect("acme insert");
    assert!(
        acme.lookup("tenancy smoke entry", &[])
            .expect("acme lookup")
            .is_hit(),
        "acme must see its own insert"
    );

    // Auto-Hello path: the config-driven handshake binds the tenant too.
    let beta_config = ClientConfig {
        tenant: Some("beta".to_string()),
        token: Some("hunter2".to_string()),
        ..ClientConfig::default()
    };
    let mut beta = Client::connect_with_config(addr, beta_config).expect("beta connect");
    assert!(
        beta.lookup("tenancy smoke entry", &[])
            .expect("beta lookup")
            .is_miss(),
        "beta must not see acme's insert"
    );

    // Cross-tenant invalidation is forbidden for authenticated clients.
    match beta.invalidate("acme", 0) {
        Err(ClientError::Rejected {
            code: ErrorCode::Unauthenticated,
            retryable: false,
            ..
        }) => {}
        other => panic!("cross-tenant invalidate must be rejected, got {other:?}"),
    }
    // Self-invalidation stales acme's pre-bump entries...
    let epoch = acme.invalidate("acme", 0).expect("acme invalidate");
    assert!(epoch >= 1, "invalidate must report the bumped epoch");
    assert!(
        acme.lookup("tenancy smoke entry", &[])
            .expect("post-invalidate lookup")
            .is_miss(),
        "acme's pre-invalidation entry must be stale"
    );
    // ...and per-tenant stats rows account for all of it.
    let stats = acme.stats().expect("tenancy stats");
    let names: Vec<&str> = stats.tenants.iter().map(|t| t.name.as_str()).collect();
    assert!(
        names.contains(&"acme") && names.contains(&"beta"),
        "stats must carry per-tenant rows, got {names:?}"
    );

    acme.shutdown_server().expect("shutdown tenancy server");
    handle.wait();
    println!("smoke: tenancy — handshake, isolation, and invalidation verified over the wire");
}

/// Busy-storm retry round-trip: a server with a one-slot batch queue, a
/// flooder pipelining deep lookup windows into it (provoking real `Busy`
/// sheds), and a [`ClientConfig::resilient`] client that must still land
/// every insert and lookup through jittered retries.
fn smoke_busy_retry(args: &Args) {
    let mut serve_config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        max_wait: Duration::from_micros(100),
        ..args.serve_config.clone()
    };
    serve_config.persist_path = None;
    let args = Args {
        addr: "127.0.0.1:0".to_string(),
        serve_config,
        ..clone_args(args)
    };
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    let addr = handle.addr();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood_stop = stop.clone();
    let flooder = std::thread::spawn(move || {
        let probes: Vec<(String, Vec<String>)> = (0..32)
            .map(|i| (format!("flood probe {i}"), Vec::new()))
            .collect();
        let mut busy_seen = 0u64;
        let mut client = Client::connect(addr).expect("flooder connect");
        while !flood_stop.load(std::sync::atomic::Ordering::Relaxed) {
            match client.lookup_pipelined(&probes) {
                Ok(_) => {}
                Err(ClientError::Overloaded) => {
                    busy_seen += 1;
                    // A shed mid-pipeline leaves unread responses in the
                    // buffer; resync with a fresh connection.
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

    let mut client =
        Client::connect_with_config(addr, ClientConfig::resilient()).expect("resilient connect");
    let rounds = 20;
    for i in 0..rounds {
        client
            .insert(
                &format!("busy storm entry {i}"),
                &format!("answer {i}"),
                &[],
            )
            .unwrap_or_else(|e| panic!("resilient insert {i} must eventually land: {e}"));
    }
    for i in 0..rounds {
        let outcome = client
            .lookup(&format!("busy storm entry {i}"), &[])
            .unwrap_or_else(|e| panic!("resilient lookup {i} must eventually land: {e}"));
        assert!(outcome.is_hit(), "resilient lookup {i} must hit");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let busy_seen = flooder.join().expect("flooder panicked");
    assert!(
        busy_seen > 0,
        "the one-slot queue must have shed at least one flooder window"
    );
    client.shutdown_server().expect("shutdown busy server");
    handle.wait();
    println!(
        "smoke: Busy storm — {busy_seen} shed windows, {rounds}/{rounds} resilient calls landed"
    );
}

/// Deadline check: with a sub-microsecond request deadline every queued
/// lookup expires before execution and must come back as a retryable
/// `DeadlineExceeded` failure frame — without closing the connection.
fn smoke_deadline(args: &Args) {
    let mut serve_config = args.serve_config.clone();
    serve_config.request_deadline = Duration::from_nanos(1);
    serve_config.persist_path = None;
    let args = Args {
        addr: "127.0.0.1:0".to_string(),
        serve_config,
        ..clone_args(args)
    };
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    let mut client = Client::connect(handle.addr()).expect("deadline connect");
    match client.lookup("doomed to expire", &[]) {
        Err(ClientError::Rejected {
            code: ErrorCode::DeadlineExceeded,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected a retryable DeadlineExceeded frame, got {other:?}"),
    }
    // The failure frame keeps the connection usable: controls (which are
    // exempt from the lookup deadline) still work on the same socket.
    client.ping().expect("ping after deadline failure");
    client.shutdown_server().expect("shutdown deadline server");
    handle.wait();
    println!("smoke: deadline — expired lookup failed retryably, connection survived");
}

/// Tracing check: with 1-in-1 sampling, a slow-request threshold, and a
/// slow-request log armed, a deliberately delayed lookup must land in
/// both the flight recorder (read back via `TraceDump` over the wire)
/// and the log. The delay comes from the `serve.batch.work` failpoint
/// when the `failpoints` feature is on, and from
/// `ServeConfig::batch_delay` otherwise, so the phase works in every
/// build.
fn smoke_tracing(args: &Args) {
    let scratch = std::env::temp_dir().join(format!("mc_serve_trace_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("trace scratch dir");
    let trace_log = scratch.join("slow.jsonl");
    let mut serve_config = args.serve_config.clone();
    serve_config.persist_path = None;
    serve_config.trace_sample = 1;
    serve_config.trace_slow = Duration::from_millis(5);
    serve_config.trace_log = Some(trace_log.clone());
    #[cfg(not(feature = "failpoints"))]
    {
        serve_config.batch_delay = Duration::from_millis(20);
    }
    let args = Args {
        addr: "127.0.0.1:0".to_string(),
        serve_config,
        ..clone_args(args)
    };
    let (cache, restored) = build_cache(&args);
    let handle = start_server(cache, &args, restored);
    let mut client = Client::connect(handle.addr()).expect("tracing connect");

    client
        .insert("traced entry", "traced answer", &[])
        .expect("traced insert");
    #[cfg(feature = "failpoints")]
    mc_store::failpoints::set(
        "serve.batch.work",
        mc_store::failpoints::FailAction::Delay { micros: 20_000 },
    );
    let outcome = client.lookup("traced entry", &[]).expect("slow lookup");
    assert!(outcome.is_hit(), "traced lookup must hit");
    #[cfg(feature = "failpoints")]
    mc_store::failpoints::clear("serve.batch.work");

    let dump_json = client.trace_dump().expect("trace dump");
    let dump: mc_metrics::TraceDump = serde_json::from_str(&dump_json).expect("trace dump json");
    if let Some(path) = &args.trace_dump_out {
        std::fs::write(path, &dump_json).expect("write --trace-dump-out");
        println!("smoke: wrote flight-recorder dump to {}", path.display());
    }
    assert_eq!(dump.sample_every, 1, "dump: sampling config");
    assert!(
        dump.traces.iter().any(|t| t.slow),
        "the delayed lookup must be flagged slow in the recorder\n{dump_json}"
    );
    assert!(
        dump.traces.iter().all(|t| t.is_monotone()),
        "every recorded trace must have monotone stage timestamps\n{dump_json}"
    );

    client.shutdown_server().expect("shutdown tracing server");
    handle.wait();

    // Slow-request log: one JSON line per outlier, flushed as it happens.
    let log = std::fs::read_to_string(&trace_log).expect("slow-request log");
    let lines: Vec<&str> = log.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "slow-request log must have entries");
    let mut slow_logged = 0;
    for line in &lines {
        let snap: mc_metrics::TraceSnapshot =
            serde_json::from_str(line).expect("slow-log line json");
        assert!(
            snap.is_monotone(),
            "slow-log trace must be monotone: {line}"
        );
        if snap.slow {
            slow_logged += 1;
        }
    }
    assert!(slow_logged > 0, "at least one logged trace must be slow");
    std::fs::remove_dir_all(&scratch).ok();
    println!(
        "smoke: tracing — {} recorder traces, {} slow-log lines ({slow_logged} slow)",
        dump.traces.len(),
        lines.len()
    );
}

/// Manual clone for the flag struct (smoke phases tweak one field each).
fn clone_args(args: &Args) -> Args {
    Args {
        addr: args.addr.clone(),
        shards: args.shards,
        capacity: args.capacity,
        threshold: args.threshold,
        index: args.index.clone(),
        seed: args.seed,
        routing: args.routing,
        serve_config: args.serve_config.clone(),
        poller: args.poller,
        metrics_out: args.metrics_out.clone(),
        trace_dump_out: args.trace_dump_out.clone(),
        smoke: true,
    }
}
