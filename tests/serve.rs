//! Overload-robustness acceptance suite for the serving layer.
//!
//! The contract under test (ndt-serve + `ukraine-ndt serve`): overload
//! degrades service deterministically — typed sheds off a bounded queue,
//! per-request deadlines that count queue wait, per-request panic
//! containment, byte-identical cache hits with single-flight dedup, and
//! a drain that delivers every admitted response before exiting. The
//! in-process half exercises the server core directly (no sockets, no
//! timing-fragile client fleets); the subprocess half proves the same
//! behaviours through the real binary, TCP front and exit codes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ukraine_ndt::prelude::*;
use ukraine_ndt::runner::run_store_generate;
use ukraine_ndt::serve::net::MAX_REQUEST_LINE;
use ukraine_ndt::serve::{
    fetch, run_load, serve_tcp, LoadConfig, Reply, Request, ServeConfig, ServeError, Server,
};

/// One tiny corpus shared by every in-process test (generation is the
/// expensive part; the server itself boots in microseconds).
fn corpus() -> Arc<StudyData> {
    static DATA: OnceLock<Arc<StudyData>> = OnceLock::new();
    Arc::clone(DATA.get_or_init(|| {
        Arc::new(StudyData::generate(SimConfig {
            scale: 0.01,
            seed: 20_220_224,
            ..SimConfig::default()
        }))
    }))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// A server config with no test hooks and caching off — each test turns
/// on exactly what it probes.
fn base_cfg() -> ServeConfig {
    ServeConfig { cache: false, ..ServeConfig::default() }
}

/// `serve_tcp` in front of a server, on a thread of its own.
struct TcpFront {
    /// Loopback `host:port` of the listener.
    addr: String,
    shutdown: Arc<AtomicBool>,
    returned: mpsc::Receiver<std::io::Result<()>>,
    net: JoinHandle<()>,
}

impl TcpFront {
    /// Binds `bind` (an IPv4 address, port 0) and serves `server` on it.
    fn start(server: &Server, bind: &str) -> TcpFront {
        let listener = TcpListener::bind(bind).expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, returned) = mpsc::channel();
        let (handle, flag) = (server.handle(), Arc::clone(&shutdown));
        let net = std::thread::spawn(move || {
            let _ = tx.send(serve_tcp(listener, handle, flag));
        });
        TcpFront { addr: format!("127.0.0.1:{port}"), shutdown, returned, net }
    }

    /// Flips the shutdown flag; `serve_tcp` must return `Ok` within
    /// `limit`.
    fn stop_within(self, limit: Duration) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.returned
            .recv_timeout(limit)
            .unwrap_or_else(|_| panic!("serve_tcp still running {limit:?} after the flip"))
            .expect("clean accept-loop exit");
        self.net.join().expect("net thread");
    }
}

#[test]
fn overload_sheds_typed_rejections_off_the_bounded_queue() {
    // One slow worker, queue of 2: a burst of 16 cannot all be admitted.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        stall: Some(Duration::from_millis(120)),
        ..base_cfg()
    };
    let server = Server::start(corpus(), 1, cfg);
    let results: Vec<_> = (0..16)
        .map(|_| {
            let h = server.handle();
            std::thread::spawn(move || h.submit("fig2", Some(Duration::from_secs(30))))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("submitter thread"))
        .collect();

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
        .count();
    assert!(ok >= 1, "some requests must be served");
    assert!(shed >= 1, "a 16-burst against queue=2/workers=1 must shed");
    assert_eq!(ok + shed, 16, "every request ends typed: served or shed, {results:?}");
    // The shed is *typed and deterministic*: same retry-after on every one.
    for r in &results {
        if let Err(ServeError::Overloaded { retry_after }) = r {
            assert_eq!(*retry_after, ukraine_ndt::serve::server::RETRY_AFTER);
        }
    }
    let stats = server.drain();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.accepted, ok as u64);
    assert!(
        stats.queue_depth_peak <= 2 + 1,
        "bounded queue: peak depth {} must stay near capacity 2",
        stats.queue_depth_peak
    );
}

#[test]
fn deadlines_count_queue_wait_and_bound_execution() {
    // Single worker stalled 200ms per request.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        stall: Some(Duration::from_millis(200)),
        ..base_cfg()
    };
    let server = Server::start(corpus(), 1, cfg);

    // Occupy the worker, then queue a request whose 50ms budget will
    // have expired before it is ever dequeued: it must fail without
    // executing.
    let first = {
        let h = server.handle();
        std::thread::spawn(move || h.submit("fig2", Some(Duration::from_secs(30))))
    };
    std::thread::sleep(Duration::from_millis(30));
    let queued = server.handle().submit("fig3", Some(Duration::from_millis(50)));
    assert_eq!(queued, Err(ServeError::DeadlineExceeded), "expired while queued");
    first.join().expect("thread").expect("first request survives");

    // An idle server, but the stall outlives the budget: the executor's
    // deadline machinery abandons the attempt mid-execution.
    let mid = server.handle().submit("fig2", Some(Duration::from_millis(50)));
    assert_eq!(mid, Err(ServeError::DeadlineExceeded), "expired mid-execution");

    let stats = server.drain();
    assert!(stats.timeouts >= 2, "both deadline paths counted: {stats:?}");
    // Only the first request ran to completion: fig3 expired unexecuted
    // and the mid-execution one was abandoned by the executor.
    assert_eq!(stats.executed, 1, "{stats:?}");
}

#[test]
fn a_panicking_stage_fails_its_own_request_and_the_server_lives() {
    let cfg = ServeConfig { panic_stages: vec!["fig3".to_string()], ..base_cfg() };
    let server = Server::start(corpus(), 1, cfg);
    let h = server.handle();

    match h.submit("fig3", None) {
        Err(ServeError::Panicked(msg)) => {
            assert!(msg.contains("injected panic"), "{msg}")
        }
        other => panic!("expected contained panic, got {other:?}"),
    }
    // The server is still fully functional afterwards.
    let body = h.submit("fig2", None).expect("server survived the panic");
    assert!(body.contains("== Figure 2"), "{body}");

    let stats = server.drain();
    assert_eq!(stats.panics, 1, "{stats:?}");
    assert_eq!(stats.executed, 1, "{stats:?}");
}

#[test]
fn unknown_stages_are_rejected_before_admission() {
    let server = Server::start(corpus(), 1, base_cfg());
    let err = server.handle().submit("fig99", None).expect_err("unknown stage");
    assert_eq!(err, ServeError::UnknownStage("fig99".to_string()));
    let stats = server.drain();
    assert_eq!(stats.accepted, 0, "rejected without consuming a queue slot");
}

#[test]
fn cache_hits_are_byte_identical_and_concurrent_misses_single_flight() {
    let cfg = ServeConfig {
        cache: true,
        stall: Some(Duration::from_millis(80)),
        ..ServeConfig::default()
    };
    let server = Server::start(corpus(), 1, cfg);

    // 8 concurrent identical requests: one executes, the rest share it.
    let bodies: Vec<_> = (0..8)
        .map(|_| {
            let h = server.handle();
            std::thread::spawn(move || h.submit("fig2", Some(Duration::from_secs(30))))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("thread").expect("all served"))
        .collect();
    for b in &bodies[1..] {
        assert_eq!(**b, *bodies[0], "concurrent responses are byte-identical");
    }

    // A later request hits the cache — and the hit is the literal same
    // allocation, so byte-identity to the cold response is structural.
    let hit = server.handle().submit("fig2", None).expect("cache hit");
    assert_eq!(*hit, *bodies[0]);

    let stats = server.drain();
    assert_eq!(stats.executed, 1, "single-flight: one execution for 9 requests, {stats:?}");
    assert_eq!(
        stats.singleflight_waits + stats.cache_hits,
        8,
        "everyone else waited or hit: {stats:?}"
    );

    // Cold comparison: an uncached server computes the same bytes.
    let cold = Server::start(corpus(), 1, base_cfg());
    let cold_body = cold.handle().submit("fig2", None).expect("cold response");
    assert_eq!(*cold_body, *bodies[0], "cached == cold, byte for byte");
    cold.drain();
}

#[test]
fn drain_delivers_every_admitted_request_then_rejects_new_ones() {
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        stall: Some(Duration::from_millis(100)),
        ..base_cfg()
    };
    let server = Server::start(corpus(), 1, cfg);
    let handle = server.handle();

    // A mid-burst drain: 6 requests are admitted (queue 16 swallows the
    // burst), then drain starts while most are still queued.
    let inflight: Vec<_> = (0..6)
        .map(|_| {
            let h = server.handle();
            std::thread::spawn(move || h.submit("fig2", Some(Duration::from_secs(30))))
        })
        .collect();
    // Wait until all 6 are admitted (not merely spawned) so the drain
    // genuinely starts mid-burst rather than racing slow thread spawns.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.stats().accepted < 6 {
        assert!(std::time::Instant::now() < deadline, "burst never fully admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.drain();

    for t in inflight {
        let res = t.join().expect("thread");
        assert!(
            res.is_ok(),
            "admitted requests are delivered through the drain: {res:?}"
        );
    }
    assert_eq!(stats.executed, 6, "{stats:?}");

    // Post-drain submissions get the typed drain rejection.
    assert_eq!(handle.submit("fig2", None), Err(ServeError::Draining));
    assert!(handle.is_draining());
}

#[test]
fn tcp_front_round_trips_requests_and_typed_errors() {
    let cfg = ServeConfig { panic_stages: vec!["table1".to_string()], ..base_cfg() };
    let server = Server::start(corpus(), 1, cfg);
    let front = TcpFront::start(&server, "127.0.0.1:0");
    let addr = front.addr.clone();

    let reply = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    match reply {
        Reply::Ok(body) => assert!(body.contains("== Figure 2"), "{body}"),
        other => panic!("expected OK, got {other:?}"),
    }
    let reply = fetch(&addr, &Request::new("nope"), Duration::from_secs(30)).expect("fetch");
    assert_eq!(reply, Reply::Err(ServeError::UnknownStage("nope".to_string())));
    let reply = fetch(&addr, &Request::new("table1"), Duration::from_secs(30)).expect("fetch");
    assert!(
        matches!(reply, Reply::Err(ServeError::Panicked(_))),
        "panic crosses the wire typed: {reply:?}"
    );

    front.stop_within(Duration::from_secs(30));
    let stats = server.drain();
    assert_eq!(stats.executed, 1, "{stats:?}");
    assert_eq!(stats.panics, 1, "{stats:?}");
}

#[test]
fn an_oversized_request_line_gets_a_typed_error_not_a_hang() {
    let server = Server::start(corpus(), 1, base_cfg());
    let front = TcpFront::start(&server, "127.0.0.1:0");
    let addr = front.addr.clone();

    // A line a little over the cap, no newline, and the socket kept open:
    // only the cap can end the server's read.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 64]).expect("send");
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("a reply within 5 s");
    assert_eq!(reply, "ERR failed request line too long\n");

    // The server still answers well-formed requests.
    let reply = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");

    drop(stream);
    front.stop_within(Duration::from_secs(30));
    server.drain();
}

/// `GET nope` is rejected as `unknown-stage` before the queue, so a
/// round trip of it is transport alone: connect, accept, one line each
/// way. No accept-side wait may sit on that path.
#[test]
fn back_to_back_fetches_pay_no_accept_wait() {
    let server = Server::start(corpus(), 1, base_cfg());
    let front = TcpFront::start(&server, "127.0.0.1:0");
    let mut walls: Vec<Duration> = (0..40)
        .map(|_| {
            let t = Instant::now();
            let reply =
                fetch(&front.addr, &Request::new("nope"), Duration::from_secs(30)).expect("fetch");
            assert_eq!(reply, Reply::Err(ServeError::UnknownStage("nope".to_string())));
            t.elapsed()
        })
        .collect();
    walls.sort();
    let median = walls[walls.len() / 2];
    assert!(median < Duration::from_millis(2), "median round trip {median:?}: {walls:?}");
    front.stop_within(Duration::from_secs(30));
    server.drain();
}

/// A flip with no client connecting stops `serve_tcp` promptly, on a
/// loopback listener and on a wildcard one.
#[test]
fn serve_tcp_returns_promptly_after_the_flip_with_no_client() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(corpus(), 1, base_cfg());
        let front = TcpFront::start(&server, bind);
        // One round trip first, so the flip finds the loop running.
        let reply =
            fetch(&front.addr, &Request::new("nope"), Duration::from_secs(30)).expect("fetch");
        assert!(matches!(reply, Reply::Err(ServeError::UnknownStage(_))), "{bind}: {reply:?}");
        front.stop_within(Duration::from_secs(1));
        server.drain();
    }
}

/// A request still executing at the flip is answered in full before
/// `serve_tcp` returns.
#[test]
fn a_request_in_flight_at_the_flip_is_delivered_before_serve_tcp_returns() {
    let cfg = ServeConfig { workers: 1, stall: Some(Duration::from_millis(200)), ..base_cfg() };
    let server = Server::start(corpus(), 1, cfg);
    let handle = server.handle();
    let front = TcpFront::start(&server, "127.0.0.1:0");
    let client = {
        let addr = front.addr.clone();
        std::thread::spawn(move || fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)))
    };
    // Flip once the request is admitted: the stall keeps it executing.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().accepted < 1 {
        assert!(Instant::now() < deadline, "request never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    front.stop_within(Duration::from_secs(30));
    assert_eq!(
        handle.stats().executed,
        1,
        "serve_tcp returned before its in-flight request finished"
    );
    // `fetch` reads exactly the length the `OK` line announces.
    match client.join().expect("client thread").expect("fetch") {
        Reply::Ok(body) => assert!(body.starts_with("== Figure 2"), "{body}"),
        other => panic!("expected OK, got {other:?}"),
    }
    server.drain();
}

// ---------------------------------------------------------------------
// Subprocess half: the real binary, TCP front, drain-on-stdin-EOF and
// the exit-code contract (0 clean / 3 degraded store).
// ---------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"))
}

/// Builds a tiny columnar store on disk.
fn build_store(dir: &Path) {
    let sim = SimConfig { scale: 0.01, seed: 20_220_224, ..SimConfig::default() };
    let mut cfg = PipelineConfig::new(sim, dir.join("out"));
    cfg.checkpoints = false;
    run_store_generate(&cfg, &dir.join("store")).expect("store generate");
}

/// Spawns `serve --store` and reads the `SERVE_ADDR=` line off stdout.
fn spawn_serve(store: &Path, envs: &[(&str, &str)]) -> (Child, String) {
    let mut cmd = bin();
    cmd.args(["serve", "--store", &store.display().to_string(), "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve must print SERVE_ADDR before EOF")
            .expect("readable stdout");
        if let Some(addr) = line.strip_prefix("SERVE_ADDR=") {
            break addr.to_string();
        }
    };
    (child, addr)
}

/// Closes stdin (the drain signal) and waits for the exit code.
fn drain_and_wait(mut child: Child) -> i32 {
    drop(child.stdin.take());
    child.wait().expect("serve exits").code().expect("has exit code")
}

#[test]
fn serve_binary_serves_load_and_drains_clean_with_exit_zero() {
    let d = tmpdir("bin-clean");
    build_store(&d);
    let (child, addr) = spawn_serve(&d.join("store"), &[]);

    // A real concurrent load through the TCP front: mixed stages so both
    // the miss and (on repeats) the hit path run.
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        clients: 16,
        requests_per_client: 4,
        stages: vec!["fig2".into(), "fig3".into(), "table1".into(), "fig4".into()],
        deadline_ms: None,
        socket_timeout: Duration::from_secs(30),
    });
    assert_eq!(report.total, 64);
    assert_eq!(report.ok, 64, "unloaded small store serves everything: {report:?}");
    assert_eq!(report.io_errors, 0, "{report:?}");

    // Identical repeated requests are byte-identical (cache on by default).
    let a = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    let b = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    assert_eq!(a, b, "cached response bytes match the first response");

    assert_eq!(drain_and_wait(child), 0, "clean store + clean drain = exit 0");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn serve_binary_survives_injected_panics_and_still_drains_clean() {
    let d = tmpdir("bin-panic");
    build_store(&d);
    let (child, addr) =
        spawn_serve(&d.join("store"), &[("UKRAINE_NDT_PANIC_STAGE", "fig3")]);

    let reply = fetch(&addr, &Request::new("fig3"), Duration::from_secs(30)).expect("fetch");
    assert!(
        matches!(reply, Reply::Err(ServeError::Panicked(_))),
        "injected panic comes back typed: {reply:?}"
    );
    // The process is alive and other stages are unaffected.
    let reply = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");

    assert_eq!(
        drain_and_wait(child),
        0,
        "request-level panics do not degrade the server's own exit"
    );
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn serve_binary_on_a_corrupted_store_degrades_and_exits_partial() {
    let d = tmpdir("bin-degraded");
    build_store(&d);
    // Corrupt one shard's page payloads in place: the store loader
    // quarantines it and serves the survivors.
    let store = d.join("store");
    let shard = std::fs::read_dir(&store)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ndts"))
        .expect("at least one shard file");
    let mut bytes = std::fs::read(&shard).expect("read shard");
    let mid = bytes.len() / 2;
    let end = mid + 64.min(bytes.len() - mid);
    for b in &mut bytes[mid..end] {
        *b ^= 0xFF;
    }
    std::fs::write(&shard, &bytes).expect("re-write shard");

    let (child, addr) = spawn_serve(&store, &[]);
    // Degraded, not dead: requests are still answered from the
    // surviving shards.
    let reply = fetch(&addr, &Request::new("fig2"), Duration::from_secs(30)).expect("fetch");
    assert!(matches!(reply, Reply::Ok(_)), "degraded store still serves: {reply:?}");

    assert_eq!(
        drain_and_wait(child),
        3,
        "a quarantined shard is partial degradation: exit 3, not 0 and not a crash"
    );
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn serve_binary_without_a_store_manifest_is_a_fatal_error() {
    let d = tmpdir("bin-nostore");
    let out = bin()
        .args(["serve", "--store", &d.join("missing").display().to_string()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "no manifest = fatal, exit 1");
    let _ = std::fs::remove_dir_all(&d);
}
