//! The shared accept loop under descriptor pressure: it holds sockets
//! only for live connections, so many short-lived clients leak nothing,
//! and running out of descriptors makes it back off, not drain.
//!
//! Its own test binary, so no concurrently running test opens or closes
//! descriptors while one counts them.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use critic_bench::serve::{self, Reply};
use critic_core::service::{CampaignService, ServiceConfig};
use critic_obs::Telemetry;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

fn ping(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream.write_all(b"{\"ping\":true}\n").expect("write ping");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert!(
        matches!(serve::parse_reply(&line), Some(Reply::Pong)),
        "expected pong, got {line:?}"
    );
}

#[test]
fn closed_connections_release_their_descriptors() {
    let mut config = ServiceConfig::new(400);
    config.workers = 1;
    config.telemetry = Telemetry::off();
    let service = CampaignService::open(config).expect("in-memory service opens");
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            serve::serve_on(
                listener,
                &service,
                &shutdown,
                &serve::ShardContext::default(),
            )
        })
    };

    ping(&addr);
    let baseline = open_fds();
    for _ in 0..300 {
        ping(&addr);
    }
    // Handlers see EOF and return asynchronously; the loop reaps them on
    // its next pass.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut open = open_fds();
    while open > baseline + 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_fds();
    }
    assert!(
        open <= baseline + 8,
        "{open} descriptors open after 300 closed connections, {baseline} before"
    );
    ping(&addr);

    shutdown.store(true, Ordering::SeqCst);
    let summary = server.join().expect("server thread panicked");
    assert_eq!(summary.connections, 302);
    assert_eq!(summary.accept_errors, 0);
}

#[test]
fn descriptor_exhaustion_backs_off_and_keeps_serving() {
    // A server allowed 48 descriptors runs out after about a dozen
    // connections (each holds three). `accept` then fails with EMFILE
    // until some close; the loop must count that and keep going.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 48 && exec \"$0\" serve --port 0 --trace-len 400 --workers 1")
        .arg(env!("CARGO_BIN_EXE_critic"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn critic serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let held: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(&addr).expect("connect (kernel backlog)"))
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    drop(held);

    // The backlog drains as the dropped connections are reaped; then a
    // fresh client is served.
    let deadline = Instant::now() + Duration::from_secs(10);
    let answered = loop {
        let pong = TcpStream::connect(&addr).ok().and_then(|mut stream| {
            stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
            stream.write_all(b"{\"ping\":true}\n").ok()?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).ok()?;
            Some(matches!(serve::parse_reply(&line), Some(Reply::Pong)))
        });
        if pong == Some(true) || Instant::now() >= deadline {
            break pong == Some(true);
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let still_running = child.try_wait().expect("poll child").is_none();

    if let Ok(mut stream) = TcpStream::connect(&addr) {
        let _ = stream.write_all(b"{\"shutdown\":true}\n");
    }
    let status = child.wait().expect("wait for critic serve");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        still_running && answered,
        "server stopped serving after descriptor exhaustion: {stderr}"
    );
    assert_eq!(status.code(), Some(9), "no graceful drain: {stderr}");
    let errors: u64 = stderr
        .split(" accept error(s)")
        .next()
        .and_then(|head| head.rsplit('(').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no accept error count in {stderr:?}"));
    assert!(errors > 0, "EMFILE was never hit: {stderr}");
}
