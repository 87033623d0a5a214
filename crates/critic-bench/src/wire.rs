//! The one place this crate opens, accepts and writes TCP sockets for the
//! line-delimited-JSON protocol spoken by `critic serve`, `critic router`
//! and their clients.
//!
//! Two framing rules hold on every socket, in both directions:
//!
//! - **One write per line.** A message and its `\n` are serialised into
//!   one buffer and leave in a single `write_all`. Written as two, the
//!   `\n` sits in the kernel behind Nagle's algorithm until the peer's
//!   delayed ACK for the JSON arrives, about 40 ms on Linux, and that
//!   stall repeats on every hop (client ⇄ router, router ⇄ shard).
//! - **`TCP_NODELAY` everywhere.** [`connect`] and [`accept_loop`] set it,
//!   so a finished line goes out as soon as it is written.
//!
//! Writers that several threads share (a connection's worker-thread
//! `done` replies and its request loop's replies) go through [`send`],
//! which writes the whole line under the stream's `Mutex`, so lines never
//! interleave.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use serde::Serialize;

/// How long the accept loop sleeps when no connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// How long the accept loop backs off after a failed `accept` (fd
/// exhaustion, an aborted handshake, ...) before trying again.
const ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// `msg` serialised as JSON followed by `\n`, in one buffer.
fn encode<T: Serialize>(msg: &T) -> std::io::Result<Vec<u8>> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        .into_bytes();
    line.push(b'\n');
    Ok(line)
}

/// Writes `msg` as one line: JSON and `\n` in a single `write_all`.
///
/// # Errors
///
/// Serialisation failures are `InvalidData`; write errors pass through.
pub fn write_line<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let line = encode(msg)?;
    w.write_all(&line)?;
    w.flush()
}

/// Writes `msg` as one line on a writer shared between threads, holding
/// the lock for the single write only. Returns false when the line could
/// not be written; callers that answer a client swallow that (a hung-up
/// client is its own problem), the router uses it to spot a dying shard.
pub fn send<W: Write, T: Serialize>(stream: &Mutex<W>, msg: &T) -> bool {
    let Ok(line) = encode(msg) else {
        return false;
    };
    let mut guard = stream
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.write_all(&line).and_then(|()| guard.flush()).is_ok()
}

/// A connection's write half, shared by every thread that answers on it
/// (see [`send`]).
pub type SharedWriter = Arc<Mutex<TcpStream>>;

/// The server side of one connection: reads request lines until the peer
/// hangs up or the stream is cut, calling `on_line(writer, text)` for each
/// non-empty line with surrounding whitespace trimmed.
pub fn read_lines(stream: TcpStream, mut on_line: impl FnMut(&SharedWriter, &str)) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let text = line.trim();
        if !text.is_empty() {
            on_line(&writer, text);
        }
    }
}

/// Connects to `addr` with `TCP_NODELAY` set.
///
/// # Errors
///
/// Propagates the connect error.
pub fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A blocking client connection for request/reply exchanges.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (see [`connect`]); `read_timeout` bounds each
    /// wait for a reply line.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option errors.
    pub fn connect(addr: &str, read_timeout: Option<Duration>) -> std::io::Result<Client> {
        let writer = connect(addr)?;
        writer.set_read_timeout(read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Writes one request line and reads reply lines until `pick` accepts
    /// one, skipping every line it returns `None` for (interleaved `done`
    /// lines, replies of other types).
    ///
    /// # Errors
    ///
    /// Propagates stream I/O errors; EOF before a picked reply is
    /// `UnexpectedEof`.
    pub fn request_reply<T: Serialize, R>(
        &mut self,
        request: &T,
        mut pick: impl FnMut(&str) -> Option<R>,
    ) -> std::io::Result<R> {
        write_line(&mut self.writer, request)?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer hung up before replying",
                ));
            }
            if let Some(reply) = pick(line.trim()) {
                return Ok(reply);
            }
        }
    }
}

/// The connections an [`accept_loop`] accepted, handed back when it stops
/// so the caller can finish its own drain before cutting them.
pub struct Connections {
    /// Connections accepted over the loop's lifetime.
    pub accepted: u64,
    /// `accept` calls that failed with something other than `WouldBlock`
    /// and were backed off from.
    pub accept_errors: u64,
    /// Each still-running handler thread with a handle on its socket.
    live: Vec<(JoinHandle<()>, TcpStream)>,
}

impl Connections {
    /// Shuts every still-open socket down, so handler reads see EOF, and
    /// joins the handler threads.
    pub fn close(self) {
        for (_, stream) in &self.live {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (handle, _) in self.live {
            let _ = handle.join();
        }
    }
}

/// Accepts connections on `listener` until `stop()` returns true, running
/// `handler(stream, n)` on a thread per connection, where `n` counts
/// connections from 1. Accepted sockets get `TCP_NODELAY`.
///
/// A failed `accept` (`EMFILE`, `ECONNABORTED`, ...) is counted, backed
/// off from briefly, and never ends the loop. Connections whose handler
/// has returned are reaped as the loop goes, so the loop holds sockets
/// only for live connections.
pub fn accept_loop<H>(listener: &TcpListener, stop: impl Fn() -> bool, handler: H) -> Connections
where
    H: Fn(TcpStream, u64) + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let _ = listener.set_nonblocking(true);
    let mut connections = Connections {
        accepted: 0,
        accept_errors: 0,
        live: Vec::new(),
    };
    while !stop() {
        connections.live.retain(|(handle, _)| !handle.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections.accepted += 1;
                let client = connections.accepted;
                let _ = stream.set_nodelay(true);
                let Ok(raw) = stream.try_clone() else {
                    continue;
                };
                let handler = Arc::clone(&handler);
                let handle = thread::spawn(move || handler(stream, client));
                connections.live.push((handle, raw));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(IDLE_POLL),
            Err(_) => {
                connections.accept_errors += 1;
                thread::sleep(ERROR_BACKOFF);
            }
        }
    }
    connections
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything, counting `write` calls and keeping the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[derive(Serialize)]
    struct Ping {
        ping: bool,
    }

    #[test]
    fn each_line_is_exactly_one_write_ending_in_newline() {
        let mut w = CountingWriter::default();
        for n in 1..=3 {
            write_line(&mut w, &Ping { ping: true }).expect("write");
            assert_eq!(w.writes, n, "write_line issued more than one write");
            assert_eq!(w.bytes.last(), Some(&b'\n'));
        }
        assert_eq!(w.bytes, b"{\"ping\":true}\n".repeat(3));

        let shared = Mutex::new(CountingWriter::default());
        assert!(send(&shared, &Ping { ping: true }));
        let w = shared.into_inner().expect("unpoisoned");
        assert_eq!(w.writes, 1, "send issued more than one write");
        assert_eq!(w.bytes, b"{\"ping\":true}\n");
    }
}
