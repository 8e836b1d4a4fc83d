//! The worker listener: the daemon's only worker transport.
//!
//! Every worker dials this port (daemon flag `--worker-listen`, bound
//! on `127.0.0.1:0` unless given): the children the daemon spawns into
//! its local slots, and workers started by hand on other hosts. A
//! worker sends one [`wire::Hello`] frame and receives a welcome (fresh
//! session or reconnect-with-resume) or a reject naming the reason.
//! After the handshake the connection carries the JSONL event
//! protocol, reassembled with the shared length-capped frame codec and
//! passed through the daemon's scripted network-fault injector.
//!
//! The handshake itself bypasses netem by design: the chaos scope is
//! the steady-state stream, and a scripted drop of the hello would
//! only exercise the worker's redial loop, which the connection-level
//! faults already cover.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::daemon::Daemon;
use crate::wire;

/// How long a dialing worker gets to produce its hello frame before
/// the connection is dropped (keeps idle scanners from pinning
/// handshake threads).
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Accepts worker registrations until the daemon drains. The bound
/// address is recorded for spawned workers before `on_bound` receives
/// it (tests bind port 0), so no spawn happens without an address.
///
/// # Errors
///
/// Returns the underlying I/O error when the listener cannot bind.
pub fn serve_workers(
    daemon: Arc<Daemon>,
    addr: &str,
    on_bound: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    daemon.set_worker_addr(bound);
    on_bound(bound);
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || {
                    if let Err(reason) = handshake(&daemon, stream) {
                        obs::counter_add("sweepd.remote.rejected", 1);
                        eprintln!("sweepd: worker registration failed: {reason}");
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if daemon.draining() {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads the hello frame, validates it, and hands the connection (plus
/// any bytes read past the hello) to the daemon for registration.
fn handshake(daemon: &Daemon, mut stream: TcpStream) -> Result<(), String> {
    stream
        .set_read_timeout(Some(HELLO_TIMEOUT))
        .map_err(|e| format!("setting hello timeout: {e}"))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let (line, consumed) = loop {
        match wire::parse_frame(&buf) {
            Ok(wire::FrameStatus::Complete { line, consumed }) => {
                break (line.to_string(), consumed);
            }
            Ok(wire::FrameStatus::Incomplete) => {}
            Err(e) => {
                let _ = stream.write_all(wire::render_reject(&e.reason).as_bytes());
                return Err(e.reason);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed before hello".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("reading hello: {e}")),
        }
    };
    let hello = match wire::parse_hello(&line) {
        Ok(h) => h,
        Err(e) => {
            let _ = stream.write_all(wire::render_reject(&e.reason).as_bytes());
            return Err(e.reason);
        }
    };
    let leftover = buf[consumed..].to_vec();
    // Steady-state liveness is the daemon's heartbeat deadline, not a
    // socket timeout: clear it so a quiet-but-alive link isn't cut.
    stream
        .set_read_timeout(None)
        .map_err(|e| format!("clearing hello timeout: {e}"))?;
    daemon.register(&hello, stream, leftover)
}
