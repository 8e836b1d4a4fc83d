//! Wire protocol for sweep workers: length-capped newline frames plus
//! the versioned registration handshake.
//!
//! Every worker — a child the coordinator spawned or one started on
//! another host — dials the coordinator's `--worker-listen` address and
//! the two sides exchange exactly one handshake frame each before the
//! ordinary JSONL worker protocol starts:
//!
//! ```text
//! worker      -> {"hello":{"proto":1,"fingerprint":F,"token":"","worker":"w-tcp-123","pid":123}}
//! coordinator -> {"welcome":{"proto":1,"session":"s1","gen":0,"resume":""}}   (accepted)
//! coordinator -> {"reject":{"reason":"..."}}                                  (refused)
//! ```
//!
//! * `proto` is [`PROTO_VERSION`]; a mismatch is rejected with a
//!   structured reason rather than garbled framing later.
//! * `fingerprint` is [`fingerprint`] over the protocol version and the
//!   experiment dispatch table, so a worker binary built against a
//!   different cell API cannot register and silently corrupt a sweep.
//! * `token` is empty on first contact. The welcome carries a session
//!   token the worker echoes when it redials; a token that still maps to
//!   a live registration re-attaches the new socket to the old slot and
//!   `resume` names the cell key the worker's lease still covers (empty
//!   if it holds none, or if the lease migrated while it was away).
//! * `pid` is the worker's OS process id (absent reads as 0). A
//!   same-host registration whose `pid` matches a child the coordinator
//!   spawned attaches to that child's slot; `/healthz` reports it for
//!   every worker.
//!
//! Everything here is a pure function over bytes — no sockets — so the
//! fuzz harness (`bench --bin fuzz --boundary frame`, lane 7) can drive
//! the exact code the coordinator runs, the same way `http::parse_request`
//! and the CHS1 scenario parser are fuzzed.

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Handshake protocol version. Bump on any incompatible frame change.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on a single frame (one JSONL line, excluding the newline).
/// A peer that streams more than this without a newline is speaking a
/// different protocol (or attacking the buffer) and is disconnected.
pub const MAX_FRAME: usize = 64 * 1024;

/// Cap on the session token echoed back by a reconnecting worker.
pub const MAX_TOKEN: usize = 128;

/// Cap on the self-reported worker name carried in the hello.
pub const MAX_WORKER_NAME: usize = 64;

/// Why a frame or handshake message was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable reason, surfaced in reject frames and logs.
    pub reason: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for WireError {}

fn err<T>(reason: impl Into<String>) -> Result<T, WireError> {
    Err(WireError {
        reason: reason.into(),
    })
}

/// Result of scanning a receive buffer for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStatus<'a> {
    /// A full line was found: `line` is the frame body (newline and any
    /// trailing `\r` stripped), `consumed` is how many buffer bytes it
    /// used including the terminator.
    Complete {
        /// Frame body without the line terminator.
        line: &'a str,
        /// Bytes to drain from the front of the receive buffer.
        consumed: usize,
    },
    /// No newline yet and the buffer is still under [`MAX_FRAME`]; read
    /// more bytes and try again.
    Incomplete,
}

/// Scans `buf` for one newline-terminated frame.
///
/// # Errors
///
/// Returns a [`WireError`] when the unterminated prefix already exceeds
/// [`MAX_FRAME`], or when a complete line is not valid UTF-8. Both are
/// protocol violations: the connection should be dropped, not resynced.
pub fn parse_frame(buf: &[u8]) -> Result<FrameStatus<'_>, WireError> {
    let scan = &buf[..buf.len().min(MAX_FRAME + 1)];
    match scan.iter().position(|&b| b == b'\n') {
        Some(pos) => {
            let mut body = &buf[..pos];
            if body.last() == Some(&b'\r') {
                body = &body[..body.len() - 1];
            }
            match std::str::from_utf8(body) {
                Ok(line) => Ok(FrameStatus::Complete {
                    line,
                    consumed: pos + 1,
                }),
                Err(_) => err("frame is not valid UTF-8"),
            }
        }
        None if buf.len() > MAX_FRAME => {
            err(format!("frame exceeds {MAX_FRAME} bytes without a newline"))
        }
        None => Ok(FrameStatus::Incomplete),
    }
}

/// The worker's opening handshake frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the worker speaks.
    pub proto: u32,
    /// [`fingerprint`] of the worker's cell-API dispatch table.
    pub fingerprint: u64,
    /// Session token from a previous welcome; empty on first contact.
    pub token: String,
    /// Self-reported worker name, used in lease journal records.
    pub worker: String,
    /// The worker's OS process id; 0 when the hello omits it.
    pub pid: u32,
}

/// The coordinator's answer to a hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeReply {
    /// Registration accepted.
    Welcome {
        /// Coordinator's protocol version (always [`PROTO_VERSION`]).
        proto: u32,
        /// Session token to echo on reconnect.
        session: String,
        /// Slot generation assigned to this connection; the worker
        /// echoes it in done/err events so stale output can be fenced.
        gen: u64,
        /// Cell key of a lease this session still holds (reconnect
        /// resume); `None` when the worker starts idle.
        resume: Option<String>,
    },
    /// Registration refused; the coordinator closes the connection.
    Reject {
        /// Why the hello was refused.
        reason: String,
    },
}

fn want_obj<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], WireError> {
    match v.as_map() {
        Some(m) => Ok(m),
        None => err(format!("{what} must be a JSON object, got {}", v.kind())),
    }
}

fn want_u64(v: &Value, what: &str) -> Result<u64, WireError> {
    match v.as_u64() {
        Some(n) => Ok(n),
        None => err(format!(
            "{what} must be a non-negative integer, got {}",
            v.kind()
        )),
    }
}

fn want_str<'a>(v: &'a Value, what: &str, cap: usize) -> Result<&'a str, WireError> {
    let s = match v.as_str() {
        Some(s) => s,
        None => return err(format!("{what} must be a string, got {}", v.kind())),
    };
    if s.len() > cap {
        return err(format!("{what} exceeds {cap} bytes"));
    }
    if s.chars().any(|c| c.is_control()) {
        return err(format!("{what} contains control characters"));
    }
    Ok(s)
}

fn field<'a>(map: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Parses a worker hello frame.
///
/// Unknown fields inside the `hello` object are tolerated (additive
/// protocol evolution); known fields are validated strictly and every
/// rejection names the offending field.
///
/// # Errors
///
/// Returns a [`WireError`] for non-JSON input, a missing or mistyped
/// `hello` envelope, missing or mistyped `proto`/`fingerprint`, an
/// out-of-range `proto` or `pid`, or an over-cap / control-character
/// `token` or `worker` name.
pub fn parse_hello(line: &str) -> Result<Hello, WireError> {
    let root: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return err(format!("hello frame is not valid JSON: {e}")),
    };
    let root = want_obj(&root, "hello frame")?;
    let body = match field(root, "hello") {
        Some(v) => want_obj(v, "\"hello\"")?,
        None => return err("frame is missing the \"hello\" envelope"),
    };
    let proto = match field(body, "proto") {
        Some(v) => want_u64(v, "\"proto\"")?,
        None => return err("hello is missing \"proto\""),
    };
    let proto = match u32::try_from(proto) {
        Ok(p) => p,
        Err(_) => return err("\"proto\" out of u32 range"),
    };
    let fingerprint = match field(body, "fingerprint") {
        Some(v) => want_u64(v, "\"fingerprint\"")?,
        None => return err("hello is missing \"fingerprint\""),
    };
    let token = match field(body, "token") {
        Some(v) => want_str(v, "\"token\"", MAX_TOKEN)?.to_string(),
        None => String::new(),
    };
    let worker = match field(body, "worker") {
        Some(v) => want_str(v, "\"worker\"", MAX_WORKER_NAME)?.to_string(),
        None => return err("hello is missing \"worker\""),
    };
    if worker.is_empty() {
        return err("\"worker\" must not be empty");
    }
    let pid = match field(body, "pid") {
        Some(v) => match u32::try_from(want_u64(v, "\"pid\"")?) {
            Ok(p) => p,
            Err(_) => return err("\"pid\" out of u32 range"),
        },
        None => 0,
    };
    Ok(Hello {
        proto,
        fingerprint,
        token,
        worker,
        pid,
    })
}

/// Renders a hello frame (newline included) ready to write to a socket.
pub fn render_hello(hello: &Hello) -> String {
    format!(
        "{{\"hello\":{{\"proto\":{},\"fingerprint\":{},\"token\":{},\"worker\":{},\"pid\":{}}}}}\n",
        hello.proto,
        hello.fingerprint,
        json_str(&hello.token),
        json_str(&hello.worker),
        hello.pid,
    )
}

/// Parses a coordinator handshake reply (welcome or reject).
///
/// # Errors
///
/// Returns a [`WireError`] for non-JSON input, a frame that is neither a
/// `welcome` nor a `reject` envelope, or missing/mistyped fields inside
/// either envelope.
pub fn parse_reply(line: &str) -> Result<HandshakeReply, WireError> {
    let root: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return err(format!("handshake reply is not valid JSON: {e}")),
    };
    let root = want_obj(&root, "handshake reply")?;
    if let Some(v) = field(root, "reject") {
        let body = want_obj(v, "\"reject\"")?;
        let reason = match field(body, "reason") {
            Some(v) => want_str(v, "\"reason\"", MAX_FRAME)?.to_string(),
            None => return err("reject is missing \"reason\""),
        };
        return Ok(HandshakeReply::Reject { reason });
    }
    let body = match field(root, "welcome") {
        Some(v) => want_obj(v, "\"welcome\"")?,
        None => return err("reply is neither a \"welcome\" nor a \"reject\""),
    };
    let proto = match field(body, "proto") {
        Some(v) => want_u64(v, "\"proto\"")?,
        None => return err("welcome is missing \"proto\""),
    };
    let proto = match u32::try_from(proto) {
        Ok(p) => p,
        Err(_) => return err("\"proto\" out of u32 range"),
    };
    let session = match field(body, "session") {
        Some(v) => want_str(v, "\"session\"", MAX_TOKEN)?.to_string(),
        None => return err("welcome is missing \"session\""),
    };
    if session.is_empty() {
        return err("\"session\" must not be empty");
    }
    let gen = match field(body, "gen") {
        Some(v) => want_u64(v, "\"gen\"")?,
        None => return err("welcome is missing \"gen\""),
    };
    let resume = match field(body, "resume") {
        Some(v) => {
            let key = want_str(v, "\"resume\"", MAX_FRAME)?;
            if key.is_empty() {
                None
            } else {
                Some(key.to_string())
            }
        }
        None => None,
    };
    Ok(HandshakeReply::Welcome {
        proto,
        session,
        gen,
        resume,
    })
}

/// Renders a welcome frame (newline included).
pub fn render_welcome(session: &str, gen: u64, resume: Option<&str>) -> String {
    format!(
        "{{\"welcome\":{{\"proto\":{PROTO_VERSION},\"session\":{},\"gen\":{gen},\"resume\":{}}}}}\n",
        json_str(session),
        json_str(resume.unwrap_or("")),
    )
}

/// Renders a reject frame (newline included).
pub fn render_reject(reason: &str) -> String {
    format!("{{\"reject\":{{\"reason\":{}}}}}\n", json_str(reason))
}

/// Configuration fingerprint each side computes over the
/// [`crate::manifest::SUPPORTED_EXPERIMENTS`] it was built with: FNV-1a
/// over the protocol version and that experiment list. A worker whose
/// fingerprint differs was built against an incompatible cell API and
/// is rejected at registration instead of producing wrong cells.
pub fn fingerprint(experiments: &[&str]) -> u64 {
    let mut bytes = PROTO_VERSION.to_le_bytes().to_vec();
    for name in experiments {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0xff);
    }
    checkpoint::fnv1a64(&bytes)
}

/// One cell of a [`GridDoc`].
#[derive(Serialize, Deserialize, Debug)]
pub struct GridCell {
    /// Journal key of the cell.
    pub key: String,
    /// The cell's own configuration hash.
    pub hash: u64,
}

/// The one JSON line a worker binary prints in `--grid <exp>` mode:
/// everything the coordinator needs to open a journal and shard cells.
#[derive(Serialize, Deserialize, Debug)]
pub struct GridDoc {
    /// Experiment name the grid belongs to.
    pub experiment: String,
    /// Sweep-level config hash for the journal header.
    pub sweep_hash: u64,
    /// Seed the grid was computed under.
    pub seed: u64,
    /// Cells in canonical order.
    pub cells: Vec<GridCell>,
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"\"".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_partial() {
        let buf = b"hello world\nrest";
        match parse_frame(buf).expect("parse") {
            FrameStatus::Complete { line, consumed } => {
                assert_eq!(line, "hello world");
                assert_eq!(consumed, 12);
                assert_eq!(&buf[consumed..], b"rest");
            }
            other => panic!("expected complete, got {other:?}"),
        }
        assert_eq!(parse_frame(b"no newline yet"), Ok(FrameStatus::Incomplete));
        assert_eq!(parse_frame(b""), Ok(FrameStatus::Incomplete));
    }

    #[test]
    fn frame_strips_carriage_return() {
        match parse_frame(b"line\r\n").expect("parse") {
            FrameStatus::Complete { line, consumed } => {
                assert_eq!(line, "line");
                assert_eq!(consumed, 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_rejected_not_buffered() {
        let buf = vec![b'x'; MAX_FRAME + 1];
        let e = parse_frame(&buf).expect_err("over cap");
        assert!(e.reason.contains("exceeds"), "{e}");
        // Exactly at the cap with no newline: still waiting.
        let buf = vec![b'x'; MAX_FRAME];
        assert_eq!(parse_frame(&buf), Ok(FrameStatus::Incomplete));
        // A newline inside an oversized buffer still yields the frame.
        let mut buf = vec![b'x'; 16];
        buf.push(b'\n');
        buf.extend_from_slice(&vec![b'y'; MAX_FRAME]);
        assert!(matches!(
            parse_frame(&buf),
            Ok(FrameStatus::Complete { consumed: 17, .. })
        ));
    }

    #[test]
    fn non_utf8_frame_is_an_error() {
        let e = parse_frame(b"\xff\xfe\n").expect_err("bad utf8");
        assert!(e.reason.contains("UTF-8"), "{e}");
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello {
            proto: PROTO_VERSION,
            fingerprint: fingerprint(&["faults"]),
            token: "s42".into(),
            worker: "w-tcp-7".into(),
            pid: 7,
        };
        let line = render_hello(&hello);
        assert!(line.ends_with('\n'));
        let parsed = parse_hello(line.trim_end()).expect("parse");
        assert_eq!(parsed, hello);
    }

    #[test]
    fn hello_without_pid_reads_as_zero() {
        let line = "{\"hello\":{\"proto\":1,\"fingerprint\":2,\"token\":\"\",\"worker\":\"w\"}}";
        let parsed = parse_hello(line).expect("parse");
        assert_eq!(parsed.pid, 0);
        let again = parse_hello(render_hello(&parsed).trim_end()).expect("reparse");
        assert_eq!(again, parsed);
    }

    #[test]
    fn hello_pid_rejections_name_the_field() {
        for pid in ["4294967296", "-1", "\"7\""] {
            let line = format!(
                "{{\"hello\":{{\"proto\":1,\"fingerprint\":2,\"worker\":\"w\",\"pid\":{pid}}}}}"
            );
            let e = parse_hello(&line).expect_err(&line);
            assert!(e.reason.contains("\"pid\""), "{line}: {e}");
        }
        let max = format!(
            "{{\"hello\":{{\"proto\":1,\"fingerprint\":2,\"worker\":\"w\",\"pid\":{}}}}}",
            u32::MAX
        );
        assert_eq!(parse_hello(&max).expect("u32::MAX fits").pid, u32::MAX);
    }

    #[test]
    fn hello_rejections_name_the_field() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1]", "must be a JSON object"),
            ("{}", "missing the \"hello\" envelope"),
            ("{\"hello\":3}", "\"hello\" must be a JSON object"),
            ("{\"hello\":{}}", "missing \"proto\""),
            ("{\"hello\":{\"proto\":-1}}", "\"proto\""),
            ("{\"hello\":{\"proto\":1}}", "missing \"fingerprint\""),
            (
                "{\"hello\":{\"proto\":1,\"fingerprint\":2}}",
                "missing \"worker\"",
            ),
            (
                "{\"hello\":{\"proto\":1,\"fingerprint\":2,\"worker\":\"\"}}",
                "must not be empty",
            ),
            (
                "{\"hello\":{\"proto\":1,\"fingerprint\":2,\"worker\":\"a\\nb\"}}",
                "control characters",
            ),
        ] {
            let e = parse_hello(line).expect_err(line);
            assert!(e.reason.contains(needle), "{line}: {e} missing {needle:?}");
        }
        let long = format!(
            "{{\"hello\":{{\"proto\":1,\"fingerprint\":2,\"worker\":\"w\",\"token\":\"{}\"}}}}",
            "t".repeat(MAX_TOKEN + 1)
        );
        let e = parse_hello(&long).expect_err("token cap");
        assert!(e.reason.contains("exceeds"), "{e}");
    }

    #[test]
    fn reply_round_trips_both_ways() {
        let w = render_welcome("s7", 3, Some("cell-a"));
        match parse_reply(w.trim_end()).expect("welcome") {
            HandshakeReply::Welcome {
                proto,
                session,
                gen,
                resume,
            } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(session, "s7");
                assert_eq!(gen, 3);
                assert_eq!(resume.as_deref(), Some("cell-a"));
            }
            other => panic!("{other:?}"),
        }
        let w = render_welcome("s8", 0, None);
        assert!(matches!(
            parse_reply(w.trim_end()),
            Ok(HandshakeReply::Welcome { resume: None, .. })
        ));
        let r = render_reject("protocol version 9 unsupported");
        match parse_reply(r.trim_end()).expect("reject") {
            HandshakeReply::Reject { reason } => {
                assert!(reason.contains("version 9"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reply_rejections_are_structured() {
        for (line, needle) in [
            ("{}", "neither"),
            ("{\"welcome\":{}}", "missing \"proto\""),
            ("{\"welcome\":{\"proto\":1}}", "missing \"session\""),
            (
                "{\"welcome\":{\"proto\":1,\"session\":\"\"}}",
                "must not be empty",
            ),
            (
                "{\"welcome\":{\"proto\":1,\"session\":\"s\"}}",
                "missing \"gen\"",
            ),
            ("{\"reject\":{}}", "missing \"reason\""),
        ] {
            let e = parse_reply(line).expect_err(line);
            assert!(e.reason.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn fingerprint_separates_tables_and_versions() {
        assert_eq!(fingerprint(&["faults"]), fingerprint(&["faults"]));
        assert_ne!(fingerprint(&["faults"]), fingerprint(&[]));
        assert_ne!(fingerprint(&["faults"]), fingerprint(&["faults", "serve"]));
        // Concatenation must not collide with separation.
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
    }

    #[test]
    fn fingerprint_is_pinned_for_already_built_workers() {
        // Workers compute this independently; a drift here would make
        // every deployed worker fail registration.
        assert_eq!(
            fingerprint(crate::manifest::SUPPORTED_EXPERIMENTS),
            0xb7fa_d85c_787e_91c2
        );
        assert_eq!(fingerprint(&["ab", "c"]), 0x3303_5ee9_39b5_7fca);
    }

    #[test]
    fn escaped_strings_survive_the_round_trip() {
        let r = render_reject("bad \"quote\" and \\ backslash");
        match parse_reply(r.trim_end()).expect("parse") {
            HandshakeReply::Reject { reason } => {
                assert_eq!(reason, "bad \"quote\" and \\ backslash");
            }
            other => panic!("{other:?}"),
        }
    }
}
