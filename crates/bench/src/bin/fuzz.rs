//! Seeded structure-aware mutation fuzzer for the repository's three
//! untrusted input boundaries:
//!
//! 1. **ckpt** — checkpoint container bytes through [`checkpoint::load`]
//!    (magic / version / length / CRC / config-hash / JSON validation);
//! 2. **manifest** — JSONL sweep journals through
//!    [`checkpoint::manifest::Journal::open_resume`];
//! 3. **graph** — `HGB1` graph and dataset streams through
//!    [`hetgraph::io::load_graph`] / [`hetgraph::io::load_dataset`];
//! 4. **trace** — `QTR1` serving query traces through
//!    [`serve::load_trace`] (truncated records, out-of-range vertex
//!    ids and class indices, non-monotone timestamps, trailing bytes);
//! 5. **http** — sweep-service request bytes through
//!    [`sweepd::parse_request`] and, when framing survives, the body
//!    through [`sweepd::parse_manifest`] (oversized request/header
//!    lines, header-count overflow, truncated chunked bodies,
//!    absurd `Content-Length`, malformed JSON manifests);
//! 6. **scenario** — `CHS1` chaos-scenario scripts through
//!    [`serve::Scenario::from_bytes`] (bad magic, unknown
//!    directives, non-finite or non-positive spike multipliers,
//!    inverted spike windows, malformed hex masks, zero fleet sizes,
//!    invalid UTF-8);
//! 7. **frame** — remote-worker wire frames through
//!    [`sweepd::wire::parse_frame`] and the handshake parsers
//!    [`sweepd::wire::parse_hello`] / [`sweepd::wire::parse_reply`]
//!    (oversized frames, over-cap tokens and worker names, out-of-range
//!    or mistyped pids, invalid UTF-8, mangled handshake envelopes).
//!
//! Each iteration takes a known-valid input, applies one randomly
//! chosen structural mutation (bit flip, field overwrite with extreme
//! values, truncation, splice, deletion, append), and asserts the
//! loader returns a structured error — never panics. The identity
//! mutation is kept in the pool so the happy path is continuously
//! re-proven too.
//!
//! Everything is derived from `(seed, boundary, iteration)` via a
//! counter-mode splitmix64 stream, so a failure reported as
//! `boundary=B iter=N seed=S` reproduces exactly with
//! `fuzz --boundary B --seed S --iters N+1` regardless of wall clock
//! or the other boundaries.
//!
//! ```text
//! usage: fuzz [--iters N] [--seed S] [--seconds T] [--boundary all|ckpt|manifest|graph|trace|http|scenario|frame]
//! ```
//!
//! `--seconds` is a wall-clock cap for CI smoke runs; because the
//! iteration stream is deterministic, a time-capped run is a prefix of
//! the corresponding `--iters` run. Exits non-zero on the first panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use checkpoint::manifest::{cell_record, Journal, JournalHeader};
use checkpoint::FORMAT_VERSION;
use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
use hetgraph::io::{load_dataset, load_graph, save_dataset, save_graph};

const DEFAULT_ITERS: u64 = 5_000;
const DEFAULT_SEED: u64 = 42;
const CKPT_CONFIG_HASH: u64 = 0xF00D_CAFE;

/// Deterministic counter-mode stream: one independent generator per
/// `(seed, lane, iteration)` triple.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64, lane: u64, iter: u64) -> Self {
        let mut r = Rng {
            state: seed ^ lane.rotate_left(24) ^ iter.rotate_left(48),
        };
        // Warm the mixer so nearby (lane, iter) pairs decorrelate.
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        let z = faultsim::rng::splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform draw in `0..n` (`n == 0` returns 0).
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// One structural mutation of `bytes`; kind 0 is the identity.
///
/// Returns whether the output is byte-identical to the valid input
/// (identity mutations must still load successfully).
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) -> bool {
    let kind = rng.below(9);
    if bytes.is_empty() {
        return kind == 0;
    }
    match kind {
        0 => return true,
        1 => {
            // Single bit flip.
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        2 => {
            // Byte overwrite.
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = rng.next() as u8;
        }
        3 => {
            // Truncate.
            let at = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(at);
        }
        4 | 5 => {
            // Overwrite a 4- or 8-byte window with an extreme value —
            // the mutation most likely to land on a length/count field.
            let width = if kind == 4 { 4 } else { 8 };
            if bytes.len() >= width {
                let i = rng.below((bytes.len() - width + 1) as u64) as usize;
                let v: u64 = match rng.below(4) {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    _ => rng.next(),
                };
                bytes[i..i + width].copy_from_slice(&v.to_le_bytes()[..width]);
            }
        }
        6 => {
            // Duplicate a slice and splice it back in.
            let start = rng.below(bytes.len() as u64) as usize;
            let len = (rng.below(64) as usize + 1).min(bytes.len() - start);
            let slice = bytes[start..start + len].to_vec();
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, slice);
        }
        7 => {
            // Delete a slice.
            let start = rng.below(bytes.len() as u64) as usize;
            let len = (rng.below(64) as usize + 1).min(bytes.len() - start);
            bytes.drain(start..start + len);
        }
        _ => {
            // Append garbage.
            for _ in 0..=rng.below(32) {
                bytes.push(rng.next() as u8);
            }
        }
    }
    false
}

/// What one loader invocation did with a mutated input.
enum Outcome {
    Accepted,
    Rejected,
    Panicked,
    /// The identity mutation failed to load — the loader broke on
    /// known-good input, which is as fatal as a panic.
    RejectedValid(String),
}

/// One fuzz iteration against scratch dir + rng, returning the
/// observed outcome.
type BoundaryFn = Box<dyn FnMut(&Path, &mut Rng) -> Outcome>;

struct Boundary {
    name: &'static str,
    lane: u64,
    run: BoundaryFn,
}

fn outcome_of<T, E: std::fmt::Display>(
    identity: bool,
    result: std::thread::Result<Result<T, E>>,
) -> Outcome {
    match result {
        Err(_) => Outcome::Panicked,
        Ok(Ok(_)) => Outcome::Accepted,
        Ok(Err(e)) if identity => Outcome::RejectedValid(e.to_string()),
        Ok(Err(_)) => Outcome::Rejected,
    }
}

/// Checkpoint container boundary: a valid framed snapshot, mutated,
/// through the full `load` pipeline (header, CRC, UTF-8, JSON).
fn ckpt_boundary() -> Boundary {
    let payload = br#"{"cursor":7,"values":[0.5,1.25,-3.0],"note":"fuzz"}"#;
    let valid = checkpoint::encode(CKPT_CONFIG_HASH, payload);
    Boundary {
        name: "ckpt",
        lane: 1,
        run: Box::new(move |dir, rng| {
            let mut bytes = valid.clone();
            let identity = mutate(rng, &mut bytes);
            let path = dir.join("fuzz.ckpt");
            if let Err(e) = std::fs::write(&path, &bytes) {
                eprintln!("fuzz: scratch write failed: {e}");
                return Outcome::Panicked;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                checkpoint::load::<serde_json::Value>(&path, CKPT_CONFIG_HASH)
            }));
            outcome_of(identity, result)
        }),
    }
}

/// JSONL sweep manifest boundary through `Journal::open_resume`.
fn manifest_boundary(scratch: &Path) -> Boundary {
    let header = JournalHeader {
        version: FORMAT_VERSION,
        config_hash: 0xBEEF,
        seed: 7,
    };
    // Build a valid two-cell journal once; its bytes are the seed input.
    let base = scratch.join("seed.manifest.jsonl");
    let valid = (|| -> Result<Vec<u8>, checkpoint::CheckpointError> {
        let mut j = Journal::create(&base, &header)?;
        j.append(&cell_record("cell/a", 1, r#"{"cycles":100}"#.into()))?;
        j.append(&cell_record("cell/b", 2, r#"{"cycles":200}"#.into()))?;
        drop(j);
        std::fs::read(&base).map_err(|e| checkpoint::CheckpointError::io(&base, "read", &e))
    })()
    .expect("building the seed journal in the scratch dir cannot fail");
    Boundary {
        name: "manifest",
        lane: 2,
        run: Box::new(move |dir, rng| {
            let mut bytes = valid.clone();
            let identity = mutate(rng, &mut bytes);
            let path = dir.join("fuzz.manifest.jsonl");
            if let Err(e) = std::fs::write(&path, &bytes) {
                eprintln!("fuzz: scratch write failed: {e}");
                return Outcome::Panicked;
            }
            let result = catch_unwind(AssertUnwindSafe(|| Journal::open_resume(&path, &header)));
            outcome_of(identity, result)
        }),
    }
}

/// HGB1 graph/dataset boundary through `load_graph` / `load_dataset`.
fn graph_boundary() -> Boundary {
    let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
    let mut graph_bytes = Vec::new();
    save_graph(&ds.graph, &mut graph_bytes).expect("in-memory save cannot fail");
    let mut dataset_bytes = Vec::new();
    save_dataset(&ds, &mut dataset_bytes).expect("in-memory save cannot fail");
    Boundary {
        name: "graph",
        lane: 3,
        run: Box::new(move |_dir, rng| {
            let as_dataset = rng.below(2) == 1;
            let mut bytes = if as_dataset {
                dataset_bytes.clone()
            } else {
                graph_bytes.clone()
            };
            let identity = mutate(rng, &mut bytes);
            if as_dataset {
                let result = catch_unwind(AssertUnwindSafe(|| load_dataset(bytes.as_slice())));
                outcome_of(identity, result)
            } else {
                let result = catch_unwind(AssertUnwindSafe(|| load_graph(bytes.as_slice())));
                outcome_of(identity, result)
            }
        }),
    }
}

/// QTR1 query-trace boundary through `serve::load_trace`.
///
/// Beyond the generic byte mutations, half the iterations apply a
/// *field-targeted* mutation that lands exactly on a record field —
/// a vertex id pushed past `vertex_bound`, a class index past
/// `num_classes`, a timestamp swapped backwards, or a record cut at a
/// byte offset inside the 16-byte frame — the corruptions a generic
/// bit flip rarely synthesizes.
fn trace_boundary() -> Boundary {
    let trace = serve::QueryTrace {
        num_classes: 3,
        vertex_bound: 1000,
        records: (0..64)
            .map(|i| serve::TraceRecord {
                arrival_tick: 10 * i as u64,
                vertex: (i * 37 % 1000) as u32,
                class: (i % 3) as u16,
            })
            .collect(),
    };
    let mut valid = Vec::new();
    serve::save_trace(&trace, &mut valid).expect("in-memory save cannot fail");
    const HEADER: usize = 4 + 2 + 2 + 4 + 8;
    const RECORD: usize = 16;
    Boundary {
        name: "trace",
        lane: 4,
        run: Box::new(move |_dir, rng| {
            let mut bytes = valid.clone();
            let identity = if rng.below(2) == 0 {
                mutate(rng, &mut bytes)
            } else {
                // Field-targeted corruption of record `rec`.
                let rec = rng.below(64) as usize;
                let at = HEADER + rec * RECORD;
                match rng.below(4) {
                    0 => {
                        // Vertex id at/above vertex_bound.
                        let v = 1000u32 + rng.below(1 << 20) as u32;
                        bytes[at + 8..at + 12].copy_from_slice(&v.to_le_bytes());
                    }
                    1 => {
                        // Class index at/above num_classes.
                        let c = 3u16.saturating_add(rng.below(1 << 12) as u16);
                        bytes[at + 12..at + 14].copy_from_slice(&c.to_le_bytes());
                    }
                    2 => {
                        // Non-monotone timestamp: rewind a later record
                        // below its predecessor (record 0 can't rewind,
                        // so bump it past its successor instead).
                        if rec == 0 {
                            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                        } else {
                            let prev = 10 * (rec as u64 - 1);
                            let t = prev.saturating_sub(1 + rng.below(1000));
                            bytes[at..at + 8].copy_from_slice(&t.to_le_bytes());
                        }
                    }
                    _ => {
                        // Truncate mid-record.
                        let cut = at + 1 + rng.below((RECORD - 1) as u64) as usize;
                        bytes.truncate(cut);
                    }
                }
                false
            };
            let result = catch_unwind(AssertUnwindSafe(|| serve::load_trace(bytes.as_slice())));
            outcome_of(identity, result)
        }),
    }
}

/// sweepd control-plane boundary: HTTP/1.1 request bytes through
/// [`sweepd::parse_request`], and — whenever the framing survives the
/// mutation — the decoded body through [`sweepd::parse_manifest`].
///
/// Half the iterations are field-targeted at the parser's explicit
/// limits and decoders: a header line past [`MAX_HEADER_LINE`], more
/// headers than [`MAX_HEADERS`], a `Content-Length` past [`MAX_BODY`],
/// a chunked body truncated mid-chunk, and a syntactically valid
/// request carrying a corrupted JSON manifest. Every outcome must be a
/// structured [`sweepd::HttpError`] / manifest rejection or a clean
/// `Incomplete` — never a panic.
fn http_boundary() -> Boundary {
    use sweepd::http::{MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE};

    let manifest: &[u8] = br#"{"experiment":"faults","seed":7,"priority":2,"cell_timeout_s":30,"retry_budget":1,"finalize":true}"#;
    let frame = |body: &[u8], extra_headers: &str| -> Vec<u8> {
        let mut v = format!(
            "POST /sweeps HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             {extra_headers}Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        v.extend_from_slice(body);
        v
    };
    let valid = frame(manifest, "");
    let manifest = manifest.to_vec();
    Boundary {
        name: "http",
        lane: 5,
        run: Box::new(move |_dir, rng| {
            let mut bytes = valid.clone();
            let identity = if rng.below(2) == 0 {
                mutate(rng, &mut bytes)
            } else {
                match rng.below(5) {
                    0 => {
                        // One header line past the per-line cap.
                        let long = format!(
                            "X-Fuzz: {}\r\n",
                            "a".repeat(MAX_HEADER_LINE + rng.below(4096) as usize)
                        );
                        bytes = frame(&manifest, &long);
                    }
                    1 => {
                        // More headers than the parser admits.
                        let mut many = String::new();
                        for i in 0..=MAX_HEADERS + rng.below(32) as usize {
                            many.push_str(&format!("X-Fuzz-{i}: {i}\r\n"));
                        }
                        bytes = frame(&manifest, &many);
                    }
                    2 => {
                        // Chunked body cut mid-chunk (or mid-trailer).
                        let mut v = b"POST /sweeps HTTP/1.1\r\nHost: localhost\r\n\
                                      Transfer-Encoding: chunked\r\n\r\n"
                            .to_vec();
                        let body_at = v.len();
                        v.extend_from_slice(format!("{:x}\r\n", manifest.len()).as_bytes());
                        v.extend_from_slice(&manifest);
                        v.extend_from_slice(b"\r\n0\r\n\r\n");
                        let cut = body_at + 1 + rng.below((v.len() - body_at - 1) as u64) as usize;
                        v.truncate(cut);
                        bytes = v;
                    }
                    3 => {
                        // Declared length far past the body cap.
                        let decl = MAX_BODY as u64 + 1 + rng.below(u32::MAX as u64);
                        bytes = format!(
                            "POST /sweeps HTTP/1.1\r\nHost: localhost\r\n\
                             Content-Length: {decl}\r\n\r\n"
                        )
                        .into_bytes();
                    }
                    _ => {
                        // Valid framing around a corrupted manifest.
                        let mut body = manifest.clone();
                        mutate(rng, &mut body);
                        bytes = frame(&body, "");
                    }
                }
                false
            };
            let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                match sweepd::parse_request(&bytes) {
                    Err(e) => Err(format!("{} {}", e.status, e.reason)),
                    Ok(sweepd::ParseStatus::Incomplete) => Err("incomplete request".into()),
                    Ok(sweepd::ParseStatus::Complete { request, .. }) => {
                        sweepd::parse_manifest(&request.body).map(|_| ())
                    }
                }
            }));
            outcome_of(identity, result)
        }),
    }
}

/// CHS1 chaos-scenario boundary through [`serve::Scenario::from_bytes`].
///
/// Half the iterations are field-targeted at the parser's validation
/// rules: a spike multiplier replaced with `NaN`/`inf`/zero/negative
/// text, a spike window inverted (end ≤ start), a mask rewritten as
/// non-hex garbage, a fleet size forced to zero, an unknown directive
/// spliced in, or the magic line corrupted. Every outcome must be a
/// structured a structured scenario error — never a panic.
fn scenario_boundary() -> Boundary {
    let valid: Vec<u8> = b"CHS1\n\
        # fuzz seed script\n\
        spike 4000 12000 3.0\n\
        spike 20000 30000 0.5\n\
        stall 3000 0x0f\n\
        unstall 20000 0x0f\n\
        flush 8000\n\
        fleet 25000 4\n"
        .to_vec();
    Boundary {
        name: "scenario",
        lane: 6,
        run: Box::new(move |_dir, rng| {
            let mut bytes = valid.clone();
            let identity = if rng.below(2) == 0 {
                mutate(rng, &mut bytes)
            } else {
                let text = String::from_utf8(bytes).expect("seed script is ASCII");
                let mutated = match rng.below(6) {
                    0 => {
                        // Non-finite / non-positive spike multiplier.
                        let bad =
                            ["NaN", "inf", "-inf", "0", "-3.0", "1e999"][rng.below(6) as usize];
                        text.replace("3.0", bad)
                    }
                    1 => {
                        // Inverted spike window (end ≤ start).
                        text.replace("spike 4000 12000", "spike 12000 4000")
                    }
                    2 => {
                        // Mask that isn't hex.
                        text.replace("0x0f", "0xzz")
                    }
                    3 => {
                        // Fleet shrunk to zero DIMMs.
                        text.replace("fleet 25000 4", "fleet 25000 0")
                    }
                    4 => {
                        // Unknown directive.
                        text.replace("flush 8000", "explode 8000")
                    }
                    _ => {
                        // Corrupted magic.
                        text.replace("CHS1", "CHS9")
                    }
                };
                bytes = mutated.into_bytes();
                false
            };
            let result = catch_unwind(AssertUnwindSafe(|| serve::Scenario::from_bytes(&bytes)));
            outcome_of(identity, result)
        }),
    }
}

/// Remote-worker wire boundary: framed handshake bytes through
/// [`sweepd::wire::parse_frame`] and — whenever the framing survives
/// the mutation — the line through [`sweepd::wire::parse_hello`] or
/// [`sweepd::wire::parse_reply`].
///
/// Half the iterations are field-targeted at the codec's explicit
/// limits: a frame past [`MAX_FRAME`] with no terminator, a hello
/// token past [`MAX_TOKEN`], a worker name past [`MAX_WORKER_NAME`], a
/// hello `pid` past `u32::MAX`, negative, or a string, and invalid
/// UTF-8 inside an otherwise well-framed line. Every outcome must be a
/// structured `WireError` or a clean `Incomplete` — never a panic.
fn frame_boundary() -> Boundary {
    use sweepd::wire::{self, MAX_FRAME, MAX_TOKEN, MAX_WORKER_NAME, PROTO_VERSION};

    let hello = |token: String, worker: String| {
        wire::render_hello(&wire::Hello {
            proto: PROTO_VERSION,
            fingerprint: wire::fingerprint(&["faults"]),
            token,
            worker,
            pid: 4242,
        })
        .into_bytes()
    };
    let valid_hello = hello("s42".into(), "w-tcp-4242".into());
    let valid_welcome = wire::render_welcome("s42", 3, Some("cell/a")).into_bytes();
    let valid_reject = wire::render_reject("config fingerprint mismatch").into_bytes();
    Boundary {
        name: "frame",
        lane: 7,
        run: Box::new(move |_dir, rng| {
            // `which` selects both the seed input and the parser the
            // surviving line is fed to (hello vs reply).
            let which = rng.below(3);
            let mut bytes = match which {
                0 => valid_hello.clone(),
                1 => valid_welcome.clone(),
                _ => valid_reject.clone(),
            };
            let identity = if rng.below(2) == 0 {
                mutate(rng, &mut bytes)
            } else {
                match rng.below(5) {
                    0 => {
                        // Frame body past the cap, terminator never seen.
                        bytes = vec![b'a'; MAX_FRAME + 1 + rng.below(4096) as usize];
                    }
                    1 => {
                        // Session token past the handshake cap.
                        let long = "t".repeat(MAX_TOKEN + 1 + rng.below(64) as usize);
                        bytes = hello(long, "w".into());
                    }
                    2 => {
                        // Worker name past the handshake cap.
                        let long = "w".repeat(MAX_WORKER_NAME + 1 + rng.below(64) as usize);
                        bytes = hello("s42".into(), long);
                    }
                    3 => {
                        // Hello pid past u32, negative, or mistyped.
                        let pid = match rng.below(3) {
                            0 => (u64::from(u32::MAX) + 1 + rng.below(1 << 40)).to_string(),
                            1 => format!("-{}", 1 + rng.below(1 << 20)),
                            _ => "\"4242\"".to_string(),
                        };
                        let text = String::from_utf8_lossy(&valid_hello);
                        bytes = text
                            .replace("\"pid\":4242", &format!("\"pid\":{pid}"))
                            .into_bytes();
                    }
                    _ => {
                        // Invalid UTF-8 inside the framed line.
                        let i = rng.below((bytes.len() - 1) as u64) as usize;
                        bytes[i] = 0xff;
                    }
                }
                false
            };
            let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                match sweepd::wire::parse_frame(&bytes) {
                    Err(e) => Err(e.to_string()),
                    Ok(wire::FrameStatus::Incomplete) => Err("incomplete frame".into()),
                    Ok(wire::FrameStatus::Complete { line, .. }) => match which {
                        0 => wire::parse_hello(line)
                            .map(|_| ())
                            .map_err(|e| e.to_string()),
                        _ => wire::parse_reply(line)
                            .map(|_| ())
                            .map_err(|e| e.to_string()),
                    },
                }
            }));
            outcome_of(identity, result)
        }),
    }
}

struct Options {
    iters: u64,
    seed: u64,
    seconds: Option<u64>,
    boundary: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        iters: DEFAULT_ITERS,
        seed: DEFAULT_SEED,
        seconds: None,
        boundary: "all".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" | "--seed" | "--seconds" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{arg} requires an unsigned integer"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("{arg} requires an unsigned integer, got {v:?}"))?;
                match arg.as_str() {
                    "--iters" => opts.iters = n,
                    "--seed" => opts.seed = n,
                    _ => opts.seconds = Some(n),
                }
            }
            "--boundary" => {
                let v = it.next().ok_or("--boundary requires a name")?;
                if ![
                    "all", "ckpt", "manifest", "graph", "trace", "http", "scenario", "frame",
                ]
                .contains(&v.as_str())
                {
                    return Err(format!(
                        "unknown boundary {v:?}; known: all ckpt manifest graph trace http \
                         scenario frame"
                    ));
                }
                opts.boundary = v;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("metanmp-fuzz-{}", std::process::id()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("fuzz: {msg}");
            }
            eprintln!(
                "usage: fuzz [--iters N] [--seed S] [--seconds T] \
                 [--boundary all|ckpt|manifest|graph|trace|http|scenario|frame]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("fuzz: cannot create scratch dir {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut boundaries: Vec<Boundary> = Vec::new();
    if matches!(opts.boundary.as_str(), "all" | "ckpt") {
        boundaries.push(ckpt_boundary());
    }
    if matches!(opts.boundary.as_str(), "all" | "manifest") {
        boundaries.push(manifest_boundary(&dir));
    }
    if matches!(opts.boundary.as_str(), "all" | "graph") {
        boundaries.push(graph_boundary());
    }
    if matches!(opts.boundary.as_str(), "all" | "trace") {
        boundaries.push(trace_boundary());
    }
    if matches!(opts.boundary.as_str(), "all" | "http") {
        boundaries.push(http_boundary());
    }
    if matches!(opts.boundary.as_str(), "all" | "scenario") {
        boundaries.push(scenario_boundary());
    }
    if matches!(opts.boundary.as_str(), "all" | "frame") {
        boundaries.push(frame_boundary());
    }

    let start = Instant::now();
    let deadline = opts.seconds.map(std::time::Duration::from_secs);
    let mut failed = false;
    let mut completed: u64 = 0;
    'outer: for b in &mut boundaries {
        let mut accepted: u64 = 0;
        let mut rejected: u64 = 0;
        for iter in 0..opts.iters {
            if let Some(budget) = deadline {
                if start.elapsed() >= budget {
                    eprintln!(
                        "fuzz: wall-clock budget reached at {}/{} iters on {}",
                        iter, opts.iters, b.name
                    );
                    break 'outer;
                }
            }
            let mut rng = Rng::new(opts.seed, b.lane, iter);
            let outcome = (b.run)(&dir, &mut rng);
            completed += 1;
            match outcome {
                Outcome::Accepted => accepted += 1,
                Outcome::Rejected => rejected += 1,
                Outcome::Panicked => {
                    eprintln!(
                        "fuzz: PANIC boundary={} iter={iter} seed={}; reproduce with: \
                         fuzz --boundary {} --seed {} --iters {}",
                        b.name,
                        opts.seed,
                        b.name,
                        opts.seed,
                        iter + 1
                    );
                    failed = true;
                    break 'outer;
                }
                Outcome::RejectedValid(e) => {
                    eprintln!(
                        "fuzz: loader rejected KNOWN-GOOD input: boundary={} iter={iter} \
                         seed={}: {e}",
                        b.name, opts.seed
                    );
                    failed = true;
                    break 'outer;
                }
            }
        }
        println!(
            "fuzz: {:<8} {} iters: {} accepted, {} structured rejections, 0 panics",
            b.name,
            accepted + rejected,
            accepted,
            rejected
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "fuzz: clean — {completed} total iterations across {} boundary(ies) in {:.1}s \
         (seed {})",
        boundaries.len(),
        start.elapsed().as_secs_f64(),
        opts.seed
    );
    ExitCode::SUCCESS
}
