//! The snapshot container format.
//!
//! Fixed 32-byte little-endian header followed by a JSON payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"MNMPCKPT"
//!      8     4  format version (u32)
//!     12     8  configuration hash (u64, FNV-1a over canonical JSON)
//!     20     8  payload length in bytes (u64)
//!     28     4  CRC-32 (IEEE) of the payload
//!     32     -  payload (compact JSON of the snapshot state)
//! ```
//!
//! Loading validates in order: magic, version, truncation, CRC, config
//! hash, and finally JSON decode — each failure maps to a distinct
//! [`CheckpointError`] variant naming the file. Version policy: readers
//! accept only versions `<= FORMAT_VERSION`; the payload schema is
//! additive within a version, and any breaking change to a snapshot
//! state struct must bump [`FORMAT_VERSION`].

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::atomic::atomic_write;
use crate::crc::crc32;
use crate::error::CheckpointError;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"MNMPCKPT";

/// Current container format version.
///
/// History: 2 — the DRAM fault-injector image became per-channel
/// (`InjectorSnapshot.states`, one counter-mode stream position per
/// channel lane, replacing the single shared `state`). 3 — DRAM
/// service streams, so each `ChannelSnapshot` carries its channel's
/// in-flight service (`service`: statistics, fault tallies and a parked
/// abort) and unflushed telemetry (`telemetry`, plus each rank's
/// `busy_cycles`), and the never-written `FunctionalState.slots` is
/// gone. 4 — the DRAM image keeps only what is in flight: the
/// per-request `SystemState.pending` array gives way to `inflight` (the
/// multi-burst requests with bursts still queued) and `completed` (a
/// digest of every completed request). A version-3 payload has neither
/// field, so it fails to decode instead of resuming with an empty
/// ledger.
pub const FORMAT_VERSION: u32 = 4;

const HEADER_LEN: usize = 32;

/// The fixed header that frames `payload`.
fn header(config_hash: u64, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&config_hash.to_le_bytes());
    h[20..28].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[28..32].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Frames `payload` in the container format (header + payload bytes).
pub fn encode(config_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header(config_hash, payload));
    out.extend_from_slice(payload);
    out
}

/// Validates a framed container and returns its payload slice.
///
/// `path` is used only for error messages; `expected_config` must match
/// the hash stored in the header.
pub fn decode<'a>(
    path: &Path,
    bytes: &'a [u8],
    expected_config: u64,
) -> Result<&'a [u8], CheckpointError> {
    let p = || path.display().to_string();
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic { path: p() });
        }
        return Err(CheckpointError::Truncated {
            path: p(),
            needed: HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic { path: p() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version == 0 || version > FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            path: p(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
    let avail = (bytes.len() - HEADER_LEN) as u64;
    // Validate the untrusted length against the bytes actually present
    // BEFORE slicing (or letting a caller allocate) anything sized by
    // it: a corrupted header claiming a 16 EiB payload must fail here
    // in constant time, not via an attempted allocation.
    if avail < payload_len {
        return Err(CheckpointError::LengthOverrun {
            path: p(),
            field: "payload_len",
            claimed: payload_len,
            available: avail,
        });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(CheckpointError::ChecksumMismatch {
            path: p(),
            stored: stored_crc,
            computed,
        });
    }
    if stored_hash != expected_config {
        return Err(CheckpointError::ConfigMismatch {
            path: p(),
            expected: expected_config,
            found: stored_hash,
        });
    }
    Ok(payload)
}

/// Serializes `state` and atomically persists it to `path`.
///
/// The file holds exactly [`encode`]'s bytes, but the header and the
/// payload are written one after the other, so the payload is never
/// copied into a framed buffer.
pub fn save<T: Serialize>(path: &Path, config_hash: u64, state: &T) -> Result<(), CheckpointError> {
    let json = serde_json::to_string(state).map_err(|e| CheckpointError::Malformed {
        path: path.display().to_string(),
        detail: format!("state failed to serialize: {e}"),
    })?;
    let payload = json.as_bytes();
    atomic_write(path, &[&header(config_hash, payload), payload])
}

/// Loads and validates a snapshot from `path`.
pub fn load<T: Deserialize>(path: &Path, expected_config: u64) -> Result<T, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::io(path, "read", &e))?;
    let payload = decode(path, &bytes, expected_config)?;
    let text = std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed {
        path: path.display().to_string(),
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| CheckpointError::Malformed {
        path: path.display().to_string(),
        detail: format!("payload failed to parse: {e}"),
    })
}

/// [`load`], but a missing file is `Ok(None)` (fresh start) rather
/// than an error. Any *present* file must validate.
pub fn try_load<T: Deserialize>(
    path: &Path,
    expected_config: u64,
) -> Result<Option<T>, CheckpointError> {
    match fs::metadata(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(CheckpointError::io(path, "stat", &e)),
        Ok(_) => load(path, expected_config).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metanmp-format-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Demo {
        cursor: u64,
        values: Vec<f64>,
    }

    #[test]
    fn round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 7,
            values: vec![0.1, 2.5e-3, -1.0],
        };
        save(&path, 0xABCD, &state).unwrap();
        let back: Demo = load(&path, 0xABCD).unwrap();
        assert_eq!(back, state);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saved_file_is_the_encoded_container() {
        let dir = scratch("encoded");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 3,
            values: vec![1.5, -0.25],
        };
        save(&path, 0x1234, &state).unwrap();
        let json = serde_json::to_string(&state).unwrap();
        assert_eq!(fs::read(&path).unwrap(), encode(0x1234, json.as_bytes()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_none() {
        let dir = scratch("missing");
        let got: Option<Demo> = try_load(&dir.join("absent.ckpt"), 1).unwrap();
        assert!(got.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = scratch("magic");
        let path = dir.join("snap.ckpt");
        fs::write(&path, b"NOTACKPT-------------------------").unwrap();
        let err = load::<Demo>(&path, 1).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_truncation() {
        let dir = scratch("trunc");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 1,
            values: vec![1.0; 32],
        };
        save(&path, 9, &state).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Cut into the payload: the header's payload_len now claims
        // more bytes than the file holds.
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = load::<Demo>(&path, 9).unwrap_err();
        assert!(
            matches!(err, CheckpointError::LengthOverrun { .. }),
            "{err}"
        );
        // Cut into the fixed header itself.
        fs::write(&path, &bytes[..HEADER_LEN - 4]).unwrap();
        let err = load::<Demo>(&path, 9).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_absurd_length_claim_before_allocating() {
        let dir = scratch("overrun");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 1,
            values: vec![1.0; 4],
        };
        save(&path, 9, &state).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let real_payload = (bytes.len() - HEADER_LEN) as u64;
        // Claim a 16 EiB payload. If anything sized a buffer or slice
        // by this field before validating it, this test would abort the
        // process instead of returning the structured error.
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load::<Demo>(&path, 9).unwrap_err();
        match err {
            CheckpointError::LengthOverrun {
                field,
                claimed,
                available,
                ..
            } => {
                assert_eq!(field, "payload_len");
                assert_eq!(claimed, u64::MAX);
                assert_eq!(available, real_payload);
            }
            other => panic!("expected LengthOverrun, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bit_flip() {
        let dir = scratch("flip");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 1,
            values: vec![1.0; 8],
        };
        save(&path, 9, &state).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = load::<Demo>(&path, 9).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_config_mismatch_and_new_version() {
        let dir = scratch("config");
        let path = dir.join("snap.ckpt");
        let state = Demo {
            cursor: 1,
            values: vec![],
        };
        save(&path, 9, &state).unwrap();
        let err = load::<Demo>(&path, 10).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::ConfigMismatch {
                expected: 10,
                found: 9,
                ..
            }
        ));

        // Bump the version field past what we support.
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load::<Demo>(&path, 9).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion { .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
