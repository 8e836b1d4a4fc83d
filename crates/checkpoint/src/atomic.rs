//! Crash-safe file replacement.
//!
//! `fs::write` straight onto a results file can leave a torn, truncated
//! JSON behind if the process dies mid-write. [`atomic_write`] instead
//! writes a sibling temp file, fsyncs it, and renames it over the
//! target — on POSIX filesystems the rename is atomic, so readers (and
//! a resumed run) only ever observe the old complete file or the new
//! complete one.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::CheckpointError;

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Durably replaces `path` with the concatenation of `parts` (temp file
/// → fsync → rename). The parts are written to the temp file in order,
/// so a caller never has to join them into one buffer first.
///
/// The parent directory is created if missing. After the rename the
/// directory itself is fsynced on a best-effort basis so the new entry
/// survives power loss; a failure there is ignored because the data
/// file is already durable and the rename already visible.
pub fn atomic_write(path: &Path, parts: &[&[u8]]) -> Result<(), CheckpointError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(|e| CheckpointError::io(dir, "create dir", &e))?;
        }
    }
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp).map_err(|e| CheckpointError::io(&tmp, "create", &e))?;
    for part in parts {
        f.write_all(part)
            .map_err(|e| CheckpointError::io(&tmp, "write", &e))?;
    }
    f.sync_all()
        .map_err(|e| CheckpointError::io(&tmp, "fsync", &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, "rename", &e))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Best effort: some filesystems refuse O_RDONLY fsync on
            // directories; the rename is already atomic and visible.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// [`atomic_write`] for text content.
pub fn atomic_write_str(path: &Path, text: &str) -> Result<(), CheckpointError> {
    atomic_write(path, &[text.as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metanmp-atomic-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch("replace");
        let path = dir.join("out.json");
        atomic_write(&path, &[b"{\"v\":1}"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        atomic_write(&path, &[b"{\"v\":", b"2}"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        // No temp file left behind.
        assert!(!path.with_file_name("out.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parent() {
        let dir = scratch("parents");
        let path = dir.join("a/b/out.md");
        atomic_write_str(&path, "table").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "table");
        let _ = fs::remove_dir_all(&dir);
    }
}
