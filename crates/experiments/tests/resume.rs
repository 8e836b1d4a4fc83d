//! End-to-end resume tests for the experiments binary.
//!
//! The `faults` sweep is interrupted deterministically (via the
//! `METANMP_INTERRUPT_AFTER_CELLS` hook — the cooperative path a real
//! SIGINT takes, minus the signal delivery), resumed twice, and the
//! final `results/faults.json` must be byte-identical to an
//! uninterrupted run, both at the default `--jobs` and with the
//! one-worker pool of `--jobs 1`. A second test corrupts the journal
//! and the in-flight checkpoint and requires structured refusals, not
//! replays of bad data.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SEED: &str = "7";

/// Exit code the binary uses for "interrupted, resumable".
const EXIT_RESUMABLE: i32 = 3;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metanmp-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `metanmp-experiments faults --seed 7 <extra>` with `cwd` as the
/// working directory (results/ and the sweep dir land under it).
fn run_faults(cwd: &Path, extra: &[&str], interrupt_after: Option<u32>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_metanmp-experiments"));
    cmd.current_dir(cwd)
        .args(["faults", "--seed", SEED])
        .args(extra);
    match interrupt_after {
        Some(n) => cmd.env("METANMP_INTERRUPT_AFTER_CELLS", n.to_string()),
        None => cmd.env_remove("METANMP_INTERRUPT_AFTER_CELLS"),
    };
    cmd.output().expect("binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Completed-cell records in a sweep journal (the header and any
/// tagged lease/failure records do not count).
fn journaled_cells(manifest: &Path) -> usize {
    fs::read_to_string(manifest)
        .expect("read journal")
        .lines()
        .filter(|l| l.contains("\"result_digest\""))
        .count()
}

#[test]
fn interrupted_sweep_resumes_byte_identical() {
    // Default `--jobs` (one worker per core), then a one-worker pool.
    interrupt_resume_and_compare("identical-auto", &[]);
    interrupt_resume_and_compare("identical-jobs1", &["--jobs", "1"]);
}

fn interrupt_resume_and_compare(name: &str, jobs: &[&str]) {
    let dir = scratch(name);
    let reference = dir.join("reference");
    let sweeping = dir.join("sweeping");
    fs::create_dir_all(&reference).unwrap();
    fs::create_dir_all(&sweeping).unwrap();

    let out = run_faults(&reference, jobs, None);
    assert!(out.status.success(), "reference run: {}", stderr_of(&out));
    let expected = fs::read(reference.join("results/faults.json")).expect("reference artifact");

    // Round 1: fresh sweep, interrupted after 2 cells.
    let round1 = [jobs, &["--sweep-dir", "sweep", "--ckpt-interval", "64"]].concat();
    let out = run_faults(&sweeping, &round1, Some(2));
    assert_eq!(
        out.status.code(),
        Some(EXIT_RESUMABLE),
        "interrupted sweep must exit {EXIT_RESUMABLE}: {}",
        stderr_of(&out)
    );
    let manifest = sweeping.join("sweep/faults.manifest.jsonl");
    assert!(manifest.is_file(), "interrupt leaves the journal behind");
    // Cells finishing after the threshold tripped are discarded, so
    // the journal holds exactly the threshold at any worker count.
    assert_eq!(journaled_cells(&manifest), 2, "round 1 journals 2 cells");
    assert!(
        stderr_of(&out).contains("--resume"),
        "interrupt message tells the user how to resume"
    );

    // Round 2: resume, interrupted again after 2 more cells.
    let resume = [jobs, &["--resume", "sweep"]].concat();
    let out = run_faults(&sweeping, &resume, Some(2));
    assert_eq!(
        out.status.code(),
        Some(EXIT_RESUMABLE),
        "second interruption: {}",
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains("replayed"),
        "resume reports the replayed cells: {}",
        stderr_of(&out)
    );

    // Final: resume to completion.
    let out = run_faults(&sweeping, &resume, None);
    assert!(out.status.success(), "final resume: {}", stderr_of(&out));
    let resumed = fs::read(sweeping.join("results/faults.json")).expect("resumed artifact");
    assert_eq!(
        resumed, expected,
        "resumed results/faults.json must be byte-identical to an uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_sweep_state_is_refused() {
    let dir = scratch("corrupt");
    fs::create_dir_all(&dir).unwrap();

    let out = run_faults(
        &dir,
        &["--sweep-dir", "sweep", "--ckpt-interval", "64"],
        Some(1),
    );
    assert_eq!(
        out.status.code(),
        Some(EXIT_RESUMABLE),
        "setup interruption: {}",
        stderr_of(&out)
    );

    // Tamper with a journaled result: the resume must refuse the
    // journal (digest mismatch) with a structured failure, not exit 0
    // on silently replayed garbage and not claim to be resumable.
    // The stored result is an escaped JSON string inside the record, so
    // renaming a key in it keeps the record line itself parseable while
    // invalidating the stored digest.
    let manifest = dir.join("sweep/faults.manifest.jsonl");
    let pristine = fs::read_to_string(&manifest).unwrap();
    let tampered = pristine.replacen("cycles", "cycleZ", 1);
    assert_ne!(pristine, tampered, "test must actually tamper");
    fs::write(&manifest, &tampered).unwrap();
    let out = run_faults(&dir, &["--resume", "sweep"], None);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("digest"),
        "refusal names the integrity failure: {}",
        stderr_of(&out)
    );
    fs::write(&manifest, &pristine).unwrap();

    // Tamper with an in-flight simulator checkpoint (cells checkpoint
    // under per-cell `inflight-<key>.ckpt` paths; one exists only if a
    // cell was stopped mid-flight): CRC validation must turn the
    // flipped bit into a checkpoint error.
    let ckpt = fs::read_dir(dir.join("sweep"))
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"));
    if let Some(ckpt) = ckpt {
        let mut bytes = fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&ckpt, &bytes).unwrap();
        let out = run_faults(&dir, &["--resume", "sweep"], None);
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("checksum") || stderr_of(&out).contains("corrupt"),
            "refusal names the corruption: {}",
            stderr_of(&out)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
