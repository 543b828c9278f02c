//! Atomic artifact writes with bounded retry.
//!
//! Every durable artifact in the workspace — checkpoints, JSON reports,
//! run journals, metrics dumps — goes through [`atomic_write`] so a
//! crash mid-write can never leave a half-written file at the final
//! path. The recipe is the classic one:
//!
//! 1. write the bytes to `<path>.tmp` in the same directory,
//! 2. `fsync` the temporary file,
//! 3. `rename` it over `<path>` (atomic on POSIX filesystems),
//! 4. best-effort `fsync` of the parent directory so the rename itself
//!    is durable.
//!
//! Transient IO errors (`Interrupted`, `WouldBlock`, `TimedOut`) are
//! retried a bounded number of times with exponential backoff; anything
//! else fails immediately with the original error.
//!
//! The write path consults the [fault registry](crate::faults) so tests
//! can deterministically inject hard failures (`io_error:<site>`),
//! transient first-attempt failures recovered by the retry loop
//! (`io_flaky:<site>`), torn writes that leave half the payload at the
//! final path and fail hard (`torn_write:<site>`), and post-write
//! corruption of the renamed file (`corrupt:<site>` flips one byte,
//! `truncate:<site>` cuts the tail).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::thread;
use std::time::Duration;

use crate::faults;
use crate::schema::Json;

/// Maximum write attempts before a transient error is surfaced.
const MAX_ATTEMPTS: u32 = 3;

/// Backoff before retry `n` (1-based): `BASE_BACKOFF_MS << (n - 1)`.
const BASE_BACKOFF_MS: u64 = 10;

/// Atomically replaces `path` with `bytes` (see the module docs for the
/// exact recipe), under the default fault site `"artifact"`.
///
/// # Errors
///
/// Returns the underlying IO error after transient failures exhaust the
/// retry budget, or immediately for non-transient failures.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_as(path, "artifact", bytes)
}

/// Atomically writes `value` as pretty JSON with a trailing newline,
/// under the fault site `"artifact"`.
///
/// # Errors
///
/// As [`atomic_write`].
pub fn write_json(path: impl AsRef<Path>, value: &Json) -> io::Result<()> {
    atomic_write(path.as_ref(), value.render().as_bytes())
}

/// As [`atomic_write`], with an explicit fault-injection site name
/// (`"checkpoint"`, `"journal"`, `"metrics"`, …) so tests can target
/// one class of artifact.
///
/// # Errors
///
/// Returns the underlying IO error after transient failures exhaust the
/// retry budget, or immediately for non-transient failures.
pub fn atomic_write_as(path: &Path, site: &str, bytes: &[u8]) -> io::Result<()> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match write_once(path, site, bytes) {
            Ok(()) => break,
            Err(err) if is_transient(&err) && attempt < MAX_ATTEMPTS => {
                crate::log(
                    crate::Level::Warn,
                    "io",
                    format!(
                        "transient error writing {} (attempt {attempt}/{MAX_ATTEMPTS}): {err}",
                        path.display()
                    ),
                );
                thread::sleep(Duration::from_millis(BASE_BACKOFF_MS << (attempt - 1)));
            }
            Err(err) => return Err(err),
        }
    }
    if attempt > 1 {
        crate::emit(
            crate::Event::new(crate::EventKind::Recovery, crate::Level::Warn, "io")
                .message(format!(
                    "recovered write of {} after {attempt} attempts",
                    path.display()
                ))
                .field("reason", "transient_io_error")
                .field("action", "retried_write")
                .field("attempts", attempt as u64),
        );
    }
    if faults::armed() {
        corrupt_after_write(path, site)?;
    }
    Ok(())
}

/// One write attempt: tmp + fsync + rename + parent-dir sync.
fn write_once(path: &Path, site: &str, bytes: &[u8]) -> io::Result<()> {
    if faults::trip("io_error", site) {
        return Err(io::Error::other(format!(
            "injected io_error at site `{site}`"
        )));
    }
    if faults::trip("io_flaky", site) {
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient io_flaky at site `{site}`"),
        ));
    }
    if faults::trip("torn_write", site) {
        return Err(torn_write(path, site, bytes));
    }
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        fs::create_dir_all(dir)?;
    }
    let tmp = tmp_path(path)?;
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(err) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    // Make the rename itself durable. Directory fsync is best-effort:
    // not every filesystem supports opening a directory for sync.
    if let Some(dir) = parent {
        if let Ok(dirf) = File::open(dir) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// `<path>.tmp`, in the same directory so the rename stays atomic.
fn tmp_path(path: &Path) -> io::Result<std::path::PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot atomically write to {}", path.display()),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    Ok(path.with_file_name(tmp_name))
}

/// The `torn_write` fault: the first half of `bytes` lands *directly at
/// the final path* — no tmp file, no rename — and the write then fails
/// hard, as if the process lost power mid-`write(2)` on a filesystem
/// without the atomic-rename discipline. Unlike `truncate` (which cuts
/// a *successfully renamed* file and reports success), the caller sees
/// the failure, and the torn file must be caught by CRC on read-back.
/// The error is non-transient on purpose: the retry loop must not
/// quietly heal the tear.
fn torn_write(path: &Path, site: &str, bytes: &[u8]) -> io::Error {
    let write_half = || -> io::Result<()> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = File::create(path)?;
        file.write_all(&bytes[..bytes.len() / 2])?;
        file.sync_all()
    };
    if let Err(err) = write_half() {
        return err;
    }
    io::Error::other(format!("injected torn_write at site `{site}`"))
}

fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Applies armed post-write corruption faults to the file that was just
/// renamed into place: `corrupt:<site>` flips one byte near the middle,
/// `truncate:<site>` drops the second half.
fn corrupt_after_write(path: &Path, site: &str) -> io::Result<()> {
    if faults::trip("corrupt", site) {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            let pos = len / 2;
            file.seek(SeekFrom::Start(pos))?;
            let mut byte = [0u8; 1];
            file.read_exact(&mut byte)?;
            byte[0] ^= 0xFF;
            file.seek(SeekFrom::Start(pos))?;
            file.write_all(&byte)?;
            file.sync_all()?;
        }
    }
    if faults::trip("truncate", site) {
        let file = OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        file.set_len(len / 2)?;
        file.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultPlan};

    use crate::faults::test_lock as fault_lock;

    /// Single-fault plan on a synthetic site (parse validates site
    /// names, so tests arm the registry directly).
    fn one_fault(kind: &str, site: &str) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault {
                kind: kind.into(),
                site: site.into(),
                nth: 1,
            }],
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hs_io_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_replace_and_leave_no_tmp() {
        let dir = temp_dir("basic");
        let path = dir.join("out.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = temp_dir("mkdir");
        let path = dir.join("a/b/out.bin");
        atomic_write(&path, b"deep").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"deep");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_writes_are_retried_and_recovered() {
        let _guard = fault_lock();
        let dir = temp_dir("flaky");
        let path = dir.join("out.bin");
        faults::arm(one_fault("io_flaky", "flaky_site"));
        atomic_write_as(&path, "flaky_site", b"payload").unwrap();
        faults::disarm();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hard_io_errors_are_not_retried() {
        let _guard = fault_lock();
        let dir = temp_dir("hard");
        let path = dir.join("out.bin");
        faults::arm(one_fault("io_error", "hard_site"));
        let err = atomic_write_as(&path, "hard_site", b"payload").unwrap_err();
        faults::disarm();
        assert!(err.to_string().contains("injected io_error"));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_faults_mutate_the_written_file() {
        let _guard = fault_lock();
        let dir = temp_dir("corrupt");
        let path = dir.join("out.bin");
        let payload = vec![0u8; 64];
        faults::arm(one_fault("corrupt", "c_site"));
        atomic_write_as(&path, "c_site", &payload).unwrap();
        faults::disarm();
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), 64);
        assert_ne!(on_disk, payload, "corrupt fault left the file intact");

        faults::arm(one_fault("truncate", "t_site"));
        atomic_write_as(&path, "t_site", &payload).unwrap();
        faults::disarm();
        assert_eq!(fs::read(&path).unwrap().len(), 32);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_fail_hard_and_leave_half_the_bytes_in_place() {
        let _guard = fault_lock();
        let dir = temp_dir("torn");
        let path = dir.join("out.bin");
        atomic_write_as(&path, "torn_site", b"intact-previous-contents").unwrap();

        let payload: Vec<u8> = (0..=99).collect();
        faults::arm(one_fault("torn_write", "torn_site"));
        let err = atomic_write_as(&path, "torn_site", &payload).unwrap_err();
        faults::disarm();

        // Unlike truncate, the caller *sees* the failure — and unlike
        // io_flaky, the retry loop must not have healed it.
        assert!(err.to_string().contains("injected torn_write"), "{err}");
        // The previous contents are gone and exactly the first half of
        // the new payload is visible at the final path.
        assert_eq!(fs::read(&path).unwrap(), &payload[..50]);
        // No stray tmp file: the tear bypassed the rename discipline.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
