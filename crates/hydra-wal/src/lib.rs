//! # hydra-wal
//!
//! The storage discipline under the durable summary registry: an
//! **append-only write-ahead log** plus **immutable snapshot files**, both
//! checksummed, both fsync'd, both payload-agnostic (callers hand this crate
//! opaque bytes; the durable registry encodes its records and snapshots
//! with `hydra-service`'s binary codec, `hydra_service::codec`).
//!
//! ## WAL record framing
//!
//! ```text
//! ┌─────────────┬─────────────┬──────────────────┐
//! │ len: u32 LE │ crc: u32 LE │ payload (len B)  │   … repeated
//! └─────────────┴─────────────┴──────────────────┘
//! ```
//!
//! `crc` is the IEEE CRC32 of the payload.  [`Wal::append`] writes one frame
//! and then `fsync`s the file — a record is durable **before** the caller
//! acknowledges whatever the record describes.  [`replay`] walks the frames,
//! stops at the first incomplete or corrupt one, and **truncates** the file
//! back to the last intact frame boundary: a torn tail from a crash
//! mid-append disappears instead of poisoning the next run.
//!
//! ## Snapshot files
//!
//! A snapshot is written once and never modified: payload first, then a
//! fixed-size footer (`crc: u32 LE`, `len: u64 LE`, magic `HYSNAP01`) so a
//! reader can validate from the end without a header pass.  The file becomes
//! visible atomically — written to a `.tmp` sibling, fsync'd, renamed into
//! place, parent directory fsync'd — so a crash mid-checkpoint leaves either
//! the old snapshot or the new one, never a hybrid.
//!
//! ## fsync discipline
//!
//! [`fsync_file`], [`fsync_dir`] and [`write_file_durable`] are the shared
//! helpers every durable write in the workspace goes through (the WAL
//! appends and the checkpoints).  Each call bumps a process-wide counter
//! ([`sync_counts`]) so tests can assert the write path really issued its
//! syncs instead of trusting the comment.

#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of one record header: length + CRC32.
const RECORD_HEADER: usize = 8;

/// Sanity cap on a single WAL record; a length prefix beyond this is treated
/// as corruption (truncate point), not as an allocation request.
const MAX_RECORD_BYTES: u32 = 256 << 20;

/// Magic trailing bytes of a snapshot footer (versioned).
const SNAPSHOT_MAGIC: [u8; 8] = *b"HYSNAP01";

/// Bytes of the snapshot footer: crc (4) + payload len (8) + magic (8).
const SNAPSHOT_FOOTER: u64 = 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the polynomial zlib, gzip and PNG use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// fsync discipline
// ---------------------------------------------------------------------------

static FILE_SYNCS: AtomicU64 = AtomicU64::new(0);
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// Process-wide fsync counters: `(file_syncs, dir_syncs)` issued through
/// this crate's helpers since process start.  Test instrumentation — the
/// durability tests assert a write path moved both numbers.
pub fn sync_counts() -> (u64, u64) {
    (
        FILE_SYNCS.load(Ordering::SeqCst),
        DIR_SYNCS.load(Ordering::SeqCst),
    )
}

/// `fsync` one open file (data + metadata), counting the call.
pub fn fsync_file(file: &File) -> std::io::Result<()> {
    file.sync_all()?;
    FILE_SYNCS.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// `fsync` a directory so a rename or create inside it is durable — on
/// POSIX the rename itself lives in the *directory's* metadata, and a crash
/// can undo an un-synced rename even when the file's bytes survived.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    let handle = File::open(dir)?;
    handle.sync_all()?;
    DIR_SYNCS.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Writes `bytes` to `path` (create or truncate) and `fsync`s the file
/// before returning.  The caller still owns the rename + directory fsync
/// when the write is a tmp-file staging step.
pub fn write_file_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    fsync_file(&file)
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// An open append-only log.  Every [`Wal::append`] is fsync'd before it
/// returns, so a record the caller has seen succeed survives any crash.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// End of the last acknowledged frame; the next append writes here.
    end: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path` for appending.  Callers that may
    /// be reopening after a crash should [`replay`] first — replay truncates
    /// any torn tail, and `open` then continues from the intact boundary.
    ///
    /// The file is deliberately opened without `O_APPEND`: appends are
    /// positional writes at the acknowledged end, and Linux `pwrite`
    /// ignores the offset on an `O_APPEND` descriptor.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let end = file.metadata()?.len();
        Ok(Wal { file, path, end })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Appends one record and `fsync`s the log.  Returns the number of bytes
    /// the frame occupies on disk.  When this returns `Ok`, the record is
    /// durable.  When it returns `Err`, whatever part of the frame landed
    /// lies past the acknowledged end: the next append overwrites it from
    /// that end, and [`replay`] truncates any remainder as a torn tail.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "WAL record too large")
        })?;
        if len > MAX_RECORD_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "WAL record too large",
            ));
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all_at(&frame, self.end)?;
        fsync_file(&self.file)?;
        self.end += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Empties the log (after a successful checkpoint has made its records
    /// redundant) and `fsync`s the truncation.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        fsync_file(&self.file)?;
        self.end = 0;
        Ok(())
    }
}

/// The outcome of replaying a log file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail that were truncated away (0 on a clean log).
    pub truncated_bytes: u64,
}

/// Reads every intact record of the log at `path`, truncating a torn tail
/// (incomplete header, short payload, or CRC mismatch) back to the last
/// intact frame boundary.  A missing file replays as empty.
pub fn replay(path: &Path) -> std::io::Result<WalReplay> {
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER {
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES || remaining - RECORD_HEADER < len as usize {
            break; // garbage length or short payload: torn tail
        }
        let payload = &bytes[offset + RECORD_HEADER..offset + RECORD_HEADER + len as usize];
        if crc32(payload) != crc {
            break; // corrupt record: everything from here on is suspect
        }
        records.push(payload.to_vec());
        offset += RECORD_HEADER + len as usize;
    }

    let truncated_bytes = (bytes.len() - offset) as u64;
    if truncated_bytes > 0 {
        file.set_len(offset as u64)?;
        fsync_file(&file)?;
    }
    Ok(WalReplay {
        records,
        truncated_bytes,
    })
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// Writes `payload` as an immutable snapshot at `path`: payload + checksum
/// footer, staged through `path.tmp`, fsync'd, renamed into place, and the
/// parent directory fsync'd — atomically visible, durably named.  Returns
/// the number of bytes the file occupies on disk.
pub fn write_snapshot(path: &Path, payload: &[u8]) -> std::io::Result<u64> {
    let mut bytes = Vec::with_capacity(payload.len() + SNAPSHOT_FOOTER as usize);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);

    let tmp = path.with_extension("tmp");
    write_file_durable(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(bytes.len() as u64)
}

/// Reads and validates a snapshot written by [`write_snapshot`], returning
/// its payload.  Any structural or checksum mismatch is an
/// [`std::io::ErrorKind::InvalidData`] error — the caller falls back to an
/// older snapshot.
pub fn read_snapshot(path: &Path) -> std::io::Result<Vec<u8>> {
    let corrupt = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt snapshot: {what}"),
        )
    };
    let bytes = std::fs::read(path)?;
    if (bytes.len() as u64) < SNAPSHOT_FOOTER {
        return Err(corrupt("shorter than the footer"));
    }
    let footer = &bytes[bytes.len() - SNAPSHOT_FOOTER as usize..];
    if footer[12..20] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let len = u64::from_le_bytes(footer[4..12].try_into().expect("8 bytes"));
    if len != (bytes.len() as u64 - SNAPSHOT_FOOTER) {
        return Err(corrupt("length mismatch"));
    }
    let crc = u32::from_le_bytes(footer[0..4].try_into().expect("4 bytes"));
    let payload = &bytes[..len as usize];
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hydra-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).expect("open");
        let records: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![0u8; 1000], b"{}".to_vec()];
        for r in &records {
            wal.append(r).expect("append");
        }
        drop(wal);
        let replayed = replay(&path).expect("replay");
        assert_eq!(replayed.records, records);
        assert_eq!(replayed.truncated_bytes, 0);

        // Reopen continues appending after the existing records.
        let mut wal = Wal::open(&path).expect("reopen");
        wal.append(b"four").expect("append");
        let replayed = replay(&path).expect("replay again");
        assert_eq!(replayed.records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One way to mangle a WAL tail, by name.
    type Tear = (&'static str, fn(&mut Vec<u8>));

    #[test]
    fn torn_tails_are_truncated_not_fatal() {
        let tears: [Tear; 4] = [
            ("short-header", |b| b.extend_from_slice(&[7, 0, 0])),
            ("short-payload", |b| {
                b.extend_from_slice(&100u32.to_le_bytes());
                b.extend_from_slice(&0u32.to_le_bytes());
                b.extend_from_slice(b"only a few bytes");
            }),
            ("bad-crc", |b| {
                let payload = b"record three";
                b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                b.extend_from_slice(&(crc32(payload) ^ 1).to_le_bytes());
                b.extend_from_slice(payload);
            }),
            ("garbage-length", |b| {
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b.extend_from_slice(&[0; 8]);
            }),
        ];
        for (tag, tear) in tears {
            let dir = temp_dir(tag);
            let path = dir.join("wal.log");
            let mut wal = Wal::open(&path).expect("open");
            wal.append(b"record one").expect("append");
            wal.append(b"record two").expect("append");
            let clean_len = wal.len_bytes();
            drop(wal);

            let mut bytes = std::fs::read(&path).expect("read");
            tear(&mut bytes);
            std::fs::write(&path, &bytes).expect("tear");

            let replayed = replay(&path).expect("replay");
            assert_eq!(
                replayed.records,
                vec![b"record one".to_vec(), b"record two".to_vec()],
                "{tag}: intact prefix survives"
            );
            assert!(replayed.truncated_bytes > 0, "{tag}: tail accounted");
            assert_eq!(
                std::fs::metadata(&path).expect("meta").len(),
                clean_len,
                "{tag}: file truncated back to the intact boundary"
            );
            // A second replay is clean, and appending continues normally.
            let replayed = replay(&path).expect("replay after truncate");
            assert_eq!(replayed.truncated_bytes, 0, "{tag}");
            let mut wal = Wal::open(&path).expect("reopen");
            wal.append(b"record three").expect("append after tear");
            assert_eq!(replay(&path).expect("final").records.len(), 3, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A failed append (ENOSPC mid-write, EIO on fsync) can leave bytes past
    /// the last acknowledged record.  The next append must land at the
    /// acknowledged end, so replay returns exactly the acknowledged records:
    /// a partial leftover must not hide the record behind it, and a complete
    /// but unacknowledged leftover must not be replayed.
    #[test]
    fn append_after_failed_append_leftovers_replays_only_acknowledged_records() {
        let frame = |payload: &[u8]| {
            let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes
        };
        let unacknowledged = frame(b"a record whose fsync failed");
        let leftovers = [
            ("partial-frame", unacknowledged[..20].to_vec()),
            ("complete-frame", unacknowledged.clone()),
        ];
        for (tag, leftover) in leftovers {
            let dir = temp_dir(tag);
            let path = dir.join("wal.log");
            let mut wal = Wal::open(&path).expect("open");
            wal.append(b"one").expect("append one");
            OpenOptions::new()
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(&leftover))
                .expect("plant leftover");
            wal.append(b"two").expect("append two");
            drop(wal);
            let replayed = replay(&path).expect("replay");
            assert_eq!(
                replayed.records,
                vec![b"one".to_vec(), b"two".to_vec()],
                "{tag}: exactly the acknowledged records"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn missing_wal_replays_empty() {
        let dir = temp_dir("missing");
        let replayed = replay(&dir.join("nope.log")).expect("replay missing");
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trip_and_corruption_detection() {
        let dir = temp_dir("snapshot");
        let path = dir.join("snapshot-1.snap");
        let payload = b"{\"summaries\": []}".repeat(50);
        write_snapshot(&path, &payload).expect("write");
        assert_eq!(read_snapshot(&path).expect("read"), payload);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp staging file renamed away"
        );

        // Flip one payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&path).expect("read bytes");
        bytes[3] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");
        let err = read_snapshot(&path).expect_err("corrupt snapshot must not parse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Truncated file: structural error, not a panic.
        std::fs::write(&path, &bytes[..10]).expect("truncate");
        assert!(read_snapshot(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_issues_a_file_sync_and_snapshot_a_dir_sync() {
        let dir = temp_dir("sync-counts");
        let (files_before, dirs_before) = sync_counts();
        let mut wal = Wal::open(dir.join("wal.log")).expect("open");
        wal.append(b"payload").expect("append");
        let (files_after, _) = sync_counts();
        assert!(files_after > files_before, "append must fsync the log file");

        write_snapshot(&dir.join("snap.snap"), b"payload").expect("snapshot");
        let (_, dirs_after) = sync_counts();
        assert!(
            dirs_after > dirs_before,
            "snapshot publication must fsync the directory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
