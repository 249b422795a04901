//! # hydra-wal
//!
//! The storage discipline under the durable summary registry: an
//! **append-only write-ahead log** whose checkpoints **seal** it into
//! immutable, numbered segment files, plus the reader of the snapshot
//! files older registries wrote.  Frames are checksummed, every write is
//! fsync'd, and the crate is payload-agnostic (callers hand it opaque
//! bytes; the durable registry encodes its records with `hydra-service`'s
//! binary codec, `hydra_service::codec`).
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
//! acknowledges whatever the record describes.  [`replay`] walks the frames
//! of the active log, stops at the first incomplete or corrupt one, and
//! **truncates** the file back to the last intact frame boundary: a torn
//! tail from a crash mid-append disappears instead of poisoning the next
//! run.
//!
//! ## Sealed segments
//!
//! [`Wal::seal`] gives the active log (`wal.log`) its final name,
//! `wal-<seq:010>.log`, and continues in a fresh active log.  Nothing is
//! re-encoded: a segment holds exactly the frames that were appended and
//! acknowledged.  [`segments`] lists them in sequence order and
//! [`read_segment`] reads one **strictly** — a sealed file was fsync'd
//! whole, so a bad frame in it is corruption, reported as
//! [`std::io::ErrorKind::InvalidData`] and never truncated away.
//!
//! ## Legacy snapshot files
//!
//! Registries before sealed segments checkpointed into snapshot files:
//! payload first, then a fixed-size footer (`crc: u32 LE`, `len: u64 LE`,
//! magic `HYSNAP01`).  Nothing writes them any more; [`snapshots`] lists
//! them and [`read_snapshot`] validates one, so the directories those
//! registries left keep booting.
//!
//! ## fsync discipline
//!
//! [`fsync_file`] and [`fsync_dir`] are the shared helpers every durable
//! write goes through (appends, creating a log, seals).  Each call bumps a
//! process-wide counter ([`sync_counts`]) so tests can assert the write
//! path really issued its syncs instead of trusting the comment.

#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of one record header: length + CRC32.
const RECORD_HEADER: usize = 8;

/// Sanity cap on a single WAL record; a length prefix beyond this is treated
/// as corruption (truncate point), not as an allocation request.
const MAX_RECORD_BYTES: u32 = 256 << 20;

/// Magic trailing bytes of a legacy snapshot footer (versioned).
const SNAPSHOT_MAGIC: [u8; 8] = *b"HYSNAP01";

/// Bytes of a legacy snapshot footer: crc (4) + payload len (8) + magic (8).
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

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
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
    /// Sequence number the next [`Wal::seal`] gives its segment.
    next_seq: u64,
}

impl Wal {
    /// Opens (or creates) the active log at `path` for appending.  Callers
    /// that may be reopening after a crash should [`replay`] first — replay
    /// truncates any torn tail, and `open` then continues from the intact
    /// boundary.  Creating the file also `fsync`s its directory: an fsync of
    /// the file alone does not make its *name* durable, and a log that lost
    /// its name would lose every record in it.  The next seal continues the
    /// sequence of the [`segments`] already beside `path`.
    ///
    /// The file is deliberately opened without `O_APPEND`: appends are
    /// positional writes at the acknowledged end, and Linux `pwrite`
    /// ignores the offset on an `O_APPEND` descriptor.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Wal> {
        let path = path.into();
        let file = match OpenOptions::new().read(true).write(true).open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => create_log(&path)?,
            opened => opened?,
        };
        let end = file.metadata()?.len();
        let next_seq = segments(&path)?.last().map_or(0, |(seq, _)| seq + 1);
        Ok(Wal {
            file,
            path,
            end,
            next_seq,
        })
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Appends one record and `fsync`s the log.  Returns the number of bytes
    /// the frame occupies on disk.  When this returns `Ok`, the record is
    /// durable.  When it returns `Err`, whatever part of the frame landed
    /// lies past the acknowledged end: the next append overwrites it from
    /// that end, a seal cuts it off, and [`replay`] truncates any remainder
    /// as a torn tail.
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

    /// Seals the active log as the next numbered segment and continues in a
    /// fresh, empty one.  In this order: cut the file back to the
    /// acknowledged end (leftovers of a failed append are never sealed),
    /// `fsync` it, rename it to its segment name, `fsync` the directory, and
    /// open the fresh log.  Returns the segment's path.
    ///
    /// A seal that fails before the rename leaves the log as it was, still
    /// appending.  Once the rename has happened its sequence number is
    /// spent, so no later seal renames over the segment, and the fresh log
    /// is opened even if the directory fsync failed; only if opening it
    /// fails do appends continue in the renamed file, which boot reads in
    /// sequence like any segment.  An error names the segment path.
    pub fn seal(&mut self) -> std::io::Result<PathBuf> {
        let sealed = segment_path(&self.path, self.next_seq);
        self.seal_as(&sealed).map_err(|e| {
            let what = format!("sealing {} as {}", self.path.display(), sealed.display());
            std::io::Error::new(e.kind(), format!("{what}: {e}"))
        })?;
        Ok(sealed)
    }

    fn seal_as(&mut self, sealed: &Path) -> std::io::Result<()> {
        self.file.set_len(self.end)?;
        fsync_file(&self.file)?;
        std::fs::rename(&self.path, sealed)?;
        self.next_seq += 1;
        let synced = fsync_dir(parent_dir(&self.path));
        self.file = create_log(&self.path)?;
        self.end = 0;
        synced
    }
}

/// Creates an empty log file at `path` and `fsync`s its directory, so the
/// new name is durable before any record is acknowledged in it.
fn create_log(path: &Path) -> std::io::Result<File> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(path)?;
    fsync_dir(parent_dir(path))?;
    Ok(file)
}

/// Segment `seq` of the active log `active`: `wal.log` seals to
/// `wal-0000000007.log` beside it.
fn segment_path(active: &Path, seq: u64) -> PathBuf {
    let stem = active.file_stem().unwrap_or_default().to_string_lossy();
    active.with_file_name(format!("{stem}-{seq:010}.log"))
}

/// Every sealed segment of the active log `active`, by ascending sequence
/// number.
pub fn segments(active: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let stem = active.file_stem().unwrap_or_default().to_string_lossy();
    numbered(parent_dir(active), &format!("{stem}-"), ".log")
}

/// Every file in `dir` named `<prefix><seq><suffix>`, by ascending `seq`.
fn numbered(dir: &Path, prefix: &str, suffix: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let seq = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            Some((seq.parse().ok()?, path))
        })
        .collect();
    found.sort();
    Ok(found)
}

/// The payloads of the intact frames at the head of `bytes`, and where the
/// last of them ends.  Walking stops at the first incomplete header, short
/// payload, garbage length or CRC mismatch.
fn frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
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
            break; // garbage length or short payload
        }
        let payload = &bytes[offset + RECORD_HEADER..offset + RECORD_HEADER + len as usize];
        if crc32(payload) != crc {
            break; // corrupt record: everything from here on is suspect
        }
        records.push(payload.to_vec());
        offset += RECORD_HEADER + len as usize;
    }
    (records, offset)
}

/// The outcome of replaying a log file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail that were truncated away (0 on a clean log).
    pub truncated_bytes: u64,
}

/// Reads every intact record of the active log at `path`, truncating a
/// torn tail (incomplete header, short payload, or CRC mismatch) back to
/// the last intact frame boundary.  A missing file replays as empty.
pub fn replay(path: &Path) -> std::io::Result<WalReplay> {
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (records, end) = frames(&bytes);
    let truncated_bytes = (bytes.len() - end) as u64;
    if truncated_bytes > 0 {
        file.set_len(end as u64)?;
        fsync_file(&file)?;
    }
    Ok(WalReplay {
        records,
        truncated_bytes,
    })
}

/// Reads every record of the sealed segment at `path`.  Unlike [`replay`]
/// nothing is truncated: any byte past the last intact frame is an
/// [`std::io::ErrorKind::InvalidData`] error naming its offset, and the
/// file is left as it is.
pub fn read_segment(path: &Path) -> std::io::Result<Vec<Vec<u8>>> {
    let bytes = std::fs::read(path)?;
    let (records, end) = frames(&bytes);
    if end < bytes.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "corrupt frame at byte {end} of {} (record {})",
                bytes.len(),
                records.len() + 1
            ),
        ));
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Legacy snapshot files
// ---------------------------------------------------------------------------

/// Every legacy snapshot file (`snapshot-<seq>.snap`) in `dir`, by
/// ascending sequence number.
pub fn snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    numbered(dir, "snapshot-", ".snap")
}

/// Reads and validates a snapshot file an older registry wrote, returning
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
    use std::io::Write;

    /// `payload` framed as [`Wal::append`] writes it.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// Appends `bytes` past whatever `path` holds, as a failed append leaves
    /// them.
    fn plant(path: &Path, bytes: &[u8]) {
        OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(bytes))
            .expect("plant leftover");
    }

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
            plant(&path, &leftover);
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

    /// A seal cuts the log back to its acknowledged end first, so the
    /// leftovers of a failed append — a partial frame or a complete but
    /// unacknowledged one — never reach a sealed segment, whose strict read
    /// returns exactly the acknowledged records.
    #[test]
    fn seal_drops_failed_append_leftovers() {
        let dir = temp_dir("seal-leftovers");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).expect("open");
        wal.append(b"one").expect("append one");
        wal.append(b"two").expect("append two");
        let unacknowledged = frame(b"a record whose fsync failed");
        plant(&path, &unacknowledged[..20]);
        plant(&path, &unacknowledged);
        let sealed = wal.seal().expect("seal");
        assert_eq!(sealed, dir.join("wal-0000000000.log"));
        assert_eq!(
            read_segment(&sealed).expect("strict read"),
            vec![b"one".to_vec(), b"two".to_vec()]
        );
        assert_eq!(wal.len_bytes(), 0, "the fresh active log is empty");
        assert_eq!(std::fs::metadata(&path).expect("fresh log").len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seals number their segments in order, a reopened log continues the
    /// sequence, and a sealed segment is read strictly: one flipped payload
    /// byte is an `InvalidData` error, and the file keeps its length.
    #[test]
    fn seals_number_segments_and_segments_read_strictly() {
        let dir = temp_dir("segments");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).expect("open");
        for record in [b"one", b"two"] {
            wal.append(record).expect("append");
            wal.seal().expect("seal");
        }
        drop(wal);
        let mut wal = Wal::open(&path).expect("reopen");
        wal.append(b"six").expect("append");
        assert_eq!(wal.seal().expect("seal"), dir.join("wal-0000000002.log"));
        std::fs::write(dir.join("wal-notes.log"), b"not a segment").expect("stray file");
        let listed: Vec<(u64, PathBuf)> = segments(&path).expect("list");
        assert_eq!(
            listed,
            (0..3)
                .map(|seq| (seq, dir.join(format!("wal-{seq:010}.log"))))
                .collect::<Vec<_>>()
        );
        let records: Vec<Vec<Vec<u8>>> = listed
            .iter()
            .map(|(_, p)| read_segment(p).expect("read"))
            .collect();
        assert_eq!(
            records,
            vec![
                vec![b"one".to_vec()],
                vec![b"two".to_vec()],
                vec![b"six".to_vec()]
            ]
        );

        let first = &listed[0].1;
        let mut bytes = std::fs::read(first).expect("read bytes");
        bytes[RECORD_HEADER] ^= 0x40;
        std::fs::write(first, &bytes).expect("corrupt");
        let err = read_segment(first).expect_err("a corrupt segment must not read");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte 0"), "{err}");
        assert_eq!(
            std::fs::metadata(first).expect("meta").len(),
            bytes.len() as u64,
            "a strict read truncates nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_replays_empty() {
        let dir = temp_dir("missing");
        let replayed = replay(&dir.join("nope.log")).expect("replay missing");
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A legacy snapshot as older registries wrote it: payload, then the
    /// footer (crc, length, magic).
    fn legacy_snapshot(payload: &[u8]) -> Vec<u8> {
        let mut bytes = payload.to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes
    }

    #[test]
    fn legacy_snapshot_reader_detects_corruption() {
        let dir = temp_dir("snapshot");
        let path = dir.join("snapshot-1.snap");
        let payload = b"{\"summaries\": []}".repeat(50);
        let mut bytes = legacy_snapshot(&payload);
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(read_snapshot(&path).expect("read"), payload);

        // Flip one payload byte: checksum mismatch.
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
    fn append_issues_a_file_sync_and_seal_a_dir_sync() {
        let dir = temp_dir("sync-counts");
        let (_, dirs_before) = sync_counts();
        let mut wal = Wal::open(dir.join("wal.log")).expect("open");
        let (files_before, dirs_after) = sync_counts();
        assert!(
            dirs_after > dirs_before,
            "creating the log must fsync its directory"
        );
        wal.append(b"payload").expect("append");
        let (files_after, dirs_before) = sync_counts();
        assert!(files_after > files_before, "append must fsync the log file");

        wal.seal().expect("seal");
        let (_, dirs_after) = sync_counts();
        assert!(
            dirs_after > dirs_before,
            "a seal must fsync the directory after the rename"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
