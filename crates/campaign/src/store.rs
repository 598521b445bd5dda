//! `SCTR` — the versioned binary trace-store format.
//!
//! One file holds one acquired trace set (the unit a campaign caches).
//! Layout, all integers and floats little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SCTR"
//! 4       2     format version (currently 2)
//! 6       2     kind: 0 = classified leakage protocol, 1 = CPA dataset
//! 8       2     num_classes (classified) / secret key nibble (CPA)
//! 10      2     implementation-name length n
//! 12      n     implementation name, UTF-8
//! 12+n    8     campaign seed (u64)
//! 20+n    8     device age in months (f64)
//! 28+n    8     acquisition-config digest (u64)
//! 36+n    4     trace count (u32)
//! 40+n    4     samples per trace (u32)
//! 44+n    8     FNV-1a/64 checksum of the header bytes above
//! 52+n    —     records: per trace a u16 label + samples × f64,
//!               each followed by its own FNV-1a/64 record checksum
//! end-8   8     FNV-1a/64 checksum of every preceding byte
//! ```
//!
//! Versioning rules: the magic and version are checked before anything
//! else is parsed; a reader never guesses at unknown versions (bump the
//! version on any layout change and keep old readers refusing new files
//! loudly). Version 2 added the header and per-record checksums; v1
//! files (single trailing checksum only) are refused and re-acquired.
//!
//! Three checksum scopes serve three failure modes:
//!
//! * the **header checksum** proves the metadata before any buffer is
//!   sized from it, and is what makes a damaged file *salvageable* —
//!   [`salvage_store`] trusts a verified header to locate every record;
//! * the **per-record checksums** localize damage: [`StoreReader`]
//!   verifies each record on every cache hit, and [`salvage_store`]
//!   classifies records as clean / corrupt (bad checksum) / torn
//!   (truncated tail) so a scrub pass re-captures only what was lost;
//! * the **trailing whole-file checksum** keeps the all-or-nothing
//!   cache-hit guarantee of version 1.
//!
//! Stores are written **atomically**: bytes stream to a `.tmp` sibling,
//! which is fsynced and renamed over the final path only on a complete,
//! checksummed [`StoreWriter::finish`]. A crash mid-write leaves at
//! worst a stale temp file, never a half-written store under a valid
//! name.
//!
//! The reader streams records through a fixed reusable buffer
//! ([`StoreReader::for_each_record`]) rather than materializing the file,
//! so consumers that only fold over traces (means, spectra) never hold
//! more than one record in memory.
//!
//! # Checkpoints (`SCKP`)
//!
//! A crashed or killed campaign must not lose hours of simulation, so
//! the executor periodically flushes completed traces to a sibling
//! *checkpoint* file (`<store>.ckpt`). Unlike `SCTR` — whose trailing
//! checksum makes a file all-or-nothing — a checkpoint is a sequence of
//! **self-delimiting frames**, each carrying its own FNV checksum:
//!
//! ```text
//! magic "SCKP", version, the SCTR header fields, header FNV-1a/64
//! frame*: index u32 | label u16 | samples × f64 | frame FNV-1a/64
//! ```
//!
//! Frames are fixed-length for a given header, so salvage can *resync*:
//! a corrupt frame anywhere in the file loses only itself —
//! [`resume_checkpoint`] validates every frame at its fixed boundary,
//! skips the damaged ones, truncates the torn tail back to the last
//! intact frame, and hands back both the salvaged records and a writer
//! positioned to append. Resumed runs re-derive the same per-trace
//! seeds for the missing indices, so the merged result is byte-identical
//! to an uninterrupted run. A fresh header is installed atomically
//! (temp file + rename) so a crash mid-reset cannot leave a half-header
//! that a later resume would misparse.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use leakage_core::ClassifiedTraces;

use crate::digest::Digest;
use crate::iofault::{FallibleWriter, WriteFaults};

/// File magic.
pub const MAGIC: [u8; 4] = *b"SCTR";
/// Checkpoint-file magic.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SCKP";
/// Current format version (shared by stores and checkpoints).
pub const VERSION: u16 = 2;

/// What protocol produced a store's records (decides how its `u16`
/// per-record labels and the `class_or_key` header field are read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Class-balanced leakage protocol; labels are class indices.
    Classified,
    /// CPA attack dataset; labels are plaintext nibbles.
    Cpa,
}

impl StoreKind {
    fn to_u16(self) -> u16 {
        match self {
            StoreKind::Classified => 0,
            StoreKind::Cpa => 1,
        }
    }

    fn from_u16(v: u16) -> Result<Self, StoreError> {
        match v {
            0 => Ok(StoreKind::Classified),
            1 => Ok(StoreKind::Cpa),
            other => Err(StoreError::Format(format!("unknown store kind {other}"))),
        }
    }
}

/// Everything the header records about an acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Protocol that produced the records.
    pub kind: StoreKind,
    /// Implementation (netlist) name, e.g. `"ISW"`.
    pub name: String,
    /// Campaign seed the schedule and noise were derived from.
    pub seed: u64,
    /// Device age in months (0.0 = fresh).
    pub age_months: f64,
    /// Digest of the full acquisition configuration (see `cache`).
    pub config_digest: u64,
    /// Number of classes (classified) or the secret key nibble (CPA).
    pub class_or_key: u16,
    /// Number of trace records.
    pub traces: u32,
    /// Samples per trace.
    pub samples: u32,
}

/// Reading or writing a store failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid `SCTR` store (or an unsupported version).
    Format(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            StoreError::Format(m) => write!(f, "trace store format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The `.tmp` sibling a file is staged to before an atomic rename.
fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Best-effort fsync of `path`'s parent directory, so the rename that
/// published `path` is itself durable. Failures are ignored: directory
/// fsync is a durability nicety, not a correctness requirement (a lost
/// rename degrades to a cache miss).
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Write `contents` to `path` atomically: stream to a `.tmp` sibling
/// through a [`FallibleWriter`], fsync, then rename over `path`. On any
/// failure the temp file is removed and the previous contents of `path`
/// (if any) survive untouched.
pub fn write_atomic_with(path: &Path, contents: &[u8], faults: WriteFaults) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = staging_path(path);
    let staged = (|| -> io::Result<()> {
        let mut out = FallibleWriter::new(File::create(&tmp)?, faults);
        out.write_all(contents)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// [`write_atomic_with`] without fault injection — the call every
/// report/CSV writer should use instead of truncate-in-place.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    write_atomic_with(path, contents, WriteFaults::none())
}

/// A writer that checksums as it streams records to a staged temp file;
/// [`StoreWriter::finish`] fsyncs and atomically renames it into place.
///
/// The record count promised in `meta.traces` is enforced on
/// [`StoreWriter::finish`]; a mismatch is a format error, the temp file
/// is removed, and the final path is never touched. Dropping an
/// unfinished writer also removes its temp file.
#[derive(Debug)]
pub struct StoreWriter {
    path: PathBuf,
    tmp: PathBuf,
    out: Option<BufWriter<FallibleWriter<File>>>,
    digest: Digest,
    meta: StoreMeta,
    written: u32,
}

impl StoreWriter {
    /// Create the staging file for `path` (and its parent directories)
    /// and write the checksummed header.
    pub fn create(path: &Path, meta: StoreMeta) -> Result<Self, StoreError> {
        Self::create_with(path, meta, WriteFaults::none())
    }

    /// [`StoreWriter::create`] with injected write faults (chaos tests).
    pub fn create_with(
        path: &Path,
        meta: StoreMeta,
        faults: WriteFaults,
    ) -> Result<Self, StoreError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = staging_path(path);
        let mut w = Self {
            path: path.to_path_buf(),
            out: Some(BufWriter::new(FallibleWriter::new(
                File::create(&tmp)?,
                faults,
            ))),
            tmp,
            digest: Digest::new(),
            meta: meta.clone(),
            written: 0,
        };
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&meta_bytes(&meta)?);
        let header_checksum = crate::digest::fnv1a(&header);
        header.extend_from_slice(&header_checksum.to_le_bytes());
        if let Err(e) = w.emit(&header) {
            w.discard();
            return Err(e);
        }
        Ok(w)
    }

    /// Append one labelled trace record with its own checksum.
    pub fn record(&mut self, label: u16, samples: &[f64]) -> Result<(), StoreError> {
        if samples.len() != self.meta.samples as usize {
            return Err(StoreError::Format(format!(
                "record has {} samples, header promises {}",
                samples.len(),
                self.meta.samples
            )));
        }
        if self.written == self.meta.traces {
            return Err(StoreError::Format(format!(
                "more than {} records written",
                self.meta.traces
            )));
        }
        let mut buf = Vec::with_capacity(2 + samples.len() * 8 + 8);
        buf.extend_from_slice(&label.to_le_bytes());
        for &s in samples {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let record_checksum = crate::digest::fnv1a(&buf);
        buf.extend_from_slice(&record_checksum.to_le_bytes());
        self.emit(&buf)?;
        self.written += 1;
        Ok(())
    }

    /// Write the trailing checksum, fsync the staged file, and atomically
    /// rename it into place. Consumes the writer; on any failure the
    /// temp file is removed and the final path is untouched.
    pub fn finish(mut self) -> Result<(), StoreError> {
        let result = self.finish_inner();
        if result.is_err() {
            self.discard();
        }
        result
    }

    fn finish_inner(&mut self) -> Result<(), StoreError> {
        if self.written != self.meta.traces {
            return Err(StoreError::Format(format!(
                "{} records written, header promises {}",
                self.written, self.meta.traces
            )));
        }
        let checksum = self.digest.finish();
        let mut out = self.out.take().expect("unfinished writer has a sink");
        out.write_all(&checksum.to_le_bytes())?;
        let inner = out
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        inner.get_ref().sync_all()?;
        drop(inner);
        std::fs::rename(&self.tmp, &self.path)?;
        sync_parent_dir(&self.path);
        Ok(())
    }

    fn discard(&mut self) {
        self.out = None;
        let _ = std::fs::remove_file(&self.tmp);
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.digest.bytes(bytes);
        self.out
            .as_mut()
            .expect("unfinished writer has a sink")
            .write_all(bytes)?;
        Ok(())
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        if self.out.is_some() {
            self.discard();
        }
    }
}

/// A chunked reader: the header is parsed (and checksum-verified)
/// eagerly, records stream on demand through one reusable buffer with
/// their per-record checksums verified as they pass.
#[derive(Debug)]
pub struct StoreReader {
    meta: StoreMeta,
    input: BufReader<File>,
    digest: Digest,
    record_buf: Vec<u8>,
}

impl StoreReader {
    /// Open a store and validate its magic, version, length, and header
    /// checksum.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut input = BufReader::new(File::open(path)?);
        let mut digest = Digest::new();
        // Verifying the header checksum here proves the metadata before
        // any buffer is sized from it: a corrupted trace or sample count
        // must produce a format error, not a multi-gigabyte allocation.
        let (meta, stored_header, expect_header) = read_header(&mut input, &mut digest)?;
        if stored_header != expect_header {
            return Err(StoreError::Format(format!(
                "header checksum mismatch: stored {stored_header:#018x}, \
                 computed {expect_header:#018x}"
            )));
        }

        let expected = expected_len(&meta);
        let actual = u128::from(input.get_ref().metadata()?.len());
        if actual != expected {
            return Err(StoreError::Format(format!(
                "store is {actual} bytes but its header implies {expected}"
            )));
        }

        let record_bytes = 2 + 8 * meta.samples as usize;
        Ok(Self {
            meta,
            input,
            digest,
            record_buf: vec![0u8; record_bytes],
        })
    }

    /// The parsed header.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Stream every record through `f` as `(label, samples)`, verifying
    /// each record's checksum as it passes and the trailing whole-file
    /// checksum at the end. The samples slice borrows the reader's
    /// internal buffer and is only valid for the duration of the call.
    pub fn for_each_record(
        mut self,
        mut f: impl FnMut(u16, &[f64]),
    ) -> Result<StoreMeta, StoreError> {
        let mut samples = vec![0.0f64; self.meta.samples as usize];
        let mut tail = [0u8; 8];
        for index in 0..self.meta.traces {
            read_exact_or(
                &mut self.input,
                &mut self.record_buf,
                "store truncated mid-record",
            )?;
            self.digest.bytes(&self.record_buf);
            let expect = crate::digest::fnv1a(&self.record_buf);
            read_exact_or(&mut self.input, &mut tail, "store truncated mid-record")?;
            self.digest.bytes(&tail);
            let stored = u64::from_le_bytes(tail);
            if stored != expect {
                return Err(StoreError::Format(format!(
                    "record {index} checksum mismatch: stored {stored:#018x}, \
                     computed {expect:#018x}"
                )));
            }
            let label = u16::from_le_bytes([self.record_buf[0], self.record_buf[1]]);
            for (slot, chunk) in samples.iter_mut().zip(self.record_buf[2..].chunks_exact(8)) {
                *slot = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            f(label, &samples);
        }
        let expect = self.digest.finish();
        read_exact_or(
            &mut self.input,
            &mut tail,
            "store truncated before checksum",
        )?;
        let stored = u64::from_le_bytes(tail);
        if stored != expect {
            return Err(StoreError::Format(format!(
                "checksum mismatch: stored {stored:#018x}, computed {expect:#018x}"
            )));
        }
        Ok(self.meta)
    }

    /// Read a classified store back into a [`ClassifiedTraces`] set
    /// (records keep their acquisition order).
    ///
    /// # Panics
    ///
    /// Panics if the store's kind is not [`StoreKind::Classified`].
    pub fn read_classified(self) -> Result<ClassifiedTraces, StoreError> {
        assert_eq!(
            self.meta.kind,
            StoreKind::Classified,
            "not a classified store"
        );
        let num_classes = usize::from(self.meta.class_or_key);
        let mut set = ClassifiedTraces::new(num_classes, self.meta.samples as usize);
        let mut bad_label = None;
        self.for_each_record(|label, samples| {
            if usize::from(label) < num_classes {
                set.push(usize::from(label), samples.to_vec());
            } else {
                bad_label.get_or_insert(label);
            }
        })?;
        if let Some(label) = bad_label {
            return Err(StoreError::Format(format!(
                "class label {label} out of range (< {num_classes})"
            )));
        }
        Ok(set)
    }
}

/// The exact byte length a well-formed store with header `meta` has.
fn expected_len(meta: &StoreMeta) -> u128 {
    44u128
        + meta.name.len() as u128
        + 8
        + u128::from(meta.traces) * (2 + 8 * u128::from(meta.samples) + 8)
        + 8
}

/// `read_exact`, reporting a short read as a [`StoreError::Format`]
/// carrying `truncated`.
fn read_exact_or(input: &mut impl Read, buf: &mut [u8], truncated: &str) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Format(truncated.into())
        } else {
            StoreError::Io(e)
        }
    })
}

fn read_array<const N: usize>(
    input: &mut impl Read,
    digest: &mut Digest,
) -> Result<[u8; N], StoreError> {
    let mut buf = [0u8; N];
    read_exact_or(input, &mut buf, "store truncated mid-header")?;
    digest.bytes(&buf);
    Ok(buf)
}

/// Read a store's magic, version, header fields and header checksum,
/// absorbing every byte into `digest`. Returns the parsed header, the
/// stored header checksum and the checksum computed over the header
/// bytes; the caller decides what a mismatch means.
fn read_header(
    input: &mut impl Read,
    digest: &mut Digest,
) -> Result<(StoreMeta, u64, u64), StoreError> {
    let magic = read_array::<4>(input, digest)?;
    if magic != MAGIC {
        return Err(StoreError::Format(format!(
            "bad magic {magic:02x?} (not an SCTR trace store)"
        )));
    }
    let version = u16::from_le_bytes(read_array(input, digest)?);
    if version != VERSION {
        return Err(StoreError::Format(format!(
            "unsupported store version {version} (this reader understands {VERSION})"
        )));
    }
    let meta = parse_meta(input, digest)?;
    // The running digest has absorbed exactly the header bytes, so its
    // state *is* the expected header checksum.
    let computed = digest.finish();
    let stored = u64::from_le_bytes(read_array(input, digest)?);
    Ok((meta, stored, computed))
}

/// The header fields after magic+version, in wire order.
fn meta_bytes(meta: &StoreMeta) -> Result<Vec<u8>, StoreError> {
    let name = meta.name.as_bytes();
    if name.len() > usize::from(u16::MAX) {
        return Err(StoreError::Format("implementation name too long".into()));
    }
    let mut buf = Vec::with_capacity(38 + name.len());
    buf.extend_from_slice(&meta.kind.to_u16().to_le_bytes());
    buf.extend_from_slice(&meta.class_or_key.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&meta.seed.to_le_bytes());
    buf.extend_from_slice(&meta.age_months.to_le_bytes());
    buf.extend_from_slice(&meta.config_digest.to_le_bytes());
    buf.extend_from_slice(&meta.traces.to_le_bytes());
    buf.extend_from_slice(&meta.samples.to_le_bytes());
    Ok(buf)
}

/// Parse the header fields after magic+version, absorbing them into
/// `digest` exactly as [`meta_bytes`] emitted them.
fn parse_meta(input: &mut impl Read, digest: &mut Digest) -> Result<StoreMeta, StoreError> {
    let kind = StoreKind::from_u16(u16::from_le_bytes(read_array(input, digest)?))?;
    let class_or_key = u16::from_le_bytes(read_array(input, digest)?);
    let name_len = u16::from_le_bytes(read_array(input, digest)?);
    let mut name_bytes = vec![0u8; usize::from(name_len)];
    read_exact_or(input, &mut name_bytes, "store truncated mid-header")?;
    digest.bytes(&name_bytes);
    let name = String::from_utf8(name_bytes)
        .map_err(|_| StoreError::Format("implementation name is not UTF-8".into()))?;
    let seed = u64::from_le_bytes(read_array(input, digest)?);
    let age_months = f64::from_le_bytes(read_array(input, digest)?);
    let config_digest = u64::from_le_bytes(read_array(input, digest)?);
    let traces = u32::from_le_bytes(read_array(input, digest)?);
    let samples = u32::from_le_bytes(read_array(input, digest)?);
    Ok(StoreMeta {
        kind,
        name,
        seed,
        age_months,
        config_digest,
        class_or_key,
        traces,
        samples,
    })
}

/// What a tolerant scan of a damaged store recovered (see
/// [`salvage_store`]).
#[derive(Debug)]
pub struct StoreSalvage {
    /// The parsed, checksum-verified header.
    pub meta: StoreMeta,
    /// Records whose per-record checksum verified: `(index, label,
    /// samples)`, in file order.
    pub clean: CheckpointRecords,
    /// Indices of records whose checksum failed (bit rot).
    pub corrupt: Vec<u32>,
    /// Number of records lost to a truncated tail.
    pub torn: u32,
}

impl StoreSalvage {
    /// Whether every promised record survived intact (damage, if any,
    /// is confined to the trailing whole-file checksum).
    pub fn is_intact(&self) -> bool {
        self.corrupt.is_empty() && self.torn == 0 && self.clean.len() == self.meta.traces as usize
    }
}

/// Tolerantly scan a (possibly damaged) store, classifying each record
/// slot as clean, corrupt, or torn. Because records are fixed-length
/// once the header is known, damage is localized: a flipped byte loses
/// one record, a truncated tail loses only the records past the tear.
///
/// Returns `Err` only when the file cannot be salvaged at all: missing,
/// wrong magic/version, or a header whose own checksum fails (without a
/// trusted header there is no record geometry to scan).
pub fn salvage_store(path: &Path) -> Result<StoreSalvage, StoreError> {
    let mut input = BufReader::new(File::open(path)?);
    let (meta, stored_header, expect_header) = read_header(&mut input, &mut Digest::new())?;
    if stored_header != expect_header {
        return Err(StoreError::Format(
            "header checksum mismatch: nothing to trust, store is unsalvageable".into(),
        ));
    }

    let record_bytes = 2 + 8 * meta.samples as usize;
    let mut buf = vec![0u8; record_bytes];
    let mut tail = [0u8; 8];
    let mut clean = Vec::new();
    let mut corrupt = Vec::new();
    let mut torn = 0u32;
    for index in 0..meta.traces {
        if input.read_exact(&mut buf).is_err() || input.read_exact(&mut tail).is_err() {
            torn = meta.traces - index;
            break;
        }
        if crate::digest::fnv1a(&buf) != u64::from_le_bytes(tail) {
            corrupt.push(index);
            continue;
        }
        let label = u16::from_le_bytes([buf[0], buf[1]]);
        let samples: Vec<f64> = buf[2..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte sample")))
            .collect();
        clean.push((index, label, samples));
    }
    Ok(StoreSalvage {
        meta,
        clean,
        corrupt,
        torn,
    })
}

/// Salvaged checkpoint records: `(schedule index, label, samples)`.
pub type CheckpointRecords = Vec<(u32, u16, Vec<f64>)>;

/// An appending writer of `SCKP` checkpoint frames. Obtain one via
/// [`resume_checkpoint`]; call [`CheckpointWriter::sync`] at whatever
/// durability cadence the campaign wants.
#[derive(Debug)]
pub struct CheckpointWriter {
    out: BufWriter<FallibleWriter<File>>,
    samples: usize,
    traces: u32,
}

impl CheckpointWriter {
    /// Append one completed trace as a self-checksummed frame.
    pub fn record(&mut self, index: u32, label: u16, samples: &[f64]) -> Result<(), StoreError> {
        if samples.len() != self.samples {
            return Err(StoreError::Format(format!(
                "checkpoint frame has {} samples, header promises {}",
                samples.len(),
                self.samples
            )));
        }
        if index >= self.traces {
            return Err(StoreError::Format(format!(
                "checkpoint frame index {index} out of range (< {})",
                self.traces
            )));
        }
        let mut frame = Vec::with_capacity(6 + samples.len() * 8);
        frame.extend_from_slice(&index.to_le_bytes());
        frame.extend_from_slice(&label.to_le_bytes());
        for &s in samples {
            frame.extend_from_slice(&s.to_le_bytes());
        }
        let checksum = crate::digest::fnv1a(&frame);
        self.out.write_all(&frame)?;
        self.out.write_all(&checksum.to_le_bytes())?;
        Ok(())
    }

    /// Flush buffered frames and push them to the device, so a kill
    /// after this call loses nothing written before it.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        self.out.get_ref().get_ref().sync_data()?;
        Ok(())
    }
}

/// Open (or create) the checkpoint at `path` for the acquisition
/// described by `expect`.
///
/// Returns every intact frame already on disk plus a writer positioned
/// to append after them. Degradation rules:
///
/// * missing file → empty records, fresh header (installed atomically
///   via a temp file + rename, so a crash mid-reset cannot fake a
///   half-header);
/// * unreadable/mismatched header (a different run's checkpoint, a
///   corrupt byte, an unknown version) → the file is reset to a fresh
///   header and zero records — never trusted, never fatal;
/// * a corrupt frame **anywhere** → frames are fixed-length, so salvage
///   resyncs at the next frame boundary and loses only the damaged
///   frame, not its suffix;
/// * a torn tail → truncated back to the last intact frame, appending
///   resumes from there.
///
/// Only a real I/O error (permissions, disk) is returned as `Err`; the
/// caller then runs without checkpointing.
pub fn resume_checkpoint(
    path: &Path,
    expect: &StoreMeta,
) -> Result<(CheckpointRecords, CheckpointWriter), StoreError> {
    resume_checkpoint_with(path, expect, WriteFaults::none())
}

/// [`resume_checkpoint`] with injected write faults (chaos tests).
pub fn resume_checkpoint_with(
    path: &Path,
    expect: &StoreMeta,
    faults: WriteFaults,
) -> Result<(CheckpointRecords, CheckpointWriter), StoreError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let header = checkpoint_header(expect)?;
    let frame_len = 4 + 2 + 8 * expect.samples as usize + 8;

    let (records, valid_len) = match File::open(path) {
        Ok(f) => salvage_frames(BufReader::new(f), &header, expect, frame_len),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), 0),
        Err(e) => return Err(StoreError::Io(e)),
    };

    let writer = |file: File| CheckpointWriter {
        out: BufWriter::new(FallibleWriter::new(file, faults)),
        samples: expect.samples as usize,
        traces: expect.traces,
    };

    if valid_len == 0 {
        // No trusted prefix: install a fresh header atomically, then
        // append to the published file.
        write_atomic_with(path, &header, faults)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok((records, writer(file)))
    } else {
        // Trim any torn tail (or trailing corrupt frame) back to the
        // last intact frame and append after it.
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok((records, writer(file)))
    }
}

/// The full `SCKP` header (magic, version, meta fields, header FNV).
fn checkpoint_header(meta: &StoreMeta) -> Result<Vec<u8>, StoreError> {
    let mut header = Vec::new();
    header.extend_from_slice(&CHECKPOINT_MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&meta_bytes(meta)?);
    let checksum = crate::digest::fnv1a(&header);
    header.extend_from_slice(&checksum.to_le_bytes());
    Ok(header)
}

/// Read everything trustworthy out of an existing checkpoint: if the
/// header matches `expect` byte for byte, every frame whose checksum
/// verifies. Frames are fixed-length, so a corrupt frame is *skipped*
/// and scanning resyncs at the next boundary — damage anywhere loses
/// only the damaged frame. Returns the records and the byte length of
/// the file up to its last intact frame (0 = header unusable, start
/// over); anything past that length (a torn tail) is untrusted.
fn salvage_frames(
    mut input: BufReader<File>,
    header: &[u8],
    expect: &StoreMeta,
    frame_len: usize,
) -> (CheckpointRecords, u64) {
    let mut on_disk = vec![0u8; header.len()];
    if input.read_exact(&mut on_disk).is_err() || on_disk != header {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut valid_len = header.len() as u64;
    let mut offset = header.len() as u64;
    let mut frame = vec![0u8; frame_len];
    loop {
        if input.read_exact(&mut frame).is_err() {
            break; // EOF or torn tail: everything salvaged so far stands.
        }
        offset += frame_len as u64;
        let body = &frame[..frame_len - 8];
        let stored = u64::from_le_bytes(frame[frame_len - 8..].try_into().expect("8-byte tail"));
        if crate::digest::fnv1a(body) != stored {
            continue; // corrupt frame: skip it, resync at the next boundary.
        }
        let index = u32::from_le_bytes(body[..4].try_into().expect("4-byte index"));
        if index >= expect.traces {
            continue; // checksummed but nonsensical: treat like corruption.
        }
        let label = u16::from_le_bytes(body[4..6].try_into().expect("2-byte label"));
        let samples: Vec<f64> = body[6..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte sample")))
            .collect();
        records.push((index, label, samples));
        valid_len = offset;
    }
    (records, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(traces: u32, samples: u32) -> StoreMeta {
        StoreMeta {
            kind: StoreKind::Classified,
            name: "TESTIMPL".into(),
            seed: 0xD47E_2022,
            age_months: 12.0,
            config_digest: 0xABCD_EF01_2345_6789,
            class_or_key: 16,
            traces,
            samples,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sctr-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_meta_and_records() {
        let path = tmp("roundtrip.sctr");
        let m = meta(3, 4);
        let records: Vec<(u16, Vec<f64>)> = vec![
            (0, vec![1.0, -2.5, 3.25, 0.0]),
            (7, vec![f64::MIN_POSITIVE, 1e300, -0.0, 42.0]),
            (15, vec![0.125, 0.25, 0.5, 1.0]),
        ];
        let mut w = StoreWriter::create(&path, m.clone()).expect("create");
        for (label, samples) in &records {
            w.record(*label, samples).expect("record");
        }
        w.finish().expect("finish");

        let r = StoreReader::open(&path).expect("open");
        assert_eq!(r.meta(), &m);
        let mut back = Vec::new();
        r.for_each_record(|label, samples| back.push((label, samples.to_vec())))
            .expect("read");
        assert_eq!(back, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stores_are_published_atomically() {
        let path = tmp("atomic.sctr");
        let _ = std::fs::remove_file(&path);
        let mut w = StoreWriter::create(&path, meta(1, 2)).expect("create");
        w.record(0, &[1.0, 2.0]).expect("record");
        assert!(
            !path.exists(),
            "final path must not exist before finish (bytes stage to .tmp)"
        );
        assert!(
            staging_path(&path).exists(),
            "staging file carries the bytes"
        );
        w.finish().expect("finish");
        assert!(path.exists(), "finish publishes the store");
        assert!(
            !staging_path(&path).exists(),
            "staging file is renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropped_writer_leaves_no_debris() {
        let path = tmp("drop.sctr");
        let _ = std::fs::remove_file(&path);
        let mut w = StoreWriter::create(&path, meta(2, 1)).expect("create");
        w.record(0, &[1.0]).expect("record");
        drop(w);
        assert!(!path.exists());
        assert!(!staging_path(&path).exists(), "drop removes the temp file");
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt.sctr");
        let mut w = StoreWriter::create(&path, meta(1, 2)).expect("create");
        w.record(3, &[1.0, 2.0]).expect("record");
        w.finish().expect("finish");
        // Flip one payload byte inside the record.
        let mut bytes = std::fs::read(&path).expect("read");
        let idx = bytes.len() - 20; // inside the last record's samples
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let err = StoreReader::open(&path)
            .expect("open")
            .for_each_record(|_, _| {})
            .expect_err("checksum must fail");
        assert!(matches!(err, StoreError::Format(m) if m.contains("checksum")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn per_record_checksums_name_the_damaged_record() {
        let path = tmp("record-checksum.sctr");
        let m = meta(3, 2);
        let mut w = StoreWriter::create(&path, m.clone()).expect("create");
        for i in 0..3u16 {
            w.record(i, &[f64::from(i), -f64::from(i)]).expect("record");
        }
        w.finish().expect("finish");
        // Flip a byte in the middle record's payload.
        let header_len = 44 + m.name.len() + 8;
        let record_len = 2 + 8 * m.samples as usize + 8;
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[header_len + record_len + 5] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let mut seen = 0usize;
        let err = StoreReader::open(&path)
            .expect("open")
            .for_each_record(|_, _| seen += 1)
            .expect_err("record checksum must fail");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("record 1 checksum")),
            "{err}"
        );
        assert_eq!(seen, 1, "damage stops the stream at the bad record");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_corruption_is_its_own_checksum_failure() {
        let path = tmp("header-checksum.sctr");
        let mut w = StoreWriter::create(&path, meta(1, 2)).expect("create");
        w.record(0, &[1.0, 2.0]).expect("record");
        w.finish().expect("finish");
        // Flip a bit inside the stored seed (byte 20 of the header for
        // an 8-byte name).
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[21] ^= 0x04;
        std::fs::write(&path, &bytes).expect("write");
        let err = StoreReader::open(&path).expect_err("header checksum must fail");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("header checksum")),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_detected() {
        let path = tmp("truncated.sctr");
        let mut w = StoreWriter::create(&path, meta(2, 2)).expect("create");
        w.record(0, &[1.0, 2.0]).expect("record");
        w.record(1, &[3.0, 4.0]).expect("record");
        w.finish().expect("finish");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("write");
        // The length sanity check refuses the file before any record is
        // parsed (or any buffer sized from its header).
        let err = StoreReader::open(&path).expect_err("truncation must fail");
        assert!(matches!(err, StoreError::Format(m) if m.contains("header implies")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_and_version_are_refused() {
        let path = tmp("magic.sctr");
        std::fs::write(&path, b"NOPE0000000000000000").expect("write");
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::Format(m)) if m.contains("magic")
        ));
        // Valid magic, future version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::Format(m)) if m.contains("version")
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_enforces_promised_record_count() {
        let path = tmp("count.sctr");
        let mut w = StoreWriter::create(&path, meta(2, 1)).expect("create");
        w.record(0, &[1.0]).expect("record");
        assert!(w.finish().is_err(), "missing record must fail finish");
        assert!(!path.exists(), "no store is published");
        assert!(!staging_path(&path).exists(), "temp file is removed");

        let mut w = StoreWriter::create(&path, meta(1, 1)).expect("create");
        w.record(0, &[1.0]).expect("record");
        assert!(w.record(1, &[2.0]).is_err(), "extra record must fail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_classifies_clean_corrupt_and_torn_records() {
        let path = tmp("salvage.sctr");
        let m = meta(4, 2);
        let mut w = StoreWriter::create(&path, m.clone()).expect("create");
        for i in 0..4u16 {
            w.record(i, &[f64::from(i) + 0.5, -f64::from(i)])
                .expect("record");
        }
        w.finish().expect("finish");

        let intact = salvage_store(&path).expect("salvage clean file");
        assert!(intact.is_intact());
        assert_eq!(intact.clean.len(), 4);

        // Corrupt record 1's payload and tear record 3 in half.
        let header_len = 44 + m.name.len() + 8;
        let record_len = 2 + 8 * m.samples as usize + 8;
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[header_len + record_len + 4] ^= 0x20;
        bytes.truncate(header_len + 3 * record_len + record_len / 2);
        std::fs::write(&path, &bytes).expect("write");

        let s = salvage_store(&path).expect("salvage damaged file");
        assert!(!s.is_intact());
        assert_eq!(s.meta, m);
        assert_eq!(
            s.clean.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![0, 2],
            "records 0 and 2 survive"
        );
        assert_eq!(s.clean[0].1, 0);
        assert_eq!(s.clean[1].2, vec![2.5, -2.0]);
        assert_eq!(s.corrupt, vec![1]);
        assert_eq!(s.torn, 1, "record 3 lost to the tear");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_refuses_a_store_with_a_damaged_header() {
        let path = tmp("salvage-header.sctr");
        let mut w = StoreWriter::create(&path, meta(1, 2)).expect("create");
        w.record(0, &[1.0, 2.0]).expect("record");
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[14] ^= 0x08; // inside the implementation name
        std::fs::write(&path, &bytes).expect("write");
        let err = salvage_store(&path).expect_err("untrusted header");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("unsalvageable")),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_round_trips_and_appends() {
        let path = tmp("ckpt-roundtrip.sckp");
        let _ = std::fs::remove_file(&path);
        let m = meta(8, 3);
        let (records, mut w) = resume_checkpoint(&path, &m).expect("fresh");
        assert!(records.is_empty());
        w.record(2, 7, &[1.0, 2.0, 3.0]).expect("r");
        w.record(5, 1, &[-4.0, 0.0, f64::MIN_POSITIVE]).expect("r");
        w.sync().expect("sync");
        drop(w);

        let (records, mut w) = resume_checkpoint(&path, &m).expect("resume");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], (2, 7, vec![1.0, 2.0, 3.0]));
        assert_eq!(records[1].0, 5);
        w.record(7, 0, &[9.0, 9.5, 10.0]).expect("append");
        w.sync().expect("sync");
        drop(w);
        let (records, _) = resume_checkpoint(&path, &m).expect("reread");
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![2, 5, 7]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_salvages_everything_before_a_torn_tail() {
        let path = tmp("ckpt-torn.sckp");
        let _ = std::fs::remove_file(&path);
        let m = meta(8, 2);
        let (_, mut w) = resume_checkpoint(&path, &m).expect("fresh");
        for i in 0..4u32 {
            w.record(i, i as u16, &[i as f64, -(i as f64)]).expect("r");
        }
        w.sync().expect("sync");
        drop(w);

        // Tear mid-way through the last frame.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 5]).expect("tear");
        let (records, mut w) = resume_checkpoint(&path, &m).expect("salvage");
        assert_eq!(records.len(), 3, "intact frames survive the tear");
        assert_eq!(records.last().expect("last").0, 2);

        // Appending after the tear must not resurrect the torn frame.
        w.record(6, 6, &[60.0, -60.0]).expect("append");
        w.sync().expect("sync");
        drop(w);
        let (records, _) = resume_checkpoint(&path, &m).expect("reread");
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 6]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_corrupt_frame_loses_only_itself() {
        let path = tmp("ckpt-corrupt.sckp");
        let _ = std::fs::remove_file(&path);
        let m = meta(8, 2);
        let (_, mut w) = resume_checkpoint(&path, &m).expect("fresh");
        for i in 0..3u32 {
            w.record(i, 0, &[1.0, 2.0]).expect("r");
        }
        w.sync().expect("sync");
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read");
        let frame_len = 4 + 2 + 16 + 8;
        let second_frame_start = bytes.len() - 2 * frame_len;
        bytes[second_frame_start + 7] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");
        let (records, mut w) = resume_checkpoint(&path, &m).expect("salvage");
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![0, 2],
            "fixed frame boundaries resync past the corrupt frame"
        );
        // The lost index can be re-captured and appended; a later resume
        // sees the union, with the corrupt slot still skipped.
        w.record(1, 0, &[1.0, 2.0]).expect("append");
        w.sync().expect("sync");
        drop(w);
        let (records, _) = resume_checkpoint(&path, &m).expect("reread");
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_for_a_different_run_is_reset_not_resumed() {
        let path = tmp("ckpt-mismatch.sckp");
        let _ = std::fs::remove_file(&path);
        let (_, mut w) = resume_checkpoint(&path, &meta(4, 2)).expect("fresh");
        w.record(0, 0, &[1.0, 2.0]).expect("r");
        w.sync().expect("sync");
        drop(w);

        // Same path, different seed: the old frames must not leak in.
        let mut other = meta(4, 2);
        other.seed ^= 1;
        let (records, _) = resume_checkpoint(&path, &other).expect("reset");
        assert!(records.is_empty(), "mismatched checkpoint must reset");
        let (records, _) = resume_checkpoint(&path, &other).expect("fresh again");
        assert!(records.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_writer_rejects_malformed_frames() {
        let path = tmp("ckpt-shape.sckp");
        let _ = std::fs::remove_file(&path);
        let (_, mut w) = resume_checkpoint(&path, &meta(4, 2)).expect("fresh");
        assert!(w.record(0, 0, &[1.0]).is_err(), "short frame");
        assert!(w.record(4, 0, &[1.0, 2.0]).is_err(), "index out of range");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_atomic_never_damages_the_previous_contents() {
        let path = tmp("atomic-report.txt");
        write_atomic(&path, b"good report").expect("first write");
        let err = write_atomic_with(
            &path,
            b"half-written replacement",
            WriteFaults::none().with_enospc_after(4),
        )
        .expect_err("injected ENOSPC");
        assert!(err.to_string().contains("ENOSPC"));
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"good report",
            "failed rewrite leaves the old contents intact"
        );
        assert!(!staging_path(&path).exists(), "temp file cleaned up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn classified_round_trip_preserves_order_and_classes() {
        let path = tmp("classified.sctr");
        let mut m = meta(4, 2);
        m.class_or_key = 4;
        let mut w = StoreWriter::create(&path, m).expect("create");
        for (label, v) in [(2u16, 1.0), (0, 2.0), (3, 3.0), (2, 4.0)] {
            w.record(label, &[v, v + 0.5]).expect("record");
        }
        w.finish().expect("finish");
        let set = StoreReader::open(&path)
            .expect("open")
            .read_classified()
            .expect("classified");
        assert_eq!(set.len(), 4);
        assert_eq!(set.class_counts(), vec![1, 0, 2, 1]);
        let order: Vec<usize> = set.iter().map(|(c, _)| c).collect();
        assert_eq!(order, vec![2, 0, 3, 2]);
        let _ = std::fs::remove_file(&path);
    }
}
