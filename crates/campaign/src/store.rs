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
//! The header fields are exactly a [`CampaignKey`]: a store is the trace
//! set of the key it is filed under, and a reader hands its header back
//! as that key.
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
//!   classifies records as clean / corrupt (bad checksum or a label
//!   the reader refuses) / torn (truncated tail), so a damaged store's
//!   next miss (or a scrub pass) re-captures only what was lost;
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
//! A frame is a store record with its schedule index in front: both
//! are written by one encoder, both headers by one builder, and the
//! reader, [`salvage_store`] and checkpoint salvage all walk them with
//! one fixed-length slot scan.
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
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use leakage_core::ClassifiedTraces;

use crate::cache::CampaignKey;
use crate::digest::{fnv1a, Digest};
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
    pub(crate) fn to_u16(self) -> u16 {
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

/// The full header of a store (`MAGIC`) or checkpoint
/// (`CHECKPOINT_MAGIC`): magic, version, `key`'s fields in wire order,
/// and the FNV-1a/64 of those bytes.
fn header(magic: [u8; 4], key: &CampaignKey) -> Result<Vec<u8>, StoreError> {
    let name = key.implementation.as_bytes();
    let name_len = u16::try_from(name.len())
        .map_err(|_| StoreError::Format("implementation name too long".into()))?;
    let mut h = Vec::with_capacity(52 + name.len());
    h.extend_from_slice(&magic);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&key.kind.to_u16().to_le_bytes());
    h.extend_from_slice(&key.class_or_key.to_le_bytes());
    h.extend_from_slice(&name_len.to_le_bytes());
    h.extend_from_slice(name);
    h.extend_from_slice(&key.seed.to_le_bytes());
    h.extend_from_slice(&key.age_months.to_le_bytes());
    h.extend_from_slice(&key.config_digest.to_le_bytes());
    h.extend_from_slice(&key.traces.to_le_bytes());
    h.extend_from_slice(&key.samples.to_le_bytes());
    let checksum = fnv1a(&h);
    h.extend_from_slice(&checksum.to_le_bytes());
    Ok(h)
}

/// The byte length of one slot: a store record (`indexed == false`) or
/// a checkpoint frame (`indexed == true`) of `samples` samples.
fn slot_len(indexed: bool, samples: u32) -> usize {
    4 * usize::from(indexed) + 2 + 8 * samples as usize + 8
}

/// Encode one slot into `buf` (cleared first): the checkpoint frame's
/// `index` (a store record has none), the label, the samples, and the
/// FNV-1a/64 of those bytes. The one encoder of both formats.
fn encode_slot(buf: &mut Vec<u8>, index: Option<u32>, label: u16, samples: &[f64]) {
    buf.clear();
    if let Some(index) = index {
        buf.extend_from_slice(&index.to_le_bytes());
    }
    buf.extend_from_slice(&label.to_le_bytes());
    for &s in samples {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    let checksum = fnv1a(buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// One slot whose checksum verified, decoded.
struct Slot<'a> {
    /// Schedule index: a frame's stored index, a record's position.
    index: u32,
    label: u16,
    samples: &'a [f64],
}

/// The one fixed-length slot scan of both formats: read up to `limit`
/// slots (see [`slot_len`]) from `input`, and hand each to `visit` with
/// its position, its raw bytes and, when its checksum verifies, its
/// decoded contents, until `visit` breaks off. Every slot passes
/// through one byte buffer and one sample buffer, which are sized only
/// once the file is known to hold a whole slot, so a header promising
/// absurd geometry costs nothing. An input that ends (or fails) before
/// the next whole slot is an error.
fn scan_slots<B>(
    input: &mut BufReader<File>,
    indexed: bool,
    samples: u32,
    limit: u64,
    mut visit: impl FnMut(u64, &[u8], Option<Slot<'_>>) -> ControlFlow<B>,
) -> io::Result<ControlFlow<B>> {
    let len = slot_len(indexed, samples);
    if limit == 0 {
        return Ok(ControlFlow::Continue(()));
    }
    let room = input
        .get_ref()
        .metadata()?
        .len()
        .saturating_sub(input.stream_position()?);
    if room < len as u64 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let head = 4 * usize::from(indexed);
    let mut bytes = vec![0u8; len];
    let mut values = vec![0.0f64; samples as usize];
    for pos in 0..limit {
        input.read_exact(&mut bytes)?;
        let (body, checksum) = bytes.split_at(len - 8);
        let slot = if fnv1a(body).to_le_bytes() == checksum {
            for (v, chunk) in values.iter_mut().zip(body[head + 2..].chunks_exact(8)) {
                *v = f64::from_le_bytes(chunk.try_into().expect("8-byte sample"));
            }
            Some(Slot {
                index: if indexed {
                    u32::from_le_bytes(body[..4].try_into().expect("4-byte index"))
                } else {
                    pos as u32
                },
                label: u16::from_le_bytes([body[head], body[head + 1]]),
                samples: &values,
            })
        } else {
            None
        };
        if let ControlFlow::Break(b) = visit(pos, &bytes, slot) {
            return Ok(ControlFlow::Break(b));
        }
    }
    Ok(ControlFlow::Continue(()))
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
    meta: CampaignKey,
    written: u32,
    /// The bytes of the header, then of each record in turn.
    buf: Vec<u8>,
}

impl StoreWriter {
    /// Create the staging file for `path` (and its parent directories)
    /// and write the checksummed header.
    pub fn create(path: &Path, meta: CampaignKey) -> Result<Self, StoreError> {
        Self::create_with(path, meta, WriteFaults::none())
    }

    /// [`StoreWriter::create`] with injected write faults (chaos tests).
    pub fn create_with(
        path: &Path,
        meta: CampaignKey,
        faults: WriteFaults,
    ) -> Result<Self, StoreError> {
        let buf = header(MAGIC, &meta)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = staging_path(path);
        let file = File::create(&tmp)?;
        let mut w = Self {
            path: path.to_path_buf(),
            tmp,
            out: Some(BufWriter::new(FallibleWriter::new(file, faults))),
            digest: Digest::new(),
            meta,
            written: 0,
            buf,
        };
        // A failed write drops `w`, which removes the temp file.
        w.emit()?;
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
        encode_slot(&mut self.buf, None, label, samples);
        self.emit()?;
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

    /// Checksum and write `buf`.
    fn emit(&mut self) -> Result<(), StoreError> {
        self.digest.bytes(&self.buf);
        self.out
            .as_mut()
            .expect("unfinished writer has a sink")
            .write_all(&self.buf)?;
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
    meta: CampaignKey,
    input: BufReader<File>,
    digest: Digest,
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

        let expected = 52
            + meta.implementation.len() as u128
            + u128::from(meta.traces) * slot_len(false, meta.samples) as u128
            + 8;
        let actual = u128::from(input.get_ref().metadata()?.len());
        if actual != expected {
            return Err(StoreError::Format(format!(
                "store is {actual} bytes but its header implies {expected}"
            )));
        }
        Ok(Self {
            meta,
            input,
            digest,
        })
    }

    /// The parsed header: the key this store was written for.
    pub fn meta(&self) -> &CampaignKey {
        &self.meta
    }

    /// Stream every record through `f` as `(label, samples)`, verifying
    /// each record's checksum as it passes and the trailing whole-file
    /// checksum at the end. A label outside the store's classes (a CPA
    /// store's: the 16 plaintext nibbles) is damage, like a failed
    /// checksum. The samples slice borrows the reader's internal buffer
    /// and is only valid for the duration of the call.
    pub fn for_each_record(
        mut self,
        mut f: impl FnMut(u16, &[f64]),
    ) -> Result<CampaignKey, StoreError> {
        let labels = labels(&self.meta);
        let (samples, traces) = (self.meta.samples, u64::from(self.meta.traces));
        let digest = &mut self.digest;
        let scan = scan_slots(
            &mut self.input,
            false,
            samples,
            traces,
            |index, bytes, slot| {
                digest.bytes(bytes);
                let damage = match slot {
                    Some(s) if s.label < labels => {
                        f(s.label, s.samples);
                        return ControlFlow::Continue(());
                    }
                    Some(s) => {
                        format!("record {index} label {} out of range (< {labels})", s.label)
                    }
                    None => format!("record {index} checksum mismatch"),
                };
                ControlFlow::Break(damage)
            },
        );
        let scan = scan.map_err(|e| truncated(e, "store truncated mid-record"))?;
        if let ControlFlow::Break(damage) = scan {
            return Err(StoreError::Format(damage));
        }
        let expect = self.digest.finish();
        let mut tail = [0u8; 8];
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
    /// (records keep their acquisition order). A store of another kind
    /// is a format error.
    pub fn read_classified(self) -> Result<ClassifiedTraces, StoreError> {
        if self.meta.kind != StoreKind::Classified {
            return Err(StoreError::Format("not a classified store".into()));
        }
        let classes = usize::from(self.meta.class_or_key);
        let mut set = ClassifiedTraces::new(classes, self.meta.samples as usize);
        self.for_each_record(|label, samples| set.push(usize::from(label), samples.to_vec()))?;
        Ok(set)
    }
}

/// The labels a store's records may carry: a classified store's
/// classes, or a CPA store's 16 plaintext nibbles.
fn labels(meta: &CampaignKey) -> u16 {
    match meta.kind {
        StoreKind::Classified => meta.class_or_key,
        StoreKind::Cpa => 16,
    }
}

/// A failed read as a [`StoreError`]: a short read is a
/// [`StoreError::Format`] carrying `message`.
fn truncated(e: io::Error, message: &str) -> StoreError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        StoreError::Format(message.into())
    } else {
        StoreError::Io(e)
    }
}

/// `read_exact`, reporting a short read as a [`StoreError::Format`]
/// carrying `message`.
fn read_exact_or(input: &mut impl Read, buf: &mut [u8], message: &str) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| truncated(e, message))
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
) -> Result<(CampaignKey, u64, u64), StoreError> {
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
    let kind = StoreKind::from_u16(u16::from_le_bytes(read_array(input, digest)?))?;
    let class_or_key = u16::from_le_bytes(read_array(input, digest)?);
    let name_len = u16::from_le_bytes(read_array(input, digest)?);
    let mut name = vec![0u8; usize::from(name_len)];
    read_exact_or(input, &mut name, "store truncated mid-header")?;
    digest.bytes(&name);
    let implementation = String::from_utf8(name)
        .map_err(|_| StoreError::Format("implementation name is not UTF-8".into()))?;
    let seed = u64::from_le_bytes(read_array(input, digest)?);
    let age_months = f64::from_le_bytes(read_array(input, digest)?);
    let config_digest = u64::from_le_bytes(read_array(input, digest)?);
    let traces = u32::from_le_bytes(read_array(input, digest)?);
    let samples = u32::from_le_bytes(read_array(input, digest)?);
    let key = CampaignKey {
        kind,
        implementation,
        seed,
        traces,
        samples,
        age_months,
        class_or_key,
        config_digest,
    };
    // The running digest has absorbed exactly the header bytes, so its
    // state *is* the expected header checksum.
    let computed = digest.finish();
    let stored = u64::from_le_bytes(read_array(input, digest)?);
    Ok((key, stored, computed))
}

/// What a tolerant scan of a damaged store recovered (see
/// [`salvage_store`]).
#[derive(Debug)]
pub struct StoreSalvage {
    /// The parsed, checksum-verified header.
    pub meta: CampaignKey,
    /// Records whose per-record checksum verified: `(index, label,
    /// samples)`, in file order.
    pub clean: CheckpointRecords,
    /// Indices of records whose checksum failed (bit rot) or whose
    /// checksummed label lies outside the store's classes.
    pub corrupt: Vec<u32>,
    /// Number of records lost to a truncated tail.
    pub torn: u32,
}

/// Tolerantly scan a (possibly damaged) store, classifying each record
/// slot as clean, corrupt, or torn. Because records are fixed-length
/// once the header is known, damage is localized: a flipped byte loses
/// one record, a truncated tail loses only the records past the tear.
/// A record is clean exactly when [`StoreReader::for_each_record`]
/// would accept it: its checksum verifies and its label is in range.
///
/// Returns `Err` only when the file cannot be salvaged at all: missing,
/// wrong magic/version, a header whose own checksum fails (without a
/// trusted header there is no record geometry to scan), or, with
/// `expect`, a verified header naming another key, which is refused
/// before any record is read.
pub fn salvage_store(
    path: &Path,
    expect: Option<&CampaignKey>,
) -> Result<StoreSalvage, StoreError> {
    let mut input = BufReader::new(File::open(path)?);
    let (meta, stored_header, expect_header) = read_header(&mut input, &mut Digest::new())?;
    if stored_header != expect_header {
        return Err(StoreError::Format(
            "header checksum mismatch: nothing to trust, store is unsalvageable".into(),
        ));
    }
    if expect.is_some_and(|key| *key != meta) {
        return Err(StoreError::Format("header belongs to another key".into()));
    }
    let (mut clean, mut corrupt) = (Vec::new(), Vec::new());
    let (traces, labels) = (u64::from(meta.traces), labels(&meta));
    let _ = scan_slots(&mut input, false, meta.samples, traces, |pos, _, slot| {
        match slot {
            Some(s) if s.label < labels => clean.push((s.index, s.label, s.samples.to_vec())),
            _ => corrupt.push(pos as u32),
        }
        ControlFlow::<()>::Continue(())
    });
    let torn = meta.traces - (clean.len() + corrupt.len()) as u32;
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
    /// The bytes of the frame being written.
    buf: Vec<u8>,
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
        encode_slot(&mut self.buf, Some(index), label, samples);
        self.out.write_all(&self.buf)?;
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
    expect: &CampaignKey,
) -> Result<(CheckpointRecords, CheckpointWriter), StoreError> {
    resume_checkpoint_with(path, expect, WriteFaults::none())
}

/// [`resume_checkpoint`] with injected write faults (chaos tests).
pub fn resume_checkpoint_with(
    path: &Path,
    expect: &CampaignKey,
    faults: WriteFaults,
) -> Result<(CheckpointRecords, CheckpointWriter), StoreError> {
    let header = header(CHECKPOINT_MAGIC, expect)?;
    let (records, valid_len) = match File::open(path) {
        Ok(f) => salvage_frames(BufReader::new(f), &header, expect),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), 0),
        Err(e) => return Err(StoreError::Io(e)),
    };

    let mut file = if valid_len == 0 {
        // No trusted prefix: install a fresh header atomically, then
        // append to the published file.
        write_atomic_with(path, &header, faults)?;
        OpenOptions::new().write(true).open(path)?
    } else {
        // Trim any torn tail (or trailing corrupt frame) back to the
        // last intact frame and append after it.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file
    };
    file.seek(SeekFrom::End(0))?;
    let writer = CheckpointWriter {
        out: BufWriter::new(FallibleWriter::new(file, faults)),
        samples: expect.samples as usize,
        traces: expect.traces,
        buf: Vec::new(),
    };
    Ok((records, writer))
}

/// Read everything trustworthy out of an existing checkpoint: if the
/// header matches `header` byte for byte, every frame whose checksum
/// verifies. Frames are fixed-length, so a corrupt frame is *skipped*
/// and scanning resyncs at the next boundary — damage anywhere loses
/// only the damaged frame. Returns the records and the byte length of
/// the file up to its last intact frame (0 = header unusable, start
/// over); anything past that length (a torn tail) is untrusted.
fn salvage_frames(
    mut input: BufReader<File>,
    header: &[u8],
    expect: &CampaignKey,
) -> (CheckpointRecords, u64) {
    let mut on_disk = vec![0u8; header.len()];
    if input.read_exact(&mut on_disk).is_err() || on_disk != header {
        return (Vec::new(), 0);
    }
    let frame_len = slot_len(true, expect.samples) as u64;
    let mut records = Vec::new();
    let mut valid_len = header.len() as u64;
    // A corrupt frame is skipped, and so is a checksummed one naming an
    // index outside the schedule; the scan ends at EOF or a torn tail.
    let _ = scan_slots(
        &mut input,
        true,
        expect.samples,
        u64::MAX,
        |pos, _, slot| {
            if let Some(s) = slot.filter(|s| s.index < expect.traces) {
                records.push((s.index, s.label, s.samples.to_vec()));
                valid_len = header.len() as u64 + (pos + 1) * frame_len;
            }
            ControlFlow::<()>::Continue(())
        },
    );
    (records, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(traces: u32, samples: u32) -> CampaignKey {
        CampaignKey {
            kind: StoreKind::Classified,
            implementation: "TESTIMPL".into(),
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
        let header_len = 44 + m.implementation.len() + 8;
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

        let intact = salvage_store(&path, Some(&m)).expect("salvage clean file");
        assert_eq!(
            (intact.clean.len(), intact.corrupt.len(), intact.torn),
            (4, 0, 0)
        );
        let other = CampaignKey {
            seed: 1,
            ..m.clone()
        };
        let err = salvage_store(&path, Some(&other)).expect_err("another key's store");
        assert!(matches!(&err, StoreError::Format(msg) if msg.contains("another key")));

        // Corrupt record 1's payload and tear record 3 in half.
        let header_len = 44 + m.implementation.len() + 8;
        let record_len = 2 + 8 * m.samples as usize + 8;
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[header_len + record_len + 4] ^= 0x20;
        bytes.truncate(header_len + 3 * record_len + record_len / 2);
        std::fs::write(&path, &bytes).expect("write");

        let s = salvage_store(&path, None).expect("salvage damaged file");
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
        let err = salvage_store(&path, None).expect_err("untrusted header");
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
    fn a_checksummed_label_outside_the_classes_is_damage() {
        let path = tmp("bad-label.sctr");
        let mut w = StoreWriter::create(&path, meta(2, 2)).expect("create");
        w.record(15, &[1.0, 2.0]).expect("record");
        w.record(16, &[3.0, 4.0]).expect("record");
        w.finish().expect("finish");
        let mut seen = 0;
        let err = StoreReader::open(&path)
            .expect("open")
            .for_each_record(|_, _| seen += 1)
            .expect_err("label 16 of 16 classes");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("record 1 label 16 out of range")),
            "{err}"
        );
        assert_eq!(seen, 1);
        // Salvage agrees with the reader: the record it rejects is damage.
        let s = salvage_store(&path, None).expect("salvage");
        assert_eq!((s.clean.len(), s.corrupt.clone(), s.torn), (1, vec![1], 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reading_a_cpa_store_as_classified_is_a_format_error() {
        let path = tmp("cpa-as-classified.sctr");
        let mut m = meta(1, 2);
        m.kind = StoreKind::Cpa;
        m.class_or_key = 0xB;
        let mut w = StoreWriter::create(&path, m).expect("create");
        w.record(3, &[1.0, 2.0]).expect("record");
        w.finish().expect("finish");
        let err = StoreReader::open(&path)
            .expect("open")
            .read_classified()
            .expect_err("a CPA store is not a classified set");
        assert!(
            matches!(&err, StoreError::Format(m) if m == "not a classified store"),
            "{err}"
        );
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
