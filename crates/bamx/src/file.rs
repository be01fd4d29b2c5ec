//! BAMX shard files: fixed-width records with O(1) random access, plus the
//! optionally BGZF-compressed body (the paper's future-work item).
//!
//! Reading goes through the [`ReadAt`] abstraction so shards can be served
//! from files, in-memory buffers, or fault-injecting wrappers (`ngs-fault`).
//! Every malformation of untrusted shard bytes surfaces as a structured
//! [`Error::Decode`] — never a panic, never an attacker-sized allocation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ngs_bgzf::ReadAt;
use ngs_formats::bam::{decode_header, encode_header};
use ngs_formats::error::{DecodeErrorKind, Error, Result};
use ngs_formats::fields::{FieldsScratch, RecordFields, RefIds};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;

use crate::baix::Baix;
use crate::column::ColumnSet;
use crate::layout::BamxLayout;
use crate::layout_v2::{BlockBuilder, BlockEntry, V2Reader, V2Writer, DEFAULT_RECORDS_PER_BLOCK, MAGIC_V2};
use crate::record_codec;

/// BAMX file magic.
pub const MAGIC: [u8; 5] = *b"BAMX\x01";

/// Body compression of a BAMX shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BamxCompression {
    /// Raw fixed-width records; random access is a single `pread`.
    Plain,
    /// BGZF-compressed body with whole records per block; random access
    /// decompresses one 64 KiB block.
    Bgzf,
}

impl BamxCompression {
    fn to_byte(self) -> u8 {
        match self {
            BamxCompression::Plain => 0,
            BamxCompression::Bgzf => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        match b {
            0 => Ok(BamxCompression::Plain),
            1 => Ok(BamxCompression::Bgzf),
            other => Err(Error::InvalidRecord(format!("unknown BAMX compression {other}"))),
        }
    }
}

/// Streaming BAMX writer. The caller must provide the layout up front
/// (compute it with a first pass, or merge per-rank layouts).
pub struct BamxWriter<W: Write> {
    sink: Sink<W>,
    refs: RefIds,
    fields: FieldsScratch,
    layout: BamxLayout,
    /// [`position_key`] of every record written, in shard order — what
    /// [`BamxWriter::finish_indexed`] turns into the BAIX.
    keys: Vec<u64>,
    scratch: Vec<u8>,
}

enum Sink<W: Write> {
    Plain(W),
    Bgzf { inner: ngs_bgzf::BgzfWriter<W>, records_per_block: usize, in_block: usize },
}

impl<W: Write> Sink<W> {
    /// Writes whole encoded records of `record_size` bytes each.
    fn put(&mut self, records: &[u8], record_size: usize) -> Result<()> {
        match self {
            Sink::Plain(w) => w.write_all(records)?,
            Sink::Bgzf { inner, records_per_block, in_block } => {
                for record in records.chunks(record_size) {
                    inner.write_all(record)?;
                    *in_block += 1;
                    if *in_block == *records_per_block {
                        // Force a block boundary so every block holds whole
                        // records and block index arithmetic stays trivial.
                        inner.flush()?;
                        *in_block = 0;
                    }
                }
            }
        }
        Ok(())
    }
}

impl BamxWriter<BufWriter<File>> {
    /// Creates a BAMX file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        header: SamHeader,
        layout: BamxLayout,
        compression: BamxCompression,
    ) -> Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        Self::new(file, header, layout, compression)
    }
}

impl<W: Write> BamxWriter<W> {
    /// Wraps an arbitrary sink.
    pub fn new(
        mut inner: W,
        header: SamHeader,
        layout: BamxLayout,
        compression: BamxCompression,
    ) -> Result<Self> {
        let mut prologue = Vec::new();
        encode_header(&header, &mut prologue);

        inner.write_all(&MAGIC)?;
        inner.write_all(&[compression.to_byte()])?;
        inner.write_all(&(prologue.len() as u32).to_le_bytes())?;
        inner.write_all(&prologue)?;
        inner.write_all(&layout.encode())?;
        // n_records is unknown while streaming; written as a trailer by
        // finish() for plain files and carried in the trailer for BGZF too.
        let sink = match compression {
            BamxCompression::Plain => Sink::Plain(inner),
            BamxCompression::Bgzf => {
                if layout.record_size() > ngs_bgzf::block::MAX_PAYLOAD {
                    return Err(Error::InvalidRecord(
                        "record size exceeds one BGZF block; use BamxCompression::Plain".into(),
                    ));
                }
                let rp = ngs_bgzf::block::MAX_PAYLOAD / layout.record_size();
                Sink::Bgzf { inner: ngs_bgzf::BgzfWriter::new(inner), records_per_block: rp, in_block: 0 }
            }
        };
        Ok(BamxWriter {
            sink,
            refs: RefIds::new(&header),
            fields: FieldsScratch::default(),
            layout,
            keys: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// The layout this writer pads to.
    pub fn layout(&self) -> &BamxLayout {
        &self.layout
    }

    /// Appends one owned record: [`Self::write_fields`] over
    /// [`RecordFields::from_record`].
    pub fn write_record(&mut self, record: &AlignmentRecord) -> Result<()> {
        let mut fields = std::mem::take(&mut self.fields);
        let written = RecordFields::from_record(record, &self.refs, &mut fields)
            .and_then(|f| self.write_fields(&f));
        self.fields = fields;
        written
    }

    /// Appends one record.
    pub fn write_fields(&mut self, fields: &RecordFields<'_>) -> Result<()> {
        self.scratch.clear();
        let key = record_codec::encode_fields(fields, &self.layout, &mut self.scratch)?;
        self.sink.put(&self.scratch, self.layout.record_size())?;
        self.keys.push(key);
        Ok(())
    }

    /// Appends records encoded elsewhere by [`record_codec::encode_fields`]
    /// under this writer's layout, with their position keys.
    fn append_records(&mut self, records: &[u8], keys: &[u64]) -> Result<()> {
        if records.len() != keys.len() * self.layout.record_size() {
            return Err(Error::InvalidRecord("encoded v1 records do not match their keys".into()));
        }
        self.sink.put(records, self.layout.record_size())?;
        self.keys.extend_from_slice(keys);
        Ok(())
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Finalizes the file (appends the record-count trailer) and returns
    /// the sink.
    pub fn finish(self) -> Result<W> {
        Ok(self.finish_indexed()?.0)
    }

    /// [`BamxWriter::finish`], also handing back the shard's BAIX built
    /// from the positions seen while writing — equal to
    /// [`Baix::build`] over the finished file, without reopening it.
    pub fn finish_indexed(self) -> Result<(W, Baix)> {
        let mut inner = match self.sink {
            Sink::Plain(w) => w,
            Sink::Bgzf { inner, .. } => inner.finish()?,
        };
        inner.write_all(&(self.keys.len() as u64).to_le_bytes())?;
        inner.flush()?;
        Ok((inner, Baix::from_position_keys(self.keys)))
    }
}

/// The v1 fixed-width reader. Wrapped by the version-dispatching
/// [`BamxFile`]; not addressable outside the crate.
pub(crate) struct V1Reader {
    source: Box<dyn ReadAt>,
    /// Shard identity carried into every decode error.
    context: String,
    header: SamHeader,
    layout: BamxLayout,
    compression: BamxCompression,
    /// Offset of the first body byte.
    body_offset: u64,
    n_records: u64,
    /// For BGZF bodies: compressed offset of each block + records/block.
    block_offsets: Vec<u64>,
    records_per_block: usize,
}

impl V1Reader {
    /// Opens a v1 BAMX shard over an arbitrary positional-read source.
    /// `context` names the shard in decode errors (usually its path).
    pub(crate) fn open_with(source: Box<dyn ReadAt>, context: impl Into<String>) -> Result<Self> {
        let context = context.into();
        let bad = |kind, offset, detail: String| Error::decode(kind, offset, &context, detail);

        let total_len = source.len()?;
        // Fixed framing: magic(5) + compression(1) + prologue_len(4) +
        // layout(12) + trailer(8). Anything shorter cannot be a shard.
        const MIN_LEN: u64 = 10 + 12 + 8;
        if total_len < MIN_LEN {
            return Err(bad(
                DecodeErrorKind::Truncated,
                total_len,
                format!("file is {total_len} bytes, below the {MIN_LEN}-byte BAMX minimum"),
            ));
        }
        let mut head = [0u8; 10];
        source.read_exact_at(&mut head, 0)?;
        if head[..5] != MAGIC {
            return Err(bad(DecodeErrorKind::BadMagic, 0, "bad BAMX magic".into()));
        }
        let compression = BamxCompression::from_byte(head[5]).map_err(|e| {
            bad(DecodeErrorKind::Corrupt, 5, e.to_string())
        })?;
        let prologue_len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]) as u64;
        // The prologue must leave room for layout + trailer; validate by
        // arithmetic before allocating or attempting the implied read.
        if prologue_len > total_len - MIN_LEN {
            return Err(bad(
                DecodeErrorKind::Implausible,
                6,
                format!("prologue length {prologue_len} exceeds file size {total_len}"),
            ));
        }

        let mut prologue = vec![0u8; prologue_len as usize];
        source.read_exact_at(&mut prologue, 10)?;
        // The prologue is an in-memory buffer here, so any failure —
        // including an EOF-shaped one — is structural, not transient I/O.
        let header = decode_header(&mut &prologue[..]).map_err(|e| {
            bad(DecodeErrorKind::Corrupt, 10, format!("BAMX prologue: {e}"))
        })?;

        let mut layout_bytes = [0u8; 12];
        source.read_exact_at(&mut layout_bytes, 10 + prologue_len)?;
        let layout = BamxLayout::decode(&layout_bytes).map_err(|e| {
            bad(DecodeErrorKind::Corrupt, 10 + prologue_len, e.to_string())
        })?;

        let body_offset = 10 + prologue_len + 12;

        let mut trailer = [0u8; 8];
        source.read_exact_at(&mut trailer, total_len - 8)?;
        let n_records = u64::from_le_bytes(trailer);

        let mut this = V1Reader {
            source,
            context,
            header,
            layout,
            compression,
            body_offset,
            n_records,
            block_offsets: Vec::new(),
            records_per_block: 0,
        };
        if compression == BamxCompression::Bgzf {
            this.records_per_block =
                (ngs_bgzf::block::MAX_PAYLOAD / this.layout.record_size()).max(1);
            this.build_block_index(total_len - 8)?;
            // Every record must live in some block; a trailer claiming more
            // records than the blocks can hold is corruption, caught here so
            // read paths never index past the block table.
            let needed = n_records.div_ceil(this.records_per_block as u64);
            if (this.block_offsets.len() as u64) < needed {
                return Err(Error::decode(
                    DecodeErrorKind::Corrupt,
                    total_len - 8,
                    &this.context,
                    format!(
                        "trailer claims {n_records} records but body holds {} BGZF blocks ({needed} needed)",
                        this.block_offsets.len()
                    ),
                ));
            }
        } else {
            let body = total_len - 8 - body_offset;
            let expect = (this.layout.record_size() as u64)
                .checked_mul(n_records)
                .ok_or_else(|| {
                    Error::decode(
                        DecodeErrorKind::Implausible,
                        total_len - 8,
                        &this.context,
                        format!("record count {n_records} overflows the body size"),
                    )
                })?;
            if body != expect {
                return Err(Error::decode(
                    DecodeErrorKind::Corrupt,
                    total_len - 8,
                    &this.context,
                    format!("BAMX body size {body} != {expect} implied by trailer"),
                ));
            }
        }
        Ok(this)
    }

    /// Walks BGZF block headers (no decompression) to build the block
    /// offset table.
    fn build_block_index(&mut self, body_end: u64) -> Result<()> {
        let mut pos = self.body_offset;
        let mut head = [0u8; ngs_bgzf::block::HEADER_SIZE];
        while pos < body_end {
            if pos + ngs_bgzf::block::HEADER_SIZE as u64 > body_end {
                return Err(Error::decode(
                    DecodeErrorKind::Truncated,
                    pos,
                    &self.context,
                    "BGZF block header straddles the record-count trailer",
                ));
            }
            self.source.read_exact_at(&mut head, pos)?;
            let bsize = ngs_bgzf::block::peek_block_size(&head).map_err(|e| {
                Error::decode(DecodeErrorKind::Corrupt, pos, &self.context, e.to_string())
            })? as u64;
            self.block_offsets.push(pos);
            pos += bsize;
        }
        Ok(())
    }

    /// The shard identity used in decode errors (usually the file path).
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The embedded header (reference dictionary).
    pub fn header(&self) -> &SamHeader {
        &self.header
    }

    /// The record layout.
    pub fn layout(&self) -> &BamxLayout {
        &self.layout
    }

    /// Number of records in the shard.
    pub fn len(&self) -> u64 {
        self.n_records
    }

    /// The body compression mode.
    pub fn compression(&self) -> BamxCompression {
        self.compression
    }

    /// Reads the raw fixed-width bytes of records `lo..hi` into a buffer.
    pub fn read_raw_range(&self, lo: u64, hi: u64) -> Result<Vec<u8>> {
        if lo > hi || hi > self.n_records {
            return Err(Error::InvalidRecord(format!("record range {lo}..{hi} out of bounds")));
        }
        let rsz = self.layout.record_size() as u64;
        match self.compression {
            BamxCompression::Plain => {
                let mut buf = vec![0u8; ((hi - lo) * rsz) as usize];
                self.source.read_exact_at(&mut buf, self.body_offset + lo * rsz)?;
                Ok(buf)
            }
            BamxCompression::Bgzf => {
                if hi == lo {
                    return Ok(Vec::new());
                }
                let rpb = self.records_per_block as u64;
                let first_block = (lo / rpb) as usize;
                let last_block = ((hi - 1) / rpb) as usize;
                // Open-time validation guarantees the block table covers
                // every record the trailer claims; keep a typed guard so a
                // logic slip can never become an index panic.
                if last_block >= self.block_offsets.len() {
                    return Err(Error::decode(
                        DecodeErrorKind::Corrupt,
                        self.body_offset,
                        &self.context,
                        format!(
                            "records {lo}..{hi} need block {last_block} but only {} exist",
                            self.block_offsets.len()
                        ),
                    ));
                }
                let mut out = Vec::with_capacity(((hi - lo) * rsz) as usize);
                let mut scratch = Vec::new();
                for b in first_block..=last_block {
                    let start = self.block_offsets[b];
                    let end = self
                        .block_offsets
                        .get(b + 1)
                        .copied()
                        .unwrap_or(start + 65536);
                    let mut comp = vec![0u8; (end - start) as usize];
                    // The final block may be followed by EOF marker bytes we
                    // sized past; read until the buffer fills or the source
                    // truly ends. A single read_at is not enough: short
                    // reads are legal mid-file and must not fake an EOF.
                    let mut filled = 0usize;
                    while filled < comp.len() {
                        let got = self.source.read_at(&mut comp[filled..], start + filled as u64)?;
                        if got == 0 {
                            break;
                        }
                        filled += got;
                    }
                    comp.truncate(filled);
                    let (payload, _) = ngs_bgzf::block::decompress_block(&comp)?;
                    scratch.clear();
                    scratch.extend_from_slice(&payload);
                    let block_first_rec = b as u64 * rpb;
                    let s = lo.max(block_first_rec);
                    let e = hi.min(block_first_rec + (payload.len() as u64 / rsz));
                    if e > s {
                        let off = ((s - block_first_rec) * rsz) as usize;
                        out.extend_from_slice(&scratch[off..off + ((e - s) * rsz) as usize]);
                    }
                }
                if out.len() != ((hi - lo) * rsz) as usize {
                    return Err(Error::decode(
                        DecodeErrorKind::Truncated,
                        self.block_offsets[first_block],
                        &self.context,
                        "compressed BAMX range short read",
                    ));
                }
                Ok(out)
            }
        }
    }

    /// Decodes records `lo..hi`.
    pub fn read_range(&self, lo: u64, hi: u64) -> Result<Vec<AlignmentRecord>> {
        let raw = self.read_raw_range(lo, hi)?;
        let rsz = self.layout.record_size();
        raw.chunks_exact(rsz).map(|c| record_codec::decode(c, &self.header, &self.layout)).collect()
    }

    /// Streams `(ref_id, pos0)` keys for every record in file order —
    /// used by BAIX construction without full decodes.
    pub fn positions(&self) -> Result<Vec<(i32, i32)>> {
        let mut out = Vec::with_capacity(self.n_records as usize);
        const CHUNK: u64 = 4096;
        let mut lo = 0u64;
        while lo < self.n_records {
            let hi = (lo + CHUNK).min(self.n_records);
            let raw = self.read_raw_range(lo, hi)?;
            for rec in raw.chunks_exact(self.layout.record_size()) {
                out.push(record_codec::peek_position(rec)?);
            }
            lo = hi;
        }
        Ok(out)
    }
}

/// On-disk format version of a BAMX shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BamxVersion {
    /// Fixed-width padded records (the paper's original layout).
    #[default]
    V1,
    /// Block-columnar compressed layout with projection (DESIGN.md §14).
    V2,
}

impl BamxVersion {
    /// Stable name used in CLI flags and repository metadata.
    pub fn name(self) -> &'static str {
        match self {
            BamxVersion::V1 => "v1",
            BamxVersion::V2 => "v2",
        }
    }

    /// Parses the CLI/metadata spelling (`"v1"`/`"1"`, `"v2"`/`"2"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v1" | "1" => Some(BamxVersion::V1),
            "v2" | "2" => Some(BamxVersion::V2),
            _ => None,
        }
    }
}

/// A BAMX shard opened for random access over any [`ReadAt`] source —
/// a plain `File`, an in-memory buffer, or a fault-injecting wrapper.
/// In practice each worker thread opens its own `BamxFile`.
///
/// The on-disk version is sniffed from the magic at open time: v1
/// (fixed-width, optionally BGZF) and v2 (block-columnar, DESIGN.md §14)
/// shards present the same read API. v2 additionally honours column
/// *projection* — [`read_range_projected`](Self::read_range_projected)
/// decodes only the streams the caller's [`ColumnSet`] names.
pub struct BamxFile {
    inner: Inner,
}

enum Inner {
    V1(V1Reader),
    V2(V2Reader),
}

impl BamxFile {
    /// Opens a BAMX file and reads its metadata.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let context = path.as_ref().display().to_string();
        let file = File::open(path)?;
        Self::open_with(Box::new(file), context)
    }

    /// Opens a BAMX shard over an arbitrary positional-read source,
    /// dispatching on the magic's version byte. `context` names the
    /// shard in decode errors (usually its path).
    pub fn open_with(source: Box<dyn ReadAt>, context: impl Into<String>) -> Result<Self> {
        let context = context.into();
        let total_len = source.len()?;
        if total_len < 5 {
            return Err(Error::decode(
                DecodeErrorKind::Truncated,
                total_len,
                &context,
                format!("file is {total_len} bytes, too short for a BAMX magic"),
            ));
        }
        let mut magic = [0u8; 5];
        source.read_exact_at(&mut magic, 0)?;
        if magic == MAGIC {
            Ok(BamxFile { inner: Inner::V1(V1Reader::open_with(source, context)?) })
        } else if magic == MAGIC_V2 {
            Ok(BamxFile { inner: Inner::V2(V2Reader::open_with(source, context)?) })
        } else {
            Err(Error::decode(DecodeErrorKind::BadMagic, 0, &context, "bad BAMX magic"))
        }
    }

    /// The on-disk format version this shard was written with.
    pub fn version(&self) -> BamxVersion {
        match &self.inner {
            Inner::V1(_) => BamxVersion::V1,
            Inner::V2(_) => BamxVersion::V2,
        }
    }

    /// The shard identity used in decode errors (usually the file path).
    pub fn context(&self) -> &str {
        match &self.inner {
            Inner::V1(v) => v.context(),
            Inner::V2(v) => v.context(),
        }
    }

    /// The embedded header (reference dictionary).
    pub fn header(&self) -> &SamHeader {
        match &self.inner {
            Inner::V1(v) => v.header(),
            Inner::V2(v) => v.header(),
        }
    }

    /// The record layout (field maxima; v2 keeps it for validation
    /// bounds and fingerprinting rather than padding).
    pub fn layout(&self) -> &BamxLayout {
        match &self.inner {
            Inner::V1(v) => v.layout(),
            Inner::V2(v) => v.layout(),
        }
    }

    /// Number of records in the shard.
    pub fn len(&self) -> u64 {
        match &self.inner {
            Inner::V1(v) => v.len(),
            Inner::V2(v) => v.len(),
        }
    }

    /// True when the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body compression mode. v2 shards report
    /// [`BamxCompression::Plain`]: their compression is per-column, not
    /// a body-wide wrapper.
    pub fn compression(&self) -> BamxCompression {
        match &self.inner {
            Inner::V1(v) => v.compression(),
            Inner::V2(_) => BamxCompression::Plain,
        }
    }

    /// Reads the raw fixed-width bytes of records `lo..hi` — a v1-only
    /// operation (v2 shards are columnar; there are no per-record fixed
    /// slots to expose). Returns a typed error on v2.
    pub fn read_raw_range(&self, lo: u64, hi: u64) -> Result<Vec<u8>> {
        match &self.inner {
            Inner::V1(v) => v.read_raw_range(lo, hi),
            Inner::V2(_) => Err(Error::InvalidRecord(
                "raw fixed-width access is a v1 operation; v2 shards are columnar".into(),
            )),
        }
    }

    /// Decodes records `lo..hi` in full.
    pub fn read_range(&self, lo: u64, hi: u64) -> Result<Vec<AlignmentRecord>> {
        self.read_range_projected(lo, hi, ColumnSet::ALL)
    }

    /// Decodes records `lo..hi` under a column projection. On v2 only
    /// the selected streams are read and decompressed — unselected
    /// fields come back as their empty defaults. On v1 the projection is
    /// a no-op (one fixed-width `pread` already fetches everything), so
    /// projected fields are byte-identical across versions and the
    /// extras are simply ignored by the consumer.
    pub fn read_range_projected(
        &self,
        lo: u64,
        hi: u64,
        set: ColumnSet,
    ) -> Result<Vec<AlignmentRecord>> {
        match &self.inner {
            Inner::V1(v) => v.read_range(lo, hi),
            Inner::V2(v) => v.read_range_projected(lo, hi, set),
        }
    }

    /// Decodes a single record by index.
    pub fn read_record(&self, index: u64) -> Result<AlignmentRecord> {
        let mut v = self.read_range(index, index + 1)?;
        v.pop().ok_or_else(|| Error::InvalidRecord("empty read of a length-one range".into()))
    }

    /// Streams `(ref_id, pos0)` keys for every record in file order —
    /// used by BAIX construction without full decodes. On v2 this is the
    /// flagship projection: only each block's position column is read.
    pub fn positions(&self) -> Result<Vec<(i32, i32)>> {
        match &self.inner {
            Inner::V1(v) => v.positions(),
            Inner::V2(v) => v.positions(),
        }
    }

    /// Per-block first position keys (v2 only; empty iterator on v1) —
    /// block-level pruning diagnostics for `repro bamx2`.
    pub fn block_first_keys(&self) -> Vec<u64> {
        match &self.inner {
            Inner::V1(_) => Vec::new(),
            Inner::V2(v) => v.block_first_keys().collect(),
        }
    }
}

/// A streaming writer for either on-disk version, so converter code can
/// branch once at creation time and feed records through a single type.
pub enum AnyBamxWriter<W: Write> {
    /// Fixed-width v1 writer.
    V1(BamxWriter<W>),
    /// Block-columnar v2 writer.
    V2(V2Writer<W>),
}

impl<W: Write> AnyBamxWriter<W> {
    /// Wraps a sink with the requested version. `compression` applies to
    /// v1 bodies only; v2 compresses per column and ignores it.
    pub fn new(
        version: BamxVersion,
        inner: W,
        header: SamHeader,
        layout: BamxLayout,
        compression: BamxCompression,
    ) -> Result<Self> {
        match version {
            BamxVersion::V1 => {
                Ok(AnyBamxWriter::V1(BamxWriter::new(inner, header, layout, compression)?))
            }
            BamxVersion::V2 => Ok(AnyBamxWriter::V2(V2Writer::new(inner, header, layout)?)),
        }
    }

    /// Appends one record.
    pub fn write_record(&mut self, record: &AlignmentRecord) -> Result<()> {
        match self {
            AnyBamxWriter::V1(w) => w.write_record(record),
            AnyBamxWriter::V2(w) => w.write_record(record),
        }
    }

    /// Appends one record given as fields.
    pub fn write_fields(&mut self, fields: &RecordFields<'_>) -> Result<()> {
        match self {
            AnyBamxWriter::V1(w) => w.write_fields(fields),
            AnyBamxWriter::V2(w) => w.write_fields(fields),
        }
    }

    /// Records per [`EncodedBatch`]: a v2 block's worth, and the same
    /// count for v1, so one batching serves both.
    pub fn records_per_batch(&self) -> usize {
        match self {
            AnyBamxWriter::V1(_) => DEFAULT_RECORDS_PER_BLOCK as usize,
            AnyBamxWriter::V2(w) => w.records_per_block() as usize,
        }
    }

    /// An encoder producing batches this writer can [`append`](Self::append).
    pub fn batch_encoder(&self) -> BatchEncoder {
        BatchEncoder {
            layout: *self.layout(),
            block: matches!(self, AnyBamxWriter::V2(_)).then(|| BlockBuilder::new(*self.layout())),
            spare: Vec::new(),
        }
    }

    /// Appends a batch encoded off the writer. Batches must arrive in
    /// shard order and, on v2, all but the last must be full.
    pub fn append(&mut self, batch: &EncodedBatch) -> Result<()> {
        match (self, batch.block) {
            (AnyBamxWriter::V1(w), None) => w.append_records(&batch.bytes, &batch.keys),
            (AnyBamxWriter::V2(w), Some(entry)) => w.append_block(&batch.bytes, entry, &batch.keys),
            (AnyBamxWriter::V2(_), None) if batch.keys.is_empty() => Ok(()),
            _ => Err(Error::InvalidRecord("batch encoded for the other BAMX version".into())),
        }
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        match self {
            AnyBamxWriter::V1(w) => w.record_count(),
            AnyBamxWriter::V2(w) => w.record_count(),
        }
    }

    /// The layout this writer validates against.
    pub fn layout(&self) -> &BamxLayout {
        match self {
            AnyBamxWriter::V1(w) => w.layout(),
            AnyBamxWriter::V2(w) => w.layout(),
        }
    }

    /// Finalizes the file and returns the sink.
    pub fn finish(self) -> Result<W> {
        Ok(self.finish_indexed()?.0)
    }

    /// Finalizes the file and returns the sink together with the shard's
    /// BAIX, built from the positions the writer saw (no reopen).
    pub fn finish_indexed(self) -> Result<(W, Baix)> {
        match self {
            AnyBamxWriter::V1(w) => w.finish_indexed(),
            AnyBamxWriter::V2(w) => w.finish_indexed(),
        }
    }
}

/// Records encoded away from the writer — a run of v1 records, or one
/// v2 block — for [`AnyBamxWriter::append`] to write whole. Filled by a
/// [`BatchEncoder`] and recycled.
#[derive(Debug, Default)]
pub struct EncodedBatch {
    bytes: Vec<u8>,
    keys: Vec<u64>,
    block: Option<BlockEntry>,
}

impl EncodedBatch {
    fn clear(&mut self) {
        self.bytes.clear();
        self.keys.clear();
        self.block = None;
    }

    /// Empties the batch and hands over its byte buffer, so one
    /// allocation can serve in turn as a batch's raw input (see
    /// [`BatchEncoder::finish`]) and as its encoded bytes.
    pub fn take_buffer(&mut self) -> Vec<u8> {
        self.clear();
        std::mem::take(&mut self.bytes)
    }
}

/// Encodes records into [`EncodedBatch`]es for one writer's version and
/// layout ([`AnyBamxWriter::batch_encoder`]) — what each preprocessing
/// worker owns, so records are encoded, and v2 blocks built and
/// deflated, on every core while one writer appends in order.
///
/// A batch is [`start`](Self::start)ed, [`push`](Self::push)ed record by
/// record and [`finish`](Self::finish)ed. `finish` takes over the buffer
/// the records were read from: v1 writes the next batch into it, v2
/// frees it before deflating, so neither holds more than one batch's
/// worth of records at its peak.
#[derive(Debug)]
pub struct BatchEncoder {
    layout: BamxLayout,
    /// The v2 block under construction; `None` for v1.
    block: Option<BlockBuilder>,
    /// v1: the allocation the next batch's records are written into.
    spare: Vec<u8>,
}

impl BatchEncoder {
    /// Empties `batch` for a new run of records.
    pub fn start(&mut self, batch: &mut EncodedBatch) {
        batch.clear();
        if self.block.is_none() {
            std::mem::swap(&mut batch.bytes, &mut self.spare);
        }
    }

    /// Adds one record to `batch`: v1 appends its fixed-width bytes, v2
    /// adds it to the open block. A rejected record adds nothing.
    pub fn push(&mut self, fields: &RecordFields<'_>, batch: &mut EncodedBatch) -> Result<()> {
        let key = match &mut self.block {
            None => record_codec::encode_fields(fields, &self.layout, &mut batch.bytes)?,
            Some(block) => block.push(fields)?,
        };
        batch.keys.push(key);
        Ok(())
    }

    /// Ends `batch`. `input` is the buffer the pushed records were read
    /// from, no longer needed, and is left empty: v1 keeps its
    /// allocation to write the next batch into, v2 frees it and seals
    /// the block. Call it after a failed push too: it leaves the encoder
    /// empty for the next batch.
    pub fn finish(&mut self, batch: &mut EncodedBatch, input: &mut Vec<u8>) -> Result<()> {
        let input = std::mem::take(input);
        match &mut self.block {
            None => {
                self.spare = input;
                self.spare.clear();
            }
            Some(block) => {
                drop(input);
                batch.block = block.seal(&mut batch.bytes)?;
            }
        }
        Ok(())
    }
}

/// Convenience: writes `records` (two passes: layout, then records) to
/// `path`, returning the record count.
pub fn write_bamx_file(
    path: impl AsRef<Path>,
    header: &SamHeader,
    records: &[AlignmentRecord],
    compression: BamxCompression,
) -> Result<u64> {
    let layout = BamxLayout::compute(records)?;
    let mut w = BamxWriter::create(path, header.clone(), layout, compression)?;
    for r in records {
        w.write_record(r)?;
    }
    let n = w.record_count();
    w.finish()?;
    Ok(n)
}

/// Convenience: like [`write_bamx_file`] but for either format version.
pub fn write_bamx_file_versioned(
    path: impl AsRef<Path>,
    header: &SamHeader,
    records: &[AlignmentRecord],
    compression: BamxCompression,
    version: BamxVersion,
) -> Result<u64> {
    let layout = BamxLayout::compute(records)?;
    let sink = BufWriter::new(File::create(path)?);
    let mut w = AnyBamxWriter::new(version, sink, header.clone(), layout, compression)?;
    for r in records {
        w.write_record(r)?;
    }
    let n = w.record_count();
    w.finish()?;
    Ok(n)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ngs_formats::header::ReferenceSequence;
    use ngs_formats::sam;
    use tempfile::tempdir;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![ReferenceSequence {
            name: b"chr1".to_vec(),
            length: 1_000_000,
        }])
    }

    fn records(n: usize) -> Vec<AlignmentRecord> {
        (0..n)
            .map(|i| {
                let line = format!(
                    "read{i}\t0\tchr1\t{}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII\tNM:i:{}",
                    100 + i * 7,
                    i % 4
                );
                sam::parse_record(line.as_bytes(), 1).unwrap()
            })
            .collect()
    }

    #[test]
    fn plain_roundtrip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = records(100);
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        assert_eq!(f.len(), 100);
        assert_eq!(f.read_range(0, 100).unwrap(), recs);
        assert_eq!(f.read_record(42).unwrap(), recs[42]);
        assert_eq!(f.compression(), BamxCompression::Plain);
    }

    #[test]
    fn bgzf_roundtrip() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamxz");
        let recs = records(5000);
        write_bamx_file(&path, &header(), &recs, BamxCompression::Bgzf).unwrap();
        let f = BamxFile::open(&path).unwrap();
        assert_eq!(f.len(), 5000);
        assert_eq!(f.compression(), BamxCompression::Bgzf);
        // Whole-range and point reads agree with the source.
        assert_eq!(f.read_range(0, 5000).unwrap(), recs);
        for i in [0u64, 1, 999, 2500, 4999] {
            assert_eq!(f.read_record(i).unwrap(), recs[i as usize], "record {i}");
        }
        // A range crossing block boundaries.
        assert_eq!(f.read_range(100, 3100).unwrap(), recs[100..3100]);
    }

    #[test]
    fn compressed_is_smaller() {
        let dir = tempdir().unwrap();
        let plain = dir.path().join("p.bamx");
        let comp = dir.path().join("c.bamx");
        let recs = records(2000);
        write_bamx_file(&plain, &header(), &recs, BamxCompression::Plain).unwrap();
        write_bamx_file(&comp, &header(), &recs, BamxCompression::Bgzf).unwrap();
        let ps = std::fs::metadata(&plain).unwrap().len();
        let cs = std::fs::metadata(&comp).unwrap().len();
        assert!(cs < ps, "compressed {cs} must beat plain {ps}");
    }

    #[test]
    fn positions_stream() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = records(300);
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let pos = f.positions().unwrap();
        assert_eq!(pos.len(), 300);
        assert_eq!(pos[0], (0, 99));
        assert_eq!(pos[299], (0, 99 + 299 * 7));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        write_bamx_file(&path, &header(), &records(10), BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        assert!(f.read_range(5, 11).is_err());
        assert!(f.read_range(7, 3).is_err());
    }

    #[test]
    fn empty_file() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("e.bamx");
        write_bamx_file(&path, &header(), &[], BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        assert!(f.is_empty());
        assert!(f.read_range(0, 0).unwrap().is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("bad.bamx");
        std::fs::write(&path, b"NOTBAMX-really-not").unwrap();
        assert!(BamxFile::open(&path).is_err());
    }
}
