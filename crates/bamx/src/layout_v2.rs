//! BAMX v2: the compressed columnar shard layout (DESIGN.md §14).
//!
//! Where v1 pads every record to the dataset-wide maxima (O(1) seeks,
//! bandwidth-wasteful scans), v2 groups records into fixed-size *blocks*
//! and stores each field as a separate column stream with a per-field
//! codec:
//!
//! | column | contents per record                | codec            |
//! |--------|------------------------------------|------------------|
//! | flags  | `flag u16 LE + mapq u8`            | raw              |
//! | pos    | `Δref_id, Δpos0` (per-block delta) | zigzag varint    |
//! | mate   | `next_ref_id, next_pos0, tlen`     | zigzag varint    |
//! | qname  | `varint len + bytes`               | DEFLATE          |
//! | cigar  | `varint n_ops + varint ops`        | raw              |
//! | seq    | `varint bases + 4-bit packed`      | DEFLATE          |
//! | qual   | `varint len + bytes`               | DEFLATE          |
//! | tags   | `varint len + BAM tag bytes`       | raw              |
//!
//! A footer block index (`offset, n_records, first position key,
//! per-column stream lengths`) keeps region access binary-searchable and
//! record→block mapping O(1) (every block but the last holds exactly
//! `records_per_block` records). Column *projection* — decoding only the
//! streams a consumer reads — is the layout's speed win; `positions()`
//! touches nothing but the `pos` stream.
//!
//! Framing: `magic(5) + reserved(1) + prologue_len u32 + prologue +
//! layout(12) + records_per_block u32 + blocks… + footer + trailer
//! (footer CRC32 u32 + n_blocks u64 + footer offset u64 + n_records
//! u64)`. The prologue/layout prefix deliberately mirrors v1 byte
//! offsets so the repository's layout fingerprinting parses both
//! versions with one code path.
//!
//! Decoding arbitrary bytes is panic-free: every malformation is a typed
//! [`Error::Decode`] with kind + offset + context, and allocations are
//! validated against the real file size before being made.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ngs_bgzf::crc32::crc32;
use ngs_bgzf::deflate::{deflate, Options};
use ngs_bgzf::inflate::Inflater;
use ngs_bgzf::ReadAt;
use ngs_formats::bam::{decode_header, encode_header};
use ngs_formats::cigar::CigarOp;
use ngs_formats::error::{DecodeErrorKind, Error, Result};
use ngs_formats::fields::{FieldsScratch, RecordFields, RefIds, StoredFields};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::view::FieldsView;

use crate::baix::{position_key, Baix};
use crate::column::{self, get_varint, put_varint, unzigzag, zigzag, ColumnKind, ColumnSet, N_COLUMNS};
use crate::layout::BamxLayout;
use crate::record_codec;

/// BAMX v2 file magic.
pub const MAGIC_V2: [u8; 5] = *b"BAMX\x02";

/// Records per block when the writer is not told otherwise.
pub const DEFAULT_RECORDS_PER_BLOCK: u32 = 1024;

/// Upper bound accepted at open time — a corrupt header cannot make a
/// single block imply an unbounded allocation.
pub const MAX_RECORDS_PER_BLOCK: u32 = 1 << 20;

/// Bytes per footer entry: `offset u64 + n_records u32 + first_key u64 +
/// 8 × stream_len u32`.
const FOOTER_ENTRY: u64 = 8 + 4 + 8 + (N_COLUMNS as u64) * 4;

/// Trailer: `footer_crc u32 + n_blocks u64 + footer_offset u64 +
/// n_records u64`.
const TRAILER: u64 = 4 + 8 + 8 + 8;

/// DEFLATE level for the compressed columns (matches the BGZF writer's
/// default speed/size trade-off).
const DEFLATE_LEVEL: u8 = 6;

/// One block's entry in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockEntry {
    /// Absolute file offset of the block's first stream byte.
    offset: u64,
    /// Records in the block (== `records_per_block` except the last).
    n_records: u32,
    /// `position_key(ref_id, pos0)` of the block's first record.
    first_key: u64,
    /// On-disk stream length per column, in [`ColumnKind::ALL`] order.
    lens: [u32; N_COLUMNS],
}

impl BlockEntry {
    fn total(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }

    /// Absolute offset of column `k`'s stream.
    fn column_offset(&self, k: ColumnKind) -> u64 {
        self.offset + self.lens[..k.index()].iter().map(|&l| l as u64).sum::<u64>()
    }
}

/// One v2 block under construction: the eight column streams of its
/// records, built from [`RecordFields`] and sealed — the text-like
/// columns deflated — into the bytes a [`V2Writer`] appends. Blocks are
/// independent, so each preprocessing worker builds whole blocks with
/// its own builder, reused from block to block.
#[derive(Debug)]
pub(crate) struct BlockBuilder {
    layout: BamxLayout,
    cols: [Vec<u8>; N_COLUMNS],
    n_records: u32,
    first_key: u64,
    prev_ref: i64,
    prev_pos: i64,
}

impl BlockBuilder {
    /// An empty block validating against `layout`.
    pub fn new(layout: BamxLayout) -> Self {
        BlockBuilder {
            layout,
            cols: Default::default(),
            n_records: 0,
            first_key: 0,
            prev_ref: 0,
            prev_pos: 0,
        }
    }

    /// Records in the open block.
    pub fn len(&self) -> u32 {
        self.n_records
    }

    /// True when the open block holds no record.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Adds one record to the block and returns its BAIX
    /// [`position_key`]. Validation is v1's ([`record_codec::check`]), so
    /// any record one layout accepts the other does too; a rejected
    /// record adds nothing.
    pub fn push(&mut self, f: &RecordFields<'_>) -> Result<u64> {
        record_codec::check(f, &self.layout)?;
        let key = position_key(f.ref_id(), f.pos0());
        if self.n_records == 0 {
            self.first_key = key;
        }
        // In `ColumnKind` order.
        let [flags, pos, mate, qname, cigar, seq, qual, tags] = &mut self.cols;
        // flags: fixed 3 bytes.
        flags.extend_from_slice(&f.flag().to_le_bytes());
        flags.push(f.mapq());
        // pos: per-block delta chain.
        let (ref_id, pos0) = (i64::from(f.ref_id()), i64::from(f.pos0()));
        put_varint(pos, zigzag(ref_id - self.prev_ref));
        put_varint(pos, zigzag(pos0 - self.prev_pos));
        (self.prev_ref, self.prev_pos) = (ref_id, pos0);
        // mate: absolute zigzag varints.
        put_varint(mate, zigzag(i64::from(f.next_ref_id())));
        put_varint(mate, zigzag(i64::from(f.next_pos0())));
        put_varint(mate, zigzag(f.tlen()));
        put_varint(qname, f.qname().len() as u64);
        qname.extend_from_slice(f.qname());
        put_varint(cigar, f.n_cigar_ops() as u64);
        for word in f.cigar_words() {
            put_varint(cigar, u64::from(word));
        }
        // seq: 4-bit packed.
        put_varint(seq, f.l_seq() as u64);
        seq.extend_from_slice(f.packed_seq());
        // qual: empty means absent (same convention as v1's qual bit).
        let q = f.qual().unwrap_or_default();
        put_varint(qual, q.len() as u64);
        qual.extend_from_slice(q);
        put_varint(tags, f.tags().len() as u64);
        tags.extend_from_slice(f.tags());
        self.n_records += 1;
        Ok(key)
    }

    /// Appends the open block's streams to `out` — deflated columns as
    /// `raw_len u32 + DEFLATE` — and empties the builder. Returns the
    /// block's footer entry with an offset of 0 (the writer places it);
    /// `None` when the block is empty.
    pub(crate) fn seal(&mut self, out: &mut Vec<u8>) -> Result<Option<BlockEntry>> {
        if self.n_records == 0 {
            return Ok(None);
        }
        let mut lens = [0u32; N_COLUMNS];
        // One allocation for the block (the raw columns bound it, bar a
        // few bytes of DEFLATE framing): grown by doubling, the output
        // would leave a trail of freed chunks on the sealing thread.
        out.reserve(self.cols.iter().map(Vec::len).sum::<usize>() + 64);
        for kind in ColumnKind::ALL {
            let too_big = || {
                Error::InvalidRecord(format!(
                    "v2 column stream '{}' exceeds 4 GiB in one block",
                    kind.name()
                ))
            };
            let raw = &mut self.cols[kind.index()];
            let start = out.len();
            if kind.deflated() {
                out.extend_from_slice(&u32::try_from(raw.len()).map_err(|_| too_big())?.to_le_bytes());
                out.extend_from_slice(&deflate(raw, Options::from_level(DEFLATE_LEVEL)));
            } else {
                out.extend_from_slice(raw);
            }
            raw.clear();
            lens[kind.index()] = u32::try_from(out.len() - start).map_err(|_| too_big())?;
        }
        let entry =
            BlockEntry { offset: 0, n_records: self.n_records, first_key: self.first_key, lens };
        self.n_records = 0;
        self.first_key = 0;
        self.prev_ref = 0;
        self.prev_pos = 0;
        Ok(Some(entry))
    }
}

/// Streaming v2 writer. Like [`BamxWriter`](crate::BamxWriter) the
/// caller provides the layout up front — v2 keeps it for encode-time
/// validation bounds and for the version-tagged repository fingerprint,
/// not for padding.
pub struct V2Writer<W: Write> {
    inner: W,
    refs: RefIds,
    fields: FieldsScratch,
    records_per_block: u32,
    /// The open block.
    block: BlockBuilder,
    blocks: Vec<BlockEntry>,
    /// Bytes written so far (absolute offset of the next byte).
    pos: u64,
    /// [`position_key`] of every record written, in shard order — what
    /// [`V2Writer::finish_indexed`] turns into the BAIX.
    keys: Vec<u64>,
}

impl V2Writer<BufWriter<File>> {
    /// Creates a v2 BAMX file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        header: SamHeader,
        layout: BamxLayout,
    ) -> Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        Self::new(file, header, layout)
    }
}

impl<W: Write> V2Writer<W> {
    /// Wraps an arbitrary sink with the default block size.
    pub fn new(inner: W, header: SamHeader, layout: BamxLayout) -> Result<Self> {
        Self::with_block_size(inner, header, layout, DEFAULT_RECORDS_PER_BLOCK)
    }

    /// Wraps an arbitrary sink with an explicit records-per-block.
    pub fn with_block_size(
        mut inner: W,
        header: SamHeader,
        layout: BamxLayout,
        records_per_block: u32,
    ) -> Result<Self> {
        if records_per_block == 0 || records_per_block > MAX_RECORDS_PER_BLOCK {
            return Err(Error::InvalidRecord(format!(
                "records_per_block {records_per_block} outside 1..={MAX_RECORDS_PER_BLOCK}"
            )));
        }
        let mut prologue = Vec::new();
        encode_header(&header, &mut prologue);
        inner.write_all(&MAGIC_V2)?;
        inner.write_all(&[0u8])?; // reserved
        inner.write_all(&(prologue.len() as u32).to_le_bytes())?;
        inner.write_all(&prologue)?;
        inner.write_all(&layout.encode())?;
        inner.write_all(&records_per_block.to_le_bytes())?;
        let pos = 10 + prologue.len() as u64 + 12 + 4;
        Ok(V2Writer {
            inner,
            refs: RefIds::new(&header),
            fields: FieldsScratch::default(),
            records_per_block,
            block: BlockBuilder::new(layout),
            blocks: Vec::new(),
            pos,
            keys: Vec::new(),
        })
    }

    /// The layout this writer validates against.
    pub fn layout(&self) -> &BamxLayout {
        &self.block.layout
    }

    /// Records per block; every block but the last holds exactly this
    /// many.
    pub fn records_per_block(&self) -> u32 {
        self.records_per_block
    }

    /// Appends one owned record: [`Self::write_fields`] over
    /// [`RecordFields::from_record`].
    pub fn write_record(&mut self, record: &AlignmentRecord) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.fields);
        let written = RecordFields::from_record(record, &self.refs, &mut scratch)
            .and_then(|fields| self.write_fields(&fields));
        self.fields = scratch;
        written
    }

    /// Appends one record to the open block, sealing and writing the
    /// block when it is full.
    pub fn write_fields(&mut self, fields: &RecordFields<'_>) -> Result<()> {
        self.keys.push(self.block.push(fields)?);
        if self.block.len() == self.records_per_block {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        let mut sealed = Vec::new();
        match self.block.seal(&mut sealed)? {
            Some(entry) => self.put_block(&sealed, entry),
            None => Ok(()),
        }
    }

    /// Appends a block sealed elsewhere, with the position keys of its
    /// records. Only whole blocks can follow one another: the open block
    /// must be empty and the last block written full, so that every
    /// block but the last holds exactly `records_per_block` records.
    pub(crate) fn append_block(&mut self, bytes: &[u8], entry: BlockEntry, keys: &[u64]) -> Result<()> {
        let after_full = self.blocks.last().is_none_or(|b| b.n_records == self.records_per_block);
        if !self.block.is_empty() || !after_full || entry.n_records > self.records_per_block {
            return Err(Error::InvalidRecord("v2 block appended out of turn".into()));
        }
        self.put_block(bytes, entry)?;
        self.keys.extend_from_slice(keys);
        Ok(())
    }

    fn put_block(&mut self, bytes: &[u8], entry: BlockEntry) -> Result<()> {
        self.inner.write_all(bytes)?;
        self.blocks.push(BlockEntry { offset: self.pos, ..entry });
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Flushes the open block, writes the footer index and trailer, and
    /// returns the sink.
    pub fn finish(self) -> Result<W> {
        Ok(self.finish_indexed()?.0)
    }

    /// [`V2Writer::finish`], also handing back the shard's BAIX built
    /// from the positions seen while writing — equal to
    /// [`Baix::build`] over the finished file, without reopening it.
    pub fn finish_indexed(mut self) -> Result<(W, Baix)> {
        self.flush_block()?;
        let footer_offset = self.pos;
        let mut footer = Vec::with_capacity(self.blocks.len() * FOOTER_ENTRY as usize);
        for b in &self.blocks {
            footer.extend_from_slice(&b.offset.to_le_bytes());
            footer.extend_from_slice(&b.n_records.to_le_bytes());
            footer.extend_from_slice(&b.first_key.to_le_bytes());
            for l in b.lens {
                footer.extend_from_slice(&l.to_le_bytes());
            }
        }
        self.inner.write_all(&footer)?;
        self.inner.write_all(&crc32(&footer).to_le_bytes())?;
        self.inner.write_all(&(self.blocks.len() as u64).to_le_bytes())?;
        self.inner.write_all(&footer_offset.to_le_bytes())?;
        self.inner.write_all(&(self.keys.len() as u64).to_le_bytes())?;
        self.inner.flush()?;
        Ok((self.inner, Baix::from_position_keys(self.keys)))
    }
}

/// A v2 shard opened for block-columnar random access over any
/// [`ReadAt`] source. Wrapped by [`BamxFile`](crate::BamxFile), which
/// dispatches on the magic version byte at open time.
pub struct V2Reader {
    source: Box<dyn ReadAt>,
    context: String,
    header: SamHeader,
    layout: BamxLayout,
    records_per_block: u64,
    n_records: u64,
    blocks: Vec<BlockEntry>,
}

impl V2Reader {
    /// Opens a v2 shard and validates its whole index skeleton (framing,
    /// footer CRC, block geometry) before any record is decoded.
    pub fn open_with(source: Box<dyn ReadAt>, context: impl Into<String>) -> Result<Self> {
        let context = context.into();
        let bad = |kind, offset, detail: String| Error::decode(kind, offset, &context, detail);

        let total_len = source.len()?;
        const MIN_LEN: u64 = 10 + 12 + 4 + TRAILER;
        if total_len < MIN_LEN {
            return Err(bad(
                DecodeErrorKind::Truncated,
                total_len,
                format!("file is {total_len} bytes, below the {MIN_LEN}-byte BAMX v2 minimum"),
            ));
        }
        let mut head = [0u8; 10];
        source.read_exact_at(&mut head, 0)?;
        if head[..5] != MAGIC_V2 {
            return Err(bad(DecodeErrorKind::BadMagic, 0, "bad BAMX v2 magic".into()));
        }
        if head[5] != 0 {
            return Err(bad(
                DecodeErrorKind::Corrupt,
                5,
                format!("reserved v2 flag byte is {:#04x}, expected 0", head[5]),
            ));
        }
        let prologue_len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]) as u64;
        if prologue_len > total_len - MIN_LEN {
            return Err(bad(
                DecodeErrorKind::Implausible,
                6,
                format!("prologue length {prologue_len} exceeds file size {total_len}"),
            ));
        }
        let mut prologue = vec![0u8; prologue_len as usize];
        source.read_exact_at(&mut prologue, 10)?;
        let header = decode_header(&mut &prologue[..])
            .map_err(|e| bad(DecodeErrorKind::Corrupt, 10, format!("BAMX prologue: {e}")))?;
        let mut layout_bytes = [0u8; 12];
        source.read_exact_at(&mut layout_bytes, 10 + prologue_len)?;
        let layout = BamxLayout::decode(&layout_bytes)
            .map_err(|e| bad(DecodeErrorKind::Corrupt, 10 + prologue_len, e.to_string()))?;
        let mut rpb_bytes = [0u8; 4];
        source.read_exact_at(&mut rpb_bytes, 10 + prologue_len + 12)?;
        let records_per_block = u32::from_le_bytes(rpb_bytes);
        if records_per_block == 0 || records_per_block > MAX_RECORDS_PER_BLOCK {
            return Err(bad(
                DecodeErrorKind::Implausible,
                10 + prologue_len + 12,
                format!("records_per_block {records_per_block} outside 1..={MAX_RECORDS_PER_BLOCK}"),
            ));
        }
        let body_offset = 10 + prologue_len + 12 + 4;

        let mut trailer = [0u8; TRAILER as usize];
        source.read_exact_at(&mut trailer, total_len - TRAILER)?;
        let footer_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let mut w = [0u8; 8];
        w.copy_from_slice(&trailer[4..12]);
        let n_blocks = u64::from_le_bytes(w);
        w.copy_from_slice(&trailer[12..20]);
        let footer_offset = u64::from_le_bytes(w);
        w.copy_from_slice(&trailer[20..28]);
        let n_records = u64::from_le_bytes(w);

        // Footer geometry must account for the file size *exactly* —
        // validated by arithmetic before any footer-sized allocation.
        if footer_offset < body_offset || footer_offset > total_len - TRAILER {
            return Err(bad(
                DecodeErrorKind::Implausible,
                total_len - TRAILER,
                format!("footer offset {footer_offset} outside body [{body_offset}, {}]", total_len - TRAILER),
            ));
        }
        let footer_len = total_len - TRAILER - footer_offset;
        match n_blocks.checked_mul(FOOTER_ENTRY) {
            Some(need) if need == footer_len => {}
            _ => {
                return Err(bad(
                    DecodeErrorKind::Corrupt,
                    total_len - TRAILER,
                    format!("trailer claims {n_blocks} blocks but the footer holds {footer_len} bytes"),
                ));
            }
        }
        let mut footer = vec![0u8; footer_len as usize];
        source.read_exact_at(&mut footer, footer_offset)?;
        if crc32(&footer) != footer_crc {
            return Err(bad(
                DecodeErrorKind::Corrupt,
                footer_offset,
                "v2 footer CRC mismatch".into(),
            ));
        }

        let mut blocks = Vec::with_capacity(n_blocks as usize);
        let mut expected_offset = body_offset;
        let mut total_records = 0u64;
        for (i, chunk) in footer.chunks_exact(FOOTER_ENTRY as usize).enumerate() {
            let mut q = [0u8; 8];
            q.copy_from_slice(&chunk[0..8]);
            let offset = u64::from_le_bytes(q);
            let block_records = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
            q.copy_from_slice(&chunk[12..20]);
            let first_key = u64::from_le_bytes(q);
            let mut lens = [0u32; N_COLUMNS];
            for (k, l) in lens.iter_mut().enumerate() {
                let p = 20 + k * 4;
                *l = u32::from_le_bytes([chunk[p], chunk[p + 1], chunk[p + 2], chunk[p + 3]]);
            }
            let entry = BlockEntry { offset, n_records: block_records, first_key, lens };
            if offset != expected_offset {
                return Err(bad(
                    DecodeErrorKind::Corrupt,
                    footer_offset + i as u64 * FOOTER_ENTRY,
                    format!("block {i} offset {offset} != expected {expected_offset}"),
                ));
            }
            if block_records == 0 || block_records as u64 > records_per_block as u64 {
                return Err(bad(
                    DecodeErrorKind::Corrupt,
                    footer_offset + i as u64 * FOOTER_ENTRY,
                    format!("block {i} claims {block_records} records (block size {records_per_block})"),
                ));
            }
            if i + 1 < n_blocks as usize && block_records != records_per_block {
                return Err(bad(
                    DecodeErrorKind::Corrupt,
                    footer_offset + i as u64 * FOOTER_ENTRY,
                    format!(
                        "non-final block {i} holds {block_records} records, expected {records_per_block}"
                    ),
                ));
            }
            expected_offset = expected_offset.checked_add(entry.total()).ok_or_else(|| {
                bad(
                    DecodeErrorKind::Implausible,
                    footer_offset + i as u64 * FOOTER_ENTRY,
                    format!("block {i} stream lengths overflow the file size"),
                )
            })?;
            total_records += block_records as u64;
            blocks.push(entry);
        }
        if expected_offset != footer_offset {
            return Err(bad(
                DecodeErrorKind::Corrupt,
                footer_offset,
                format!("blocks end at {expected_offset} but the footer starts at {footer_offset}"),
            ));
        }
        if total_records != n_records {
            return Err(bad(
                DecodeErrorKind::Corrupt,
                total_len - TRAILER,
                format!("trailer claims {n_records} records but blocks hold {total_records}"),
            ));
        }

        Ok(V2Reader {
            source,
            context,
            header,
            layout,
            records_per_block: records_per_block as u64,
            n_records,
            blocks,
        })
    }

    pub(crate) fn context(&self) -> &str {
        &self.context
    }

    pub(crate) fn header(&self) -> &SamHeader {
        &self.header
    }

    pub(crate) fn layout(&self) -> &BamxLayout {
        &self.layout
    }

    pub(crate) fn len(&self) -> u64 {
        self.n_records
    }

    /// Reads and (where deflated) decompresses the column streams of
    /// block `b` selected by `set`; unselected slots stay `None`.
    fn read_columns(&self, b: usize, set: ColumnSet) -> Result<[Option<Vec<u8>>; N_COLUMNS]> {
        let entry = self.blocks.get(b).ok_or_else(|| {
            Error::InvalidRecord(format!("v2 block {b} out of range ({})", self.blocks.len()))
        })?;
        let mut out: [Option<Vec<u8>>; N_COLUMNS] = Default::default();
        // Decoder tables are scratch shared by this call's streams.
        let mut inflater = Inflater::new();
        let mut decoded_bytes = 0u64;
        let mut skipped = 0u64;
        for kind in ColumnKind::ALL {
            if !set.contains(kind) {
                skipped += 1;
                continue;
            }
            let off = entry.column_offset(kind);
            let len = entry.lens[kind.index()] as usize;
            // Geometry was validated against the file size at open; the
            // read itself still goes through read_exact_at so transient
            // I/O surfaces as such.
            let mut stream = vec![0u8; len];
            self.source.read_exact_at(&mut stream, off)?;
            let raw = if kind.deflated() {
                if len < 4 {
                    return Err(Error::decode(
                        DecodeErrorKind::Truncated,
                        off,
                        &self.context,
                        format!("'{}' stream of block {b} is {len} bytes, below its length prefix", kind.name()),
                    ));
                }
                let raw_len =
                    u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as u64;
                let cap = self.plausible_raw_len(kind, entry.n_records);
                if raw_len > cap {
                    return Err(Error::decode(
                        DecodeErrorKind::Implausible,
                        off,
                        &self.context,
                        format!(
                            "'{}' stream of block {b} claims {raw_len} raw bytes, above the {cap} the layout allows",
                            kind.name()
                        ),
                    ));
                }
                // Inflate into exactly the declared (and capped) size: a
                // body that outruns or falls short of its prefix is corrupt
                // at that byte, never an allocation the prefix did not buy.
                let mut inflated = vec![0u8; raw_len as usize];
                inflater.inflate_exact(&stream[4..], &mut inflated).map_err(|e| {
                    Error::decode(
                        DecodeErrorKind::Corrupt,
                        off,
                        &self.context,
                        format!(
                            "'{}' stream of block {b} (prefix says {raw_len} raw bytes): {e}",
                            kind.name()
                        ),
                    )
                })?;
                inflated
            } else {
                stream
            };
            decoded_bytes += raw.len() as u64;
            out[kind.index()] = Some(raw);
        }
        if let Some(c) = column::obs::counters() {
            c.column_bytes_decoded.add(decoded_bytes);
            c.columns_skipped.add(skipped);
        }
        Ok(out)
    }

    /// Upper bound on a column's plausible raw (decompressed) size for a
    /// block of `n` records, derived from the layout maxima — a corrupt
    /// length prefix cannot size an attacker-chosen allocation.
    fn plausible_raw_len(&self, kind: ColumnKind, n: u32) -> u64 {
        let per = match kind {
            ColumnKind::Qname => self.layout.max_qname as u64,
            ColumnKind::Seq => (self.layout.max_seq as u64).div_ceil(2),
            ColumnKind::Qual => self.layout.max_seq as u64,
            // Raw columns never take this path; keep the bound total.
            _ => 16,
        };
        // +10: the worst-case varint length prefix per record.
        (n as u64) * (per + 10)
    }

    fn corrupt(&self, b: usize, kind: ColumnKind, what: &str) -> Error {
        let offset = self.blocks.get(b).map(|e| e.column_offset(kind)).unwrap_or(0);
        Error::decode(
            DecodeErrorKind::Corrupt,
            offset,
            &self.context,
            format!("'{}' stream of block {b}: {what}", kind.name()),
        )
    }

    /// Visits records `rel_lo..rel_hi` (block-relative) of block `b`
    /// under the projection `set`, each as a view borrowed from the
    /// decoded column streams; CIGAR varints are re-encoded into BAM
    /// words in one buffer reused from record to record. Streams are
    /// walked, and every record checked, from the block start (delta
    /// chains and varint framing are sequential), but only the requested
    /// records are visited.
    fn visit_block(
        &self,
        b: usize,
        rel_lo: usize,
        rel_hi: usize,
        set: ColumnSet,
        f: &mut impl FnMut(FieldsView<'_>) -> Result<()>,
    ) -> Result<()> {
        use ColumnKind as K;
        let cols = self.read_columns(b, set)?;
        let n = self.blocks[b].n_records as usize;
        let col = |k: K| cols[k.index()].as_deref().unwrap_or(&[]);
        let mut cur = [0usize; N_COLUMNS];
        let mut prev_ref = 0i64;
        let mut prev_pos = 0i64;
        let mut cigar_words = Vec::new();
        let i32_of = |v: i64, kind: K| {
            i32::try_from(v).map_err(|_| self.corrupt(b, kind, "coordinate outside the i32 domain"))
        };
        // A length prefix within `max`, then that many bytes of stream `k`.
        let take = |k: K, cur: &mut usize, max: u64, what: &str| -> Result<&[u8]> {
            let s = col(k);
            let len = get_varint(s, cur).ok_or_else(|| self.corrupt(b, k, "truncated varint"))?;
            if len > max {
                return Err(self.corrupt(b, k, what));
            }
            let end = usize::try_from(len).ok().and_then(|len| cur.checked_add(len));
            let bytes = end
                .and_then(|end| s.get(*cur..end))
                .ok_or_else(|| self.corrupt(b, k, "truncated"))?;
            *cur += bytes.len();
            Ok(bytes)
        };

        let want = |k: K| set.contains(k);
        for i in 0..rel_hi.min(n) {
            // flags (mandatory).
            let p = cur[K::Flags.index()];
            let Some(bytes) = col(K::Flags).get(p..p + 3) else {
                return Err(self.corrupt(b, K::Flags, "truncated"));
            };
            let flag = u16::from_le_bytes([bytes[0], bytes[1]]);
            let mapq = bytes[2];
            cur[K::Flags.index()] = p + 3;

            // pos (mandatory): delta chain.
            let s = col(K::Pos);
            let c = &mut cur[K::Pos.index()];
            let d_ref = get_varint(s, c).ok_or_else(|| self.corrupt(b, K::Pos, "truncated varint"))?;
            let d_pos = get_varint(s, c).ok_or_else(|| self.corrupt(b, K::Pos, "truncated varint"))?;
            prev_ref += unzigzag(d_ref);
            prev_pos += unzigzag(d_pos);
            let (ref_id, pos0) = (i32_of(prev_ref, K::Pos)?, i32_of(prev_pos, K::Pos)?);

            let (mut next_ref_id, mut next_pos0, mut tlen) = (-1, -1, 0);
            if want(K::Mate) {
                let s = col(K::Mate);
                let c = &mut cur[K::Mate.index()];
                let mut next = || {
                    get_varint(s, c)
                        .map(unzigzag)
                        .ok_or_else(|| self.corrupt(b, K::Mate, "truncated varint"))
                };
                let (nref, npos, t) = (next()?, next()?, next()?);
                (next_ref_id, next_pos0, tlen) = (i32_of(nref, K::Mate)?, i32_of(npos, K::Mate)?, t);
                if next_ref_id >= 0
                    && next_ref_id != ref_id
                    && self.header.reference_name(next_ref_id).is_none()
                {
                    return Err(self.corrupt(b, K::Mate, "next_ref_id out of range"));
                }
            }

            let mut qname: &[u8] = b"*";
            if want(K::Qname) {
                let c = &mut cur[K::Qname.index()];
                let max = u64::from(self.layout.max_qname);
                qname = take(K::Qname, c, max, "name length exceeds the layout")?;
            }

            cigar_words.clear();
            if want(K::Cigar) {
                let s = col(K::Cigar);
                let c = &mut cur[K::Cigar.index()];
                let n_ops = get_varint(s, c)
                    .ok_or_else(|| self.corrupt(b, K::Cigar, "truncated varint"))?;
                if n_ops > u64::from(self.layout.max_cigar_ops) {
                    return Err(self.corrupt(b, K::Cigar, "op count exceeds the layout"));
                }
                for _ in 0..n_ops {
                    let enc = get_varint(s, c)
                        .ok_or_else(|| self.corrupt(b, K::Cigar, "truncated varint"))?;
                    let enc = u32::try_from(enc)
                        .map_err(|_| self.corrupt(b, K::Cigar, "op outside the u32 domain"))?;
                    CigarOp::from_bam_code(enc & 0xF)
                        .map_err(|e| self.corrupt(b, K::Cigar, &e.to_string()))?;
                    cigar_words.extend_from_slice(&enc.to_le_bytes());
                }
            }

            let (mut l_seq, mut packed): (usize, &[u8]) = (0, &[]);
            if want(K::Seq) {
                let s = col(K::Seq);
                let c = &mut cur[K::Seq.index()];
                let bases = get_varint(s, c)
                    .ok_or_else(|| self.corrupt(b, K::Seq, "truncated varint"))?;
                if bases > u64::from(self.layout.max_seq) {
                    return Err(self.corrupt(b, K::Seq, "base count exceeds the layout"));
                }
                l_seq = usize::try_from(bases)
                    .map_err(|_| self.corrupt(b, K::Seq, "base count exceeds the layout"))?;
                let end = *c + l_seq.div_ceil(2);
                packed = s.get(*c..end).ok_or_else(|| self.corrupt(b, K::Seq, "truncated"))?;
                *c = end;
            }

            let mut qual = None;
            if want(K::Qual) {
                let s = col(K::Qual);
                let c = &mut cur[K::Qual.index()];
                let len = get_varint(s, c)
                    .ok_or_else(|| self.corrupt(b, K::Qual, "truncated varint"))?;
                if len > u64::from(self.layout.max_seq) {
                    return Err(self.corrupt(b, K::Qual, "length exceeds the layout"));
                }
                let len = usize::try_from(len)
                    .map_err(|_| self.corrupt(b, K::Qual, "length exceeds the layout"))?;
                if want(K::Seq) && len != 0 && len != l_seq {
                    return Err(self.corrupt(b, K::Qual, "SEQ/QUAL length mismatch"));
                }
                let bytes =
                    s.get(*c..*c + len).ok_or_else(|| self.corrupt(b, K::Qual, "truncated"))?;
                *c += len;
                // Empty means absent (the writer's convention).
                qual = (len != 0).then_some(bytes);
            }

            let mut tags: &[u8] = &[];
            if want(K::Tags) {
                let c = &mut cur[K::Tags.index()];
                let max = u64::from(self.layout.max_tags);
                tags = take(K::Tags, c, max, "tag bytes exceed the layout")?;
            }

            // CIGAR op codes were checked above and SEQ is exactly
            // `l_seq.div_ceil(2)` bytes, so what this can still reject is
            // the tag block.
            let fields = RecordFields::from_stored(StoredFields {
                flag,
                mapq,
                ref_id,
                pos0,
                next_ref_id,
                next_pos0,
                tlen,
                qname,
                cigar: &cigar_words,
                l_seq,
                seq: packed,
                qual,
                tags,
            })
            .map_err(|e| self.corrupt(b, K::Tags, &e.to_string()))?;
            if i >= rel_lo {
                f(FieldsView::new(fields, &self.header))?;
            }
        }

        // Walked streams must be fully consumed once every record in the
        // block has been decoded — trailing garbage is corruption, not
        // slack. (Only checked when the walk reached the block's end.)
        if rel_hi >= n {
            for kind in ColumnKind::ALL {
                if let Some(s) = &cols[kind.index()] {
                    if cur[kind.index()] != s.len() {
                        return Err(self.corrupt(b, kind, "trailing bytes after the last record"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Visits records `lo..hi` under a projection, one block at a time:
    /// unselected fields read as their empty defaults and their streams
    /// are never read or decompressed.
    pub(crate) fn for_each_fields(
        &self,
        lo: u64,
        hi: u64,
        set: ColumnSet,
        f: &mut impl FnMut(FieldsView<'_>) -> Result<()>,
    ) -> Result<()> {
        if lo > hi || hi > self.n_records {
            return Err(Error::InvalidRecord(format!("record range {lo}..{hi} out of bounds")));
        }
        if lo == hi {
            return Ok(());
        }
        let rpb = self.records_per_block;
        let first_block = (lo / rpb) as usize;
        let last_block = ((hi - 1) / rpb) as usize;
        for b in first_block..=last_block {
            let block_first = b as u64 * rpb;
            let rel_lo = lo.saturating_sub(block_first) as usize;
            let rel_hi = (hi - block_first).min(rpb) as usize;
            self.visit_block(b, rel_lo, rel_hi, set, f)?;
        }
        Ok(())
    }

    /// Streams `(ref_id, pos0)` keys for every record — decodes *only*
    /// the position column of each block (the projection win BAIX
    /// construction rides on).
    pub(crate) fn positions(&self) -> Result<Vec<(i32, i32)>> {
        let mut out = Vec::with_capacity(self.n_records as usize);
        for b in 0..self.blocks.len() {
            let cols = self.read_columns(b, ColumnSet::POSITIONS)?;
            let s = cols[ColumnKind::Pos.index()].as_deref().unwrap_or(&[]);
            let n = self.blocks[b].n_records as usize;
            let mut c = 0usize;
            let mut prev_ref = 0i64;
            let mut prev_pos = 0i64;
            for _ in 0..n {
                let d_ref = get_varint(s, &mut c)
                    .ok_or_else(|| self.corrupt(b, ColumnKind::Pos, "truncated varint"))?;
                let d_pos = get_varint(s, &mut c)
                    .ok_or_else(|| self.corrupt(b, ColumnKind::Pos, "truncated varint"))?;
                prev_ref += unzigzag(d_ref);
                prev_pos += unzigzag(d_pos);
                if prev_ref < i32::MIN as i64
                    || prev_ref > i32::MAX as i64
                    || prev_pos < i32::MIN as i64
                    || prev_pos > i32::MAX as i64
                {
                    return Err(self.corrupt(b, ColumnKind::Pos, "coordinate outside the i32 domain"));
                }
                out.push((prev_ref as i32, prev_pos as i32));
            }
            if c != s.len() {
                return Err(self.corrupt(b, ColumnKind::Pos, "trailing bytes after the last record"));
            }
        }
        Ok(out)
    }

    /// The per-block first position keys (ascending for coordinate-
    /// sorted shards) — exposed for block-level pruning diagnostics.
    pub(crate) fn block_first_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().map(|b| b.first_key)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ngs_formats::header::ReferenceSequence;
    use ngs_formats::sam;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 1_000_000 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 1_000_000 },
        ])
    }

    fn records(n: usize) -> Vec<AlignmentRecord> {
        (0..n)
            .map(|i| {
                let chrom = if i % 5 == 4 { "chr2" } else { "chr1" };
                let line = format!(
                    "read{i}\t{}\t{chrom}\t{}\t60\t6M2I2M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII\tNM:i:{}",
                    if i % 7 == 0 { 16 } else { 0 },
                    100 + i * 7,
                    i % 4
                );
                sam::parse_record(line.as_bytes(), 1).unwrap()
            })
            .collect()
    }

    fn write_v2(recs: &[AlignmentRecord], rpb: u32) -> Vec<u8> {
        let layout = BamxLayout::compute(recs).unwrap();
        let mut w =
            V2Writer::with_block_size(Vec::new(), header(), layout, rpb).unwrap();
        for r in recs {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap()
    }

    fn open(bytes: Vec<u8>) -> V2Reader {
        V2Reader::open_with(Box::new(bytes), "test.bamx2").unwrap()
    }

    impl V2Reader {
        /// Records `lo..hi` under `set`, owned.
        fn read_range_projected(&self, lo: u64, hi: u64, set: ColumnSet) -> Result<Vec<AlignmentRecord>> {
            use ngs_formats::view::Alignment;
            let mut out = Vec::new();
            self.for_each_fields(lo, hi, set, &mut |v| {
                out.push(v.to_record());
                Ok(())
            })?;
            Ok(out)
        }
    }

    #[test]
    fn roundtrip_across_blocks() {
        let recs = records(257); // 4 full blocks of 64 + a ragged tail
        let reader = open(write_v2(&recs, 64));
        assert_eq!(reader.len(), 257);
        assert_eq!(reader.read_range_projected(0, 257, ColumnSet::ALL).unwrap(), recs);
        // Ranges crossing block boundaries and single records.
        assert_eq!(
            reader.read_range_projected(60, 130, ColumnSet::ALL).unwrap(),
            recs[60..130]
        );
        assert_eq!(
            reader.read_range_projected(256, 257, ColumnSet::ALL).unwrap(),
            recs[256..257]
        );
    }

    #[test]
    fn empty_shard() {
        let reader = open(write_v2(&[], 64));
        assert_eq!(reader.len(), 0);
        assert!(reader.read_range_projected(0, 0, ColumnSet::ALL).unwrap().is_empty());
        assert!(reader.positions().unwrap().is_empty());
    }

    #[test]
    fn positions_match_full_decode() {
        let recs = records(150);
        let reader = open(write_v2(&recs, 32));
        let pos = reader.positions().unwrap();
        assert_eq!(pos.len(), recs.len());
        for (p, r) in pos.iter().zip(&recs) {
            assert_eq!(p.1 as i64, r.pos - 1, "{r:?}");
        }
    }

    #[test]
    fn projection_defaults_are_empty() {
        let recs = records(10);
        let reader = open(write_v2(&recs, 4));
        let set = ColumnSet::of(&[ColumnKind::Cigar]);
        let projected = reader.read_range_projected(0, 10, set).unwrap();
        for (p, r) in projected.iter().zip(&recs) {
            assert_eq!(p.flag, r.flag);
            assert_eq!(p.rname, r.rname);
            assert_eq!(p.pos, r.pos);
            assert_eq!(p.mapq, r.mapq);
            assert_eq!(p.cigar, r.cigar);
            assert!(p.qname.is_empty());
            assert!(p.seq.is_empty());
            assert!(p.tags.is_empty());
            assert_eq!(p.rnext, b"*");
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        let reader = open(write_v2(&records(10), 4));
        assert!(reader.read_range_projected(5, 11, ColumnSet::ALL).is_err());
        assert!(reader.read_range_projected(7, 3, ColumnSet::ALL).is_err());
    }

    #[test]
    fn footer_crc_flip_rejected() {
        let mut bytes = write_v2(&records(20), 8);
        let n = bytes.len();
        bytes[n - 28] ^= 0x40; // inside the footer CRC field
        assert!(V2Reader::open_with(Box::new(bytes), "t").is_err());
    }

    #[test]
    fn block_first_keys_ascend_when_sorted() {
        let mut recs = records(100);
        recs.sort_by_key(|r| (r.rname.clone(), r.pos));
        let reader = open(write_v2(&recs, 16));
        let keys: Vec<u64> = reader.block_first_keys().collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
