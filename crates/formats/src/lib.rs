//! # ngs-formats
//!
//! Sequence data format models and codecs for the parallel converter:
//!
//! * the [`record::AlignmentRecord`] model (the paper's *alignment
//!   object*), with [`flags`], [`cigar`], [`seq`] packing and typed
//!   [`tags`];
//! * [`sam`] text parsing/serialization and the [`header`] model;
//! * [`bam`] binary encode/decode over the `ngs-bgzf` substrate, plus the
//!   [`binning`] scheme BAM records and BAI-style indexes use;
//! * [`fields`]: a record's fields in BAMX form, borrowed from a BAM body
//!   or a SAM line without building a record — what preprocessing feeds
//!   the BAMX encoders;
//! * [`view`]: the [`view::Alignment`] accessor every emitter reads, and
//!   [`view::FieldsView`], a record's fields read off a BAMX shard;
//! * [`search::find_byte`]: the word-at-a-time byte search every text
//!   front-end splits lines and columns with;
//! * line-oriented target emitters: [`bed`], [`bedgraph`], [`fasta`],
//!   [`fastq`], [`json`], [`yaml`], [`wig`], [`gff`].
//!
//! Every emitter is one `emit(&impl Alignment, &mut Vec<u8>) -> bool` —
//! the exact shape of the paper's "user program" converting an alignment
//! object into a target object — returning `false` when the record has no
//! representation in that format (e.g. an unmapped read has no BED
//! interval); `write_alignment(&AlignmentRecord, ..)` is the same emitter
//! on an owned record.

pub mod bam;
pub mod bed;
pub mod bedgraph;
pub mod binning;
pub mod cigar;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod fields;
pub mod flags;
pub mod gff;
pub mod header;
pub mod json;
pub mod record;
pub mod sam;
pub mod search;
pub mod seq;
pub mod tags;
pub mod view;
pub mod wig;
pub mod yaml;

pub use cigar::{Cigar, CigarOp};
pub use error::{Error, Result};
pub use flags::Flags;
pub use header::{ReferenceSequence, SamHeader};
pub use record::AlignmentRecord;
pub use tags::{Tag, TagArray, TagValue, TagValueRef};
pub use view::{Alignment, FieldsView};
