//! Target formats and the "user program" abstraction.
//!
//! The paper's runtime/user-program split: the runtime partitions, loads,
//! parses and writes; the user program converts each *alignment object*
//! into a *target object*. [`RecordConverter`] is that user program; the
//! built-in targets cover every format the paper lists — the eight of the
//! abstract plus the WIG and GFF formats its background section names —
//! and implementing the trait adds a new format with no changes to the
//! runtime (the paper's extendibility claim).

use ngs_bamx::{ColumnKind, ColumnSet};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::view::{Alignment, FieldsView};
use ngs_formats::{bed, bedgraph, fasta, fastq, gff, json, sam, wig, yaml};

/// The built-in conversion targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetFormat {
    /// SAM text.
    Sam,
    /// BAM binary (BGZF-compressed); handled specially by the runtime
    /// because output is not line-oriented.
    Bam,
    /// BED6 intervals.
    Bed,
    /// BEDGRAPH coverage lines.
    BedGraph,
    /// FASTA sequences.
    Fasta,
    /// FASTQ sequences + qualities.
    Fastq,
    /// Newline-delimited JSON objects.
    Json,
    /// A YAML sequence of mappings.
    Yaml,
    /// UCSC wiggle tracks.
    Wig,
    /// GFF3 features.
    Gff,
}

impl TargetFormat {
    /// All targets, in the paper's enumeration order.
    pub const ALL: [TargetFormat; 10] = [
        TargetFormat::Sam,
        TargetFormat::Bam,
        TargetFormat::Bed,
        TargetFormat::BedGraph,
        TargetFormat::Fasta,
        TargetFormat::Fastq,
        TargetFormat::Json,
        TargetFormat::Yaml,
        TargetFormat::Wig,
        TargetFormat::Gff,
    ];

    /// Conventional file extension.
    pub fn extension(self) -> &'static str {
        match self {
            TargetFormat::Sam => "sam",
            TargetFormat::Bam => "bam",
            TargetFormat::Bed => "bed",
            TargetFormat::BedGraph => "bedgraph",
            TargetFormat::Fasta => "fa",
            TargetFormat::Fastq => "fastq",
            TargetFormat::Json => "json",
            TargetFormat::Yaml => "yaml",
            TargetFormat::Wig => "wig",
            TargetFormat::Gff => "gff3",
        }
    }

    /// Parses a user-facing name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sam" => TargetFormat::Sam,
            "bam" => TargetFormat::Bam,
            "bed" => TargetFormat::Bed,
            "bedgraph" | "bdg" => TargetFormat::BedGraph,
            "fasta" | "fa" => TargetFormat::Fasta,
            "fastq" | "fq" => TargetFormat::Fastq,
            "json" | "ndjson" => TargetFormat::Json,
            "yaml" | "yml" => TargetFormat::Yaml,
            "wig" | "wiggle" => TargetFormat::Wig,
            "gff" | "gff3" => TargetFormat::Gff,
            _ => return None,
        })
    }
}

/// The user program: converts one alignment object into target bytes.
///
/// Implementations must be pure per record (no cross-record state) — the
/// property that makes conversion embarrassingly parallel after
/// partitioning.
pub trait RecordConverter: Send + Sync {
    /// Appends the target representation of `record` to `out`
    /// (newline-terminated for line formats). Returns `false` when the
    /// record has no representation (e.g. unmapped → BED).
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool;

    /// [`convert`](Self::convert) of one record read off a BAMX shard,
    /// as fields borrowed from the shard bytes — what the conversion
    /// runtime calls for every BAMX record. The default builds the owned
    /// record ([`Alignment::to_record`]) and converts that, so a
    /// converter that implements only `convert` works unchanged; the
    /// built-in targets override it to emit straight from the fields,
    /// with the same bytes.
    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        self.convert(&view.to_record(), out)
    }

    /// Bytes to emit once at the head of the *first* output file (e.g.
    /// the SAM header).
    fn prologue(&self, _header: &SamHeader, _out: &mut Vec<u8>) {}

    /// Conventional extension for output files.
    fn extension(&self) -> &'static str;

    /// The record columns this converter actually reads — the projection
    /// handed to v2 BAMX shards so unused streams are never decompressed
    /// (flags + coordinates always decode; declaring them is free).
    /// Defaults to every column; override only when [`convert`](Self::
    /// convert) provably ignores fields, because an understated set
    /// silently feeds the converter empty defaults.
    fn columns(&self) -> ColumnSet {
        ColumnSet::ALL
    }
}

/// SAM text target.
pub struct ToSam;

impl RecordConverter for ToSam {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        sam::write_record(record, out);
        out.push(b'\n');
        true
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        sam::emit(view, out);
        out.push(b'\n');
        true
    }

    fn prologue(&self, header: &SamHeader, out: &mut Vec<u8>) {
        out.extend_from_slice(header.text.as_bytes());
    }

    fn extension(&self) -> &'static str {
        "sam"
    }
}

/// BED6 target.
pub struct ToBed;

impl RecordConverter for ToBed {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        bed::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        bed::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "bed"
    }

    fn columns(&self) -> ColumnSet {
        // BED6: chrom/start come from the coordinates, end from the
        // CIGAR span, name from qname, score from mapq, strand from
        // flags.
        ColumnSet::of(&[ColumnKind::Cigar, ColumnKind::Qname])
    }
}

/// BEDGRAPH target.
pub struct ToBedGraph;

impl RecordConverter for ToBedGraph {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        bedgraph::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        bedgraph::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "bedgraph"
    }

    fn columns(&self) -> ColumnSet {
        // Coverage intervals need only the coordinates + CIGAR span.
        ColumnSet::of(&[ColumnKind::Cigar])
    }
}

/// FASTA target.
pub struct ToFasta;

impl RecordConverter for ToFasta {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        fasta::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        fasta::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "fa"
    }

    fn columns(&self) -> ColumnSet {
        // `>qname` + the (strand-corrected) sequence.
        ColumnSet::of(&[ColumnKind::Qname, ColumnKind::Seq])
    }
}

/// FASTQ target.
pub struct ToFastq;

impl RecordConverter for ToFastq {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        fastq::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        fastq::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "fastq"
    }

    fn columns(&self) -> ColumnSet {
        ColumnSet::of(&[ColumnKind::Qname, ColumnKind::Seq, ColumnKind::Qual])
    }
}

/// NDJSON target.
pub struct ToJson;

impl RecordConverter for ToJson {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        json::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        json::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "json"
    }
}

/// YAML target.
pub struct ToYaml;

impl RecordConverter for ToYaml {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        yaml::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        yaml::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "yaml"
    }
}

/// WIG target (per-alignment variableStep fragments).
pub struct ToWig;

impl RecordConverter for ToWig {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        wig::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        wig::emit(view, out)
    }

    fn extension(&self) -> &'static str {
        "wig"
    }

    fn columns(&self) -> ColumnSet {
        ColumnSet::of(&[ColumnKind::Cigar])
    }
}

/// GFF3 target.
pub struct ToGff;

impl RecordConverter for ToGff {
    fn convert(&self, record: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
        gff::write_alignment(record, out)
    }

    fn convert_fields(&self, view: &FieldsView<'_>, out: &mut Vec<u8>) -> bool {
        gff::emit(view, out)
    }

    fn prologue(&self, _header: &SamHeader, out: &mut Vec<u8>) {
        out.extend_from_slice(gff::VERSION_PRAGMA.as_bytes());
    }

    fn extension(&self) -> &'static str {
        "gff3"
    }
}

/// Returns the built-in converter for a line-oriented target format.
/// `Bam` returns `None` — binary BAM output takes the dedicated path in
/// the runtime (it needs BGZF framing and per-file headers).
pub fn builtin(format: TargetFormat) -> Option<Box<dyn RecordConverter>> {
    Some(match format {
        TargetFormat::Sam => Box::new(ToSam),
        TargetFormat::Bed => Box::new(ToBed),
        TargetFormat::BedGraph => Box::new(ToBedGraph),
        TargetFormat::Fasta => Box::new(ToFasta),
        TargetFormat::Fastq => Box::new(ToFastq),
        TargetFormat::Json => Box::new(ToJson),
        TargetFormat::Yaml => Box::new(ToYaml),
        TargetFormat::Wig => Box::new(ToWig),
        TargetFormat::Gff => Box::new(ToGff),
        TargetFormat::Bam => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_formats::sam::parse_record;

    fn sample() -> AlignmentRecord {
        parse_record(
            b"read1\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\tNM:i:0",
            1,
        )
        .unwrap()
    }

    #[test]
    fn extension_and_parse_consistent() {
        for f in TargetFormat::ALL {
            assert_eq!(TargetFormat::parse(f.extension()), Some(f), "{f:?}");
        }
        assert_eq!(TargetFormat::parse("BEDGRAPH"), Some(TargetFormat::BedGraph));
        assert_eq!(TargetFormat::parse("nope"), None);
    }

    #[test]
    fn builtin_covers_line_formats() {
        for f in TargetFormat::ALL {
            if f == TargetFormat::Bam {
                assert!(builtin(f).is_none());
            } else {
                let c = builtin(f).unwrap();
                let mut out = Vec::new();
                assert!(c.convert(&sample(), &mut out));
                assert!(!out.is_empty());
                assert!(out.ends_with(b"\n"), "{f:?} output must be line-oriented");
            }
        }
    }

    #[test]
    fn sam_prologue_is_header() {
        let header = SamHeader::parse("@SQ\tSN:chr1\tLN:500\n").unwrap();
        let mut out = Vec::new();
        ToSam.prologue(&header, &mut out);
        assert_eq!(out, header.text.as_bytes());
        // Line targets like BED have no prologue.
        let mut out = Vec::new();
        ToBed.prologue(&header, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn custom_converter_plugs_in() {
        // The paper's extendibility claim: a user-defined format is just a
        // trait impl.
        struct ToNameLength;
        impl RecordConverter for ToNameLength {
            fn convert(&self, r: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
                out.extend_from_slice(format!("{} {}\n", String::from_utf8_lossy(&r.qname), r.seq.len()).as_bytes());
                true
            }
            fn extension(&self) -> &'static str {
                "txt"
            }
        }
        let mut out = Vec::new();
        assert!(ToNameLength.convert(&sample(), &mut out));
        assert_eq!(out, b"read1 4\n");
    }
}
