//! Spill payload codec for alignment records.
//!
//! Spilled runs store records in BAM body encoding (block-size prefix +
//! body), the same bytes `BamWriter` emits per record — an encoding the
//! corruption suites already prove round-trips exactly. Byte-identity of
//! collate output across spill budgets rests on that exact round-trip.

use std::sync::Arc;

use ngs_formats::bam;
use ngs_formats::error::{DecodeErrorKind, Error, Result};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_pipeline::SpillCodec;

/// [`SpillCodec`] encoding [`AlignmentRecord`]s against a fixed header
/// dictionary.
pub struct RecordCodec {
    /// The header every spilled record resolves references against.
    pub header: Arc<SamHeader>,
}

impl SpillCodec<AlignmentRecord> for RecordCodec {
    fn encode(&self, item: &AlignmentRecord, out: &mut Vec<u8>) -> Result<()> {
        bam::encode_record(item, &self.header, out)
    }

    fn decode(&self, bytes: &[u8], context: &str) -> Result<AlignmentRecord> {
        if bytes.len() < 4 {
            return Err(Error::decode(
                DecodeErrorKind::Truncated,
                0,
                context.to_string(),
                format!("record payload shorter than its prefix ({} bytes)", bytes.len()),
            ));
        }
        bam::decode_record(&bytes[4..], &self.header)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ngs_simgen::{Dataset, DatasetSpec};

    #[test]
    fn codec_round_trips_generated_records() {
        let ds = Dataset::generate(&DatasetSpec { n_records: 60, ..Default::default() });
        let codec = RecordCodec { header: Arc::new(ds.header()) };
        let mut buf = Vec::new();
        for rec in &ds.records {
            buf.clear();
            codec.encode(rec, &mut buf).unwrap();
            let back = codec.decode(&buf, "test").unwrap();
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let ds = Dataset::generate(&DatasetSpec { n_records: 1, ..Default::default() });
        let codec = RecordCodec { header: Arc::new(ds.header()) };
        assert!(codec.decode(&[1, 2], "test").is_err());
    }
}
