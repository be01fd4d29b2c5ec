//! Property tests over the tools crate: flagstat must be invariant under
//! reordering.

use proptest::prelude::*;

use ngs_formats::cigar::{Cigar, CigarOp};
use ngs_formats::flags::Flags;
use ngs_formats::record::AlignmentRecord;
use ngs_tools::flagstat;

prop_compose! {
    fn arb_record()(
        name_num in 0u32..500,
        chrom in 0usize..3, // 2 == unmapped
        pos in 1i64..1_000_000,
        flag_bits in 0u16..0x800,
    ) -> AlignmentRecord {
        let mut rec = AlignmentRecord {
            qname: format!("r{name_num}").into_bytes(),
            flag: Flags(flag_bits),
            rname: b"*".to_vec(),
            pos: 0,
            mapq: 60,
            cigar: Cigar::empty(),
            rnext: b"*".to_vec(),
            pnext: 0,
            tlen: 0,
            seq: b"ACGT".to_vec(),
            qual: vec![30; 4],
            tags: Vec::new(),
        };
        if chrom < 2 {
            rec.flag = Flags(flag_bits & !0x4);
            rec.rname = if chrom == 0 { b"chr1".to_vec() } else { b"chr2".to_vec() };
            rec.pos = pos;
            rec.cigar = Cigar(vec![(4, CigarOp::Match)]);
        } else {
            rec.flag = Flags(flag_bits | 0x4);
        }
        rec
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flagstat_is_order_invariant(records in proptest::collection::vec(arb_record(), 0..200)) {
        let base = flagstat(&records);
        let mut reversed = records.clone();
        reversed.reverse();
        prop_assert_eq!(flagstat(&reversed), base);
        // Invariants that must always hold.
        prop_assert!(base.mapped <= base.total);
        prop_assert!(base.read1 + base.read2 <= 2 * base.paired);
        prop_assert!(base.properly_paired <= base.paired);
        prop_assert!(base.singletons <= base.paired);
    }
}
