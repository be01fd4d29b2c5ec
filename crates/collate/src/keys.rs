//! Pure key functions for the regroup workloads (DESIGN.md §10.2).
//!
//! Keys are byte strings compared lexicographically, so every function
//! here encodes its ordering into the bytes: big-endian fixed-width
//! integers for numeric fields, an order-preserving transform for
//! signed coordinates, and a hash prefix where distribution (not a
//! semantic order) is the goal. All functions are pure over the record
//! (plus the immutable header dictionary) — the same record always maps
//! to the same key, on any worker, in any run.

use std::sync::Arc;

use ngs_formats::cigar::CigarOp;
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::Flags;
use ngs_pipeline::Key;

/// FNV-1a 64-bit hash — the distribution prefix for QNAME collation
/// keys (biobambam's hash-collation idea: group mates without a full
/// lexicographic sort of all names).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-preserving byte encoding of an `i64` (flip the sign bit so
/// two's-complement order matches unsigned lexicographic order).
pub fn i64_key(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Reference id of `rname` under `header`, `u32::MAX` for unmapped or
/// unknown references, so they sort after every known reference.
pub fn tid_of(header: &SamHeader, rname: &[u8]) -> u32 {
    if rname == b"*" {
        return u32::MAX;
    }
    header.reference_id(rname).map(|i| i as u32).unwrap_or(u32::MAX)
}

/// Collation key: `fnv1a64(QNAME)` (big-endian) followed by the QNAME
/// bytes. The hash spreads names; the appended name disambiguates hash
/// collisions deterministically, so equal keys ⇔ equal QNAMEs.
pub fn collate_key(rec: &AlignmentRecord) -> Key {
    let mut k = Vec::with_capacity(8 + rec.qname.len());
    k.extend_from_slice(&fnv1a64(&rec.qname).to_be_bytes());
    k.extend_from_slice(&rec.qname);
    k
}

/// Queryname sort key: QNAME, then a `0x00` separator (below every
/// printable byte, so prefixes order before extensions exactly like
/// `Vec<u8>` comparison), then first-of-pair before second-of-pair.
pub fn name_key(rec: &AlignmentRecord) -> Key {
    let mut k = Vec::with_capacity(rec.qname.len() + 2);
    k.extend_from_slice(&rec.qname);
    k.push(0x00);
    k.push(u8::from(rec.flag.contains(Flags::SECOND_IN_PAIR)));
    k
}

/// Coordinate sort key: reference id in header order, then position;
/// unmapped and unknown references sort last, ties keep arrival order.
pub fn coord_key(header: &SamHeader, rec: &AlignmentRecord) -> Key {
    let mut k = Vec::with_capacity(12);
    k.extend_from_slice(&tid_of(header, &rec.rname).to_be_bytes());
    k.extend_from_slice(&i64_key(rec.pos));
    k
}

/// Leading soft+hard clipped bases of the CIGAR.
fn leading_clip(rec: &AlignmentRecord) -> i64 {
    let mut clip = 0i64;
    for &(n, op) in rec.cigar.0.iter() {
        match op {
            CigarOp::SoftClip | CigarOp::HardClip => clip += i64::from(n),
            _ => break,
        }
    }
    clip
}

/// Trailing soft+hard clipped bases of the CIGAR.
fn trailing_clip(rec: &AlignmentRecord) -> i64 {
    let mut clip = 0i64;
    for &(n, op) in rec.cigar.0.iter().rev() {
        match op {
            CigarOp::SoftClip | CigarOp::HardClip => clip += i64::from(n),
            _ => break,
        }
    }
    clip
}

/// Unclipped 5′ coordinate: the position the read's first sequenced
/// base would map to had the aligner not clipped it — forward reads
/// project leading clips before `pos`, reverse reads project trailing
/// clips past the alignment end. Duplicates clipped differently by the
/// aligner still collide on this coordinate.
pub fn unclipped_five_prime(rec: &AlignmentRecord) -> i64 {
    if rec.flag.is_reverse() {
        let end = rec.pos + (rec.cigar.reference_len() as i64).max(1) - 1;
        end + trailing_clip(rec)
    } else {
        rec.pos - leading_clip(rec)
    }
}

/// Leading tag byte of a duplicate-signature key for records exempt
/// from marking (unmapped or non-primary): they group by QNAME only so
/// no cross-read group ever forms around them.
const SIG_EXEMPT: u8 = 0x00;
/// Leading tag byte for markable (primary, mapped) records.
const SIG_MAPPED: u8 = 0x01;

/// Duplicate signature key (DESIGN.md §10.4): reference id, unclipped
/// 5′ coordinate, strand, and the mate's `(tid, PNEXT)` coordinate (or
/// a no-mate marker). Primary mapped records sharing all components are
/// one duplicate group; unmapped and non-primary records get an
/// exempt-tagged key and are never marked.
pub fn signature_key(header: &SamHeader, rec: &AlignmentRecord) -> Key {
    let mut k = Vec::with_capacity(28);
    if rec.is_unmapped() || rec.flag.is_non_primary() {
        k.push(SIG_EXEMPT);
        k.extend_from_slice(&rec.qname);
        return k;
    }
    k.push(SIG_MAPPED);
    k.extend_from_slice(&tid_of(header, &rec.rname).to_be_bytes());
    k.extend_from_slice(&i64_key(unclipped_five_prime(rec)));
    k.push(u8::from(rec.flag.is_reverse()));
    let has_mate =
        rec.flag.is_paired() && !rec.flag.contains(Flags::MATE_UNMAPPED) && rec.rnext != b"*";
    k.push(u8::from(has_mate));
    if has_mate {
        let mate_tid = if rec.rnext == b"=" {
            tid_of(header, &rec.rname)
        } else {
            tid_of(header, &rec.rnext)
        };
        k.extend_from_slice(&mate_tid.to_be_bytes());
        k.extend_from_slice(&i64_key(rec.pnext));
    }
    k
}

/// True when `signature_key` tagged this key markable (a duplicate
/// group may form on it).
pub fn is_markable_signature(key: &[u8]) -> bool {
    key.first() == Some(&SIG_MAPPED)
}

/// Key factory: the pure per-record key function of each workload,
/// closed over the shared header dictionary.
pub fn key_fn_for(
    workload: crate::Workload,
    header: Arc<SamHeader>,
) -> Arc<dyn Fn(&AlignmentRecord) -> Key + Send + Sync> {
    match workload {
        crate::Workload::Collate => Arc::new(collate_key),
        crate::Workload::MarkDup => {
            Arc::new(move |rec| signature_key(&header, rec))
        }
        crate::Workload::Sort(crate::SortBy::Coordinate) => {
            Arc::new(move |rec| coord_key(&header, rec))
        }
        crate::Workload::Sort(crate::SortBy::QueryName) => Arc::new(name_key),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ngs_formats::cigar::Cigar;
    use ngs_formats::header::ReferenceSequence;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 1000 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 1000 },
        ])
    }

    fn rec(qname: &[u8], rname: &[u8], pos: i64, cigar: &str, flag: u16) -> AlignmentRecord {
        let mut r = AlignmentRecord::mapped(
            qname,
            rname,
            pos,
            30,
            Cigar::parse(cigar.as_bytes()).unwrap(),
            b"ACGT",
            &[30, 30, 30, 30],
        );
        r.flag = Flags(flag);
        r
    }

    #[test]
    fn i64_key_preserves_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        for w in vals.windows(2) {
            assert!(i64_key(w[0]) < i64_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn collate_key_equal_iff_qname_equal() {
        let a = rec(b"r1", b"chr1", 10, "4M", 0);
        let b = rec(b"r1", b"chr2", 99, "2S2M", 16);
        let c = rec(b"r2", b"chr1", 10, "4M", 0);
        assert_eq!(collate_key(&a), collate_key(&b));
        assert_ne!(collate_key(&a), collate_key(&c));
    }

    #[test]
    fn name_key_orders_like_qname_then_pair_bit() {
        let ab = rec(b"ab", b"chr1", 1, "4M", 0x40 | 0x1);
        let ab2 = rec(b"ab", b"chr1", 1, "4M", 0x80 | 0x1);
        let abc = rec(b"abc", b"chr1", 1, "4M", 0x40 | 0x1);
        assert!(name_key(&ab) < name_key(&ab2), "first before second");
        assert!(name_key(&ab2) < name_key(&abc), "prefix before extension");
    }

    #[test]
    fn coord_key_orders_tid_then_pos_unmapped_last() {
        let h = header();
        let a = rec(b"a", b"chr1", 500, "4M", 0);
        let b = rec(b"b", b"chr2", 10, "4M", 0);
        let mut u = rec(b"u", b"*", 0, "4M", 0x4);
        u.rname = b"*".to_vec();
        assert!(coord_key(&h, &a) < coord_key(&h, &b));
        assert!(coord_key(&h, &b) < coord_key(&h, &u));
    }

    #[test]
    fn unclipped_five_prime_projects_clips() {
        // Forward, 3S5M at pos 100: unclipped start 97.
        let fwd = rec(b"f", b"chr1", 100, "3S5M", 0);
        assert_eq!(unclipped_five_prime(&fwd), 97);
        // Reverse, 5M3S at pos 100: end 104, unclipped 5' = 107.
        let rev = rec(b"r", b"chr1", 100, "5M3S", 0x10);
        assert_eq!(unclipped_five_prime(&rev), 107);
        // Hard clips count too.
        let hard = rec(b"h", b"chr1", 50, "2H4M", 0);
        assert_eq!(unclipped_five_prime(&hard), 48);
    }

    #[test]
    fn signature_groups_differently_clipped_duplicates() {
        let h = header();
        let a = rec(b"a", b"chr1", 100, "8M", 0x1 | 0x40 | 0x20);
        let mut b = rec(b"b", b"chr1", 98, "2S6M", 0x1 | 0x40 | 0x20);
        // b's aligned start is 98 with 2 soft-clipped leading bases →
        // same unclipped 5' as a at 100? No: 98 - 2 = 96 ≠ 100. Align it:
        b.pos = 102;
        // 102 - 2 = 100 — same unclipped 5'.
        let (mut a, mut b) = (a, b);
        a.rnext = b"=".to_vec();
        a.pnext = 300;
        b.rnext = b"=".to_vec();
        b.pnext = 300;
        assert_eq!(signature_key(&h, &a), signature_key(&h, &b));
        // Different mate coordinate → different signature.
        let mut c = a.clone();
        c.pnext = 301;
        assert_ne!(signature_key(&h, &a), signature_key(&h, &c));
        assert!(is_markable_signature(&signature_key(&h, &a)));
    }

    #[test]
    fn exempt_records_never_markable() {
        let h = header();
        let mut unmapped = rec(b"u", b"*", 0, "4M", 0x4);
        unmapped.cigar = Cigar::empty();
        let secondary = rec(b"s", b"chr1", 10, "4M", 0x100);
        assert!(!is_markable_signature(&signature_key(&h, &unmapped)));
        assert!(!is_markable_signature(&signature_key(&h, &secondary)));
    }
}
