//! # ngs-fault
//!
//! Deterministic, seeded fault injection for hardening the decode paths
//! that the paper's random-access story depends on (DESIGN.md §7).
//!
//! A [`FaultPlan`] is a declarative list of [`Fault`]s — truncations, bit
//! flips, zero runs, short reads, and transient I/O errors that recover
//! after N attempts. Plans are replayable: [`FaultPlan::random`] derives a
//! plan from a seed using the same xoshiro discipline as `ngs-simgen`, so
//! any failure found by the corruption corpus reproduces from its seed
//! alone.
//!
//! Plans apply at two levels:
//!
//! * **Byte level** — [`FaultPlan::corrupt`] transforms a byte buffer
//!   (truncate / flip / zero), for tests that corrupt a shard on disk.
//! * **I/O level** — [`FaultyFile`] wraps any [`ngs_bgzf::ReadAt`] source
//!   and [`FaultyRead`] wraps any [`std::io::Read`], injecting the same
//!   faults plus short reads and transient errors in flight. This is how
//!   `ShardStore` retry/quarantine behaviour is exercised without touching
//!   the filesystem.
//! * **Write level** — [`FaultyWrite`] wraps any [`std::io::Write`] and
//!   [`FaultyFs`] implements `ngs_bamx::repo::RepoFs`, injecting crashes
//!   at a deterministic byte ([`Fault::CrashAtByte`]), silent tail loss
//!   ([`Fault::TornWrite`]), and transient fsync/rename failures — the
//!   power-cut side of the failure model (DESIGN.md §7.5). Plans come
//!   from [`FaultPlan::random_write`]; the read-side [`FaultPlan::random`]
//!   distribution is untouched so existing seeded corpora replay.
//! * **Delivery level** — [`FaultyTransport`] wraps any
//!   `ngs_cluster::Transport`, injecting dropped, duplicated, and
//!   delayed sends plus mid-frame disconnects on recv
//!   ([`FaultPlan::random_transport`]) — the wire's failure weather
//!   (DESIGN.md §12), routed through the same
//!   transient-vs-structural contract.
//!
//! ```
//! use ngs_fault::{Fault, FaultPlan};
//!
//! let plan = FaultPlan::new(vec![Fault::BitFlip { offset: 3, mask: 0x80 }]);
//! assert_eq!(plan.corrupt(b"AAAAAA"), b"AAA\xC1AA");
//! // The same plan regenerates from its seed forever.
//! assert_eq!(FaultPlan::random(42, 1024), FaultPlan::random(42, 1024));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod file;
pub mod fs;
pub mod plan;
pub mod read;
pub mod transport;
pub mod write;

pub use file::FaultyFile;
pub use fs::FaultyFs;
pub use plan::{Fault, FaultPlan};
pub use read::FaultyRead;
pub use transport::FaultyTransport;
pub use write::{FaultyWrite, WriteState};
