//! # ngs-cluster
//!
//! A message-passing rank runtime over OS threads, standing in for the
//! paper's MPI cluster (AMD Opteron, up to 256 cores / 32 nodes).
//!
//! **Substitution note (see DESIGN.md §2):** ranks share one address
//! space, but algorithms communicate *only* through the [`Transport`]
//! API — point-to-point sends, barriers, gathers and reductions — so the
//! boundary-exchange of the SAM partitioner (Algorithm 1), the halo
//! replication of parallel NL-means, and the two-level reduction of
//! Algorithm 2 all execute their distributed communication patterns
//! faithfully.
//!
//! ```
//! use ngs_cluster::{run_ranks, Transport};
//!
//! let sums = run_ranks(4, |comm| {
//!     comm.all_reduce_sum_u64(0, comm.rank() as u64).unwrap()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

pub mod comm;
pub mod mailbox;
pub mod scope;
pub mod transport;

pub use comm::Communicator;
pub use mailbox::{Mailbox, PeerDeath, PeerLeft};
pub use scope::{first_cause, run_ranks, time_ranks, RankTimes};
pub use transport::{Transport, BARRIER_TAG, RESERVED_TAG_BASE};
