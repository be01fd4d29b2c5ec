//! # ngs-dist
//!
//! The [`Transport`](ngs_cluster::Transport) seam over a real wire
//! (DESIGN.md §12): the paper's two algorithms need only message
//! passing — Algorithm 1's boundary exchange and Algorithm 2's fused
//! reduction — and this crate proves that seam holds past the process
//! boundary.
//!
//! * [`frame`] / [`socket`] — length-prefixed framed messages over
//!   loopback TCP behind the `Transport` trait; panic-free decode with
//!   transient-vs-structural error classification.
//! * [`rpc`] — one req-id'd query hop over any `Transport`, resilient
//!   to dropped/duplicated/delayed delivery and byte-identical to
//!   [`serve_query`] run locally.

pub mod frame;
pub mod rpc;
pub mod socket;

pub use frame::{encode_frame, Frame, FrameDecoder};
pub use rpc::{serve_query, DistClient, DistQuery};
pub use socket::SocketTransport;
