//! Request/response RPC over any [`Transport`]: one query hop across
//! the wire, answered by the same [`serve_query`] a rank runs locally.
//!
//! One client rank addresses per-rank servers under two reserved tags.
//! Every request carries a `req_id`; responses echo it, which is what
//! makes delivery faults survivable: a duplicated response is discarded
//! by id, a lost response is recovered by re-sending the same id (the
//! server re-executes idempotently — queries are pure reads), and a
//! dropped send surfaces as a transient error the client simply
//! retries. The `ngs-fault` transport matrix (`FaultyTransport`)
//! exercises exactly these paths.
//!
//! Request/response decoding follows the workspace decode policy:
//! panic-free on arbitrary bytes with typed errors, and response
//! `status` preserves the server-side transient-vs-structural
//! classification across the wire, so `Error::is_transient` answers
//! the same on the client as on the server.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use ngs_bamx::Region;
use ngs_cluster::Transport;
use ngs_converter::bam_converter::convert_index_list;
use ngs_converter::{ConvertConfig, TargetFormat};
use ngs_formats::error::{DecodeErrorKind, Error, Result};
use ngs_query::ShardStore;

/// Tag for client→server request frames.
const REQ_TAG: u64 = 0xD157_0001;
/// Tag for server→client response frames.
const RESP_TAG: u64 = 0xD157_0002;

/// Send/recv attempts per request before the client gives up on a rank
/// (bounds retry loops under injected delivery faults).
const MAX_ATTEMPTS: u32 = 8;

const OP_QUERY: u8 = 1;
const OP_SHUTDOWN: u8 = 2;

const STATUS_OK: u8 = 0;
const STATUS_TRANSIENT: u8 = 1;
const STATUS_STRUCTURAL: u8 = 2;

/// One query: convert `region` of `dataset` to `format`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistQuery {
    /// Dataset (shard) name.
    pub dataset: String,
    /// Region text, e.g. `chr1:100-5000` or `chr1`.
    pub region: String,
    /// Output format.
    pub format: TargetFormat,
}

/// Executes one query against a rank's store, returning the converted
/// bytes. The RPC server ([`serve`]) answers every query through it, so
/// the bytes that cross the wire are the bytes a local call returns.
pub fn serve_query(
    store: &ShardStore,
    query: &DistQuery,
    convert: &ConvertConfig,
    out_dir: &Path,
) -> Result<Vec<u8>> {
    let (shard, _hit) = store.get(&query.dataset)?;
    let region = Region::parse(&query.region, shard.bamx.header())?;
    let ref_id = region.resolve(shard.bamx.header())?;
    let indices = shard.baix.shard_indices(shard.baix.locate(ref_id, &region));
    std::fs::create_dir_all(out_dir)?;
    // Same stem formula as the query engine / one-shot partial
    // conversion, so part files are byte-identical across serving modes.
    let stem =
        format!("{}.{}", query.dataset, region.to_string().replace([':', '-'], "_"));
    let (_stats, path) =
        convert_index_list(&shard.bamx, &indices, query.format, out_dir, &stem, 0, true, convert)?;
    Ok(std::fs::read(path)?)
}

/// Panic-free cursor over a message payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn err(&self, what: &str) -> Error {
        Error::decode(
            DecodeErrorKind::Truncated,
            self.pos as u64,
            "dist rpc message",
            format!("{what}: message is {} bytes", self.buf.len()),
        )
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.err(what))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.err(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn str16(&mut self, what: &str) -> Result<String> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            Error::decode(
                DecodeErrorKind::Corrupt,
                self.pos as u64,
                "dist rpc message",
                format!("{what}: not UTF-8"),
            )
        })
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Request {
    /// Execute a query and respond with the converted bytes.
    Query {
        /// Echoed in the response for duplicate/stale discarding.
        req_id: u64,
        /// The query to serve.
        query: DistQuery,
    },
    /// Stop serving after acknowledging.
    Shutdown {
        /// Echoed in the ack.
        req_id: u64,
    },
}

/// Encodes a request payload.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Query { req_id, query } => {
            out.push(OP_QUERY);
            out.extend_from_slice(&req_id.to_le_bytes());
            for field in [&query.dataset, &query.region] {
                out.extend_from_slice(&(field.len() as u16).to_le_bytes());
                out.extend_from_slice(field.as_bytes());
            }
            let fmt = query.format.extension();
            out.extend_from_slice(&(fmt.len() as u16).to_le_bytes());
            out.extend_from_slice(fmt.as_bytes());
        }
        Request::Shutdown { req_id } => {
            out.push(OP_SHUTDOWN);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
    }
    out
}

/// Decodes a request payload (panic-free, typed errors).
fn decode_request(bytes: &[u8]) -> Result<Request> {
    let mut c = Cursor::new(bytes);
    let op = c.u8("op")?;
    let req_id = c.u64("req_id")?;
    match op {
        OP_QUERY => {
            let dataset = c.str16("dataset")?;
            let region = c.str16("region")?;
            let fmt_name = c.str16("format")?;
            let format = TargetFormat::parse(&fmt_name)
                .or_else(|| {
                    // `extension()` names that differ from parse names.
                    TargetFormat::ALL.iter().copied().find(|f| f.extension() == fmt_name)
                })
                .ok_or_else(|| {
                    Error::decode(
                        DecodeErrorKind::Corrupt,
                        0,
                        "dist rpc message",
                        format!("unknown target format {fmt_name:?}"),
                    )
                })?;
            Ok(Request::Query { req_id, query: DistQuery { dataset, region, format } })
        }
        OP_SHUTDOWN => Ok(Request::Shutdown { req_id }),
        other => Err(Error::decode(
            DecodeErrorKind::Corrupt,
            0,
            "dist rpc message",
            format!("unknown rpc op {other}"),
        )),
    }
}

/// Classified server-side failure as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WireError {
    /// Transient server-side failure (worth a retry).
    Transient(String),
    /// Structural server-side failure (the data is damaged *there*).
    Structural(String),
}

impl WireError {
    fn into_error(self) -> Error {
        match self {
            WireError::Transient(msg) => Error::Io(std::io::Error::other(msg)),
            WireError::Structural(msg) => Error::InvalidRecord(msg),
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Response {
    /// Echo of the request id.
    req_id: u64,
    /// `Ok(bytes)` or the classified error.
    outcome: std::result::Result<Vec<u8>, WireError>,
}

/// Encodes a response payload; errors carry their transient flag, so
/// the classification crosses the wire intact.
fn encode_response(req_id: u64, outcome: &Result<Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&req_id.to_le_bytes());
    match outcome {
        Ok(bytes) => {
            out.push(STATUS_OK);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Err(e) => {
            out.push(if e.is_transient() { STATUS_TRANSIENT } else { STATUS_STRUCTURAL });
            let msg = e.to_string();
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
    }
    out
}

/// Decodes a response payload (panic-free, typed errors).
fn decode_response(bytes: &[u8]) -> Result<Response> {
    let mut c = Cursor::new(bytes);
    let req_id = c.u64("req_id")?;
    let status = c.u8("status")?;
    let len = c.u32("body length")? as usize;
    let body = c.take(len, "body")?;
    let outcome = match status {
        STATUS_OK => Ok(body.to_vec()),
        STATUS_TRANSIENT => Err(WireError::Transient(String::from_utf8_lossy(body).into_owned())),
        STATUS_STRUCTURAL => {
            Err(WireError::Structural(String::from_utf8_lossy(body).into_owned()))
        }
        other => {
            return Err(Error::decode(
                DecodeErrorKind::Corrupt,
                0,
                "dist rpc message",
                format!("unknown response status {other}"),
            ))
        }
    };
    Ok(Response { req_id, outcome })
}

/// Serves queries for one rank until the client sends `Shutdown` or
/// disappears (transient recv failure → clean return; a vanished
/// client is not a server error). Requests are re-executed on duplicate
/// delivery — queries are pure reads, so re-execution is idempotent
/// and responses for the same `req_id` are byte-identical.
pub fn serve<T: Transport>(
    transport: &T,
    client: usize,
    store: &ShardStore,
    convert: &ConvertConfig,
    out_dir: &Path,
) -> Result<()> {
    loop {
        let msg = match transport.recv(client, REQ_TAG) {
            Ok(m) => m,
            Err(e) if e.is_transient() => return Ok(()),
            Err(e) => return Err(e),
        };
        let (req_id, outcome) = match decode_request(&msg) {
            Ok(Request::Shutdown { req_id }) => {
                let _ = transport.send(client, RESP_TAG, encode_response(req_id, &Ok(Vec::new())));
                return Ok(());
            }
            Ok(Request::Query { req_id, query }) => {
                (req_id, serve_query(store, &query, convert, out_dir))
            }
            // A malformed request still gets a (structural) response so
            // the client fails instead of hanging.
            Err(e) => (0, Err(e)),
        };
        let resp = encode_response(req_id, &outcome);
        // A failed response send means the client is gone; nothing
        // useful remains to serve it.
        if transport.send(client, RESP_TAG, resp).is_err() {
            return Ok(());
        }
    }
}

/// Client half: sends requests to per-rank servers with bounded retry
/// on transient delivery faults and stale/duplicate-response
/// discarding.
pub struct DistClient<'a, T: Transport> {
    transport: &'a T,
    next_id: AtomicU64,
}

impl<'a, T: Transport> DistClient<'a, T> {
    /// A client over `transport` (ids start at 1).
    pub fn new(transport: &'a T) -> Self {
        DistClient { transport, next_id: AtomicU64::new(1) }
    }

    fn round_trip(&self, server: usize, payload: Vec<u8>, req_id: u64) -> Result<Response> {
        let mut last_err: Option<Error> = None;
        for _ in 0..MAX_ATTEMPTS {
            // A dropped send is transient: the message was NOT
            // delivered, so retrying cannot duplicate work.
            if let Err(e) = self.transport.send(server, REQ_TAG, payload.clone()) {
                if e.is_transient() {
                    last_err = Some(e);
                    continue;
                }
                return Err(e);
            }
            loop {
                match self.transport.recv(server, RESP_TAG) {
                    // Stale or duplicated response: discard by id.
                    Ok(bytes) => match decode_response(&bytes) {
                        Ok(resp) if resp.req_id != req_id => continue,
                        Ok(resp) => return Ok(resp),
                        Err(e) => return Err(e),
                    },
                    // Lost response (e.g. mid-frame disconnect):
                    // re-send the same id; the server re-executes
                    // idempotently.
                    Err(e) if e.is_transient() => {
                        last_err = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            Error::Io(std::io::Error::other(format!("rank {server}: retries exhausted")))
        }))
    }

    /// Executes `query` on `server`, returning the converted bytes.
    /// Transport-level faults are retried up to [`MAX_ATTEMPTS`];
    /// server-side errors come back with their classification intact.
    pub fn query(&self, server: usize, query: &DistQuery) -> Result<Vec<u8>> {
        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let payload = encode_request(&Request::Query { req_id, query: query.clone() });
        let resp = self.round_trip(server, payload, req_id)?;
        resp.outcome.map_err(WireError::into_error)
    }

    /// Asks `server` to stop serving (best effort: a dead server
    /// already stopped).
    pub fn shutdown(&self, server: usize) -> Result<()> {
        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let payload = encode_request(&Request::Shutdown { req_id });
        match self.round_trip(server, payload, req_id) {
            Ok(_) => Ok(()),
            Err(e) if e.is_transient() => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Query {
            req_id: 42,
            query: DistQuery {
                dataset: "d1".into(),
                region: "chr1:5-99".into(),
                format: TargetFormat::Sam,
            },
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let sd = Request::Shutdown { req_id: 7 };
        assert_eq!(decode_request(&encode_request(&sd)).unwrap(), sd);
    }

    #[test]
    fn response_roundtrip_preserves_classification() {
        let ok = encode_response(1, &Ok(b"bytes".to_vec()));
        assert_eq!(decode_response(&ok).unwrap().outcome.unwrap(), b"bytes");
        let transient = encode_response(
            2,
            &Err(Error::Io(std::io::Error::other("flaky"))),
        );
        let r = decode_response(&transient).unwrap();
        assert_eq!(r.outcome, Err(WireError::Transient("I/O error: flaky".into())));
        let structural = encode_response(3, &Err(Error::InvalidRecord("bad".into())));
        let r = decode_response(&structural).unwrap();
        assert!(matches!(r.outcome, Err(WireError::Structural(_))));
    }

    #[test]
    fn truncated_messages_are_typed_errors() {
        for cut in 0..8 {
            let req = encode_request(&Request::Query {
                req_id: 9,
                query: DistQuery {
                    dataset: "d".into(),
                    region: "chr1".into(),
                    format: TargetFormat::Json,
                },
            });
            let short = &req[..req.len().min(cut * 3)];
            if let Err(e) = decode_request(short) {
                assert!(!e.is_transient());
            }
        }
        assert!(decode_response(&[1, 2, 3]).is_err());
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn every_format_crosses_the_wire() {
        for fmt in TargetFormat::ALL {
            let req = Request::Query {
                req_id: 1,
                query: DistQuery {
                    dataset: "d".into(),
                    region: "chr1".into(),
                    format: fmt,
                },
            };
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }
}
