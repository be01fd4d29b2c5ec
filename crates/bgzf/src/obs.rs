//! Codec-level observability: block and byte counters published into
//! the global `ngs-obs` registry.
//!
//! The BGZF codec has no injected context to thread a registry through
//! (it is called from deep inside readers, writers, and rayon pools),
//! so it publishes to [`ngs_obs::global`], with handles registered once
//! and cached — the per-block cost is one branch on
//! [`ngs_obs::enabled`] plus four relaxed `fetch_add`s. `repro obs`
//! quantifies that overhead (< 5 % on the pipeline convert graph).
//!
//! The read-ahead reader adds four counters per member taken —
//! `bgzf.readahead_{members,bytes,consumer_stalls,producer_stalls}` —
//! so `ngsp stats` after a preprocess says which side bounded ingest:
//! consumer stalls mean the parse waited for inflate, producer stalls
//! mean inflate waited for the parse.

use std::sync::{Arc, OnceLock};

use ngs_obs::Counter;

struct Counters {
    blocks_inflated: Arc<Counter>,
    inflated_bytes_in: Arc<Counter>,
    inflated_bytes_out: Arc<Counter>,
    blocks_deflated: Arc<Counter>,
    deflated_bytes_in: Arc<Counter>,
    deflated_bytes_out: Arc<Counter>,
    readahead_members: Arc<Counter>,
    readahead_bytes: Arc<Counter>,
    readahead_consumer_stalls: Arc<Counter>,
    readahead_producer_stalls: Arc<Counter>,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = ngs_obs::global();
        Counters {
            blocks_inflated: r.counter("bgzf.blocks_inflated"),
            inflated_bytes_in: r.counter("bgzf.inflated_bytes_in"),
            inflated_bytes_out: r.counter("bgzf.inflated_bytes_out"),
            blocks_deflated: r.counter("bgzf.blocks_deflated"),
            deflated_bytes_in: r.counter("bgzf.deflated_bytes_in"),
            deflated_bytes_out: r.counter("bgzf.deflated_bytes_out"),
            readahead_members: r.counter("bgzf.readahead_members"),
            readahead_bytes: r.counter("bgzf.readahead_bytes"),
            readahead_consumer_stalls: r.counter("bgzf.readahead_consumer_stalls"),
            readahead_producer_stalls: r.counter("bgzf.readahead_producer_stalls"),
        }
    })
}

/// Records one decompressed block (`bytes_in` compressed block size,
/// `bytes_out` inflated payload size).
pub(crate) fn record_inflate(bytes_in: usize, bytes_out: usize) {
    if !ngs_obs::enabled() {
        return;
    }
    let c = counters();
    c.blocks_inflated.inc();
    c.inflated_bytes_in.add(bytes_in as u64);
    c.inflated_bytes_out.add(bytes_out as u64);
}

/// Records one compressed block (`bytes_in` payload size, `bytes_out`
/// framed block size).
pub(crate) fn record_deflate(bytes_in: usize, bytes_out: usize) {
    if !ngs_obs::enabled() {
        return;
    }
    let c = counters();
    c.blocks_deflated.inc();
    c.deflated_bytes_in.add(bytes_in as u64);
    c.deflated_bytes_out.add(bytes_out as u64);
}

/// Records one member handed to a read-ahead consumer (`bytes` of
/// inflated payload) and whether the consumer had to wait for it — a
/// *consumer stall*: inflate, not the parse behind it, bounds the read.
pub(crate) fn record_read_ahead(bytes: usize, stalled: bool) {
    if !ngs_obs::enabled() {
        return;
    }
    let c = counters();
    c.readahead_members.inc();
    c.readahead_bytes.add(bytes as u64);
    if stalled {
        c.readahead_consumer_stalls.inc();
    }
}

/// Records a read-ahead inflater finding the window full — a *producer
/// stall*: the consumer, not inflate, bounds the read.
pub(crate) fn record_producer_stall() {
    if ngs_obs::enabled() {
        counters().readahead_producer_stalls.inc();
    }
}

#[cfg(test)]
mod tests {
    use crate::block::{compress_block, decompress_block};
    use crate::deflate::Options;

    #[test]
    fn codec_publishes_block_and_byte_counters() {
        let registry = ngs_obs::global();
        let before_in = registry.counter("bgzf.blocks_inflated").get();
        let before_out = registry.counter("bgzf.blocks_deflated").get();
        let payload = b"counted payload".repeat(8);
        let block = compress_block(&payload, Options::default());
        let (back, _) = decompress_block(&block).unwrap();
        assert_eq!(back, payload);
        assert_eq!(registry.counter("bgzf.blocks_deflated").get(), before_out + 1);
        assert_eq!(registry.counter("bgzf.blocks_inflated").get(), before_in + 1);
        assert!(registry.counter("bgzf.deflated_bytes_in").get() >= payload.len() as u64);
    }
}
