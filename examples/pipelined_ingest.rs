//! # Pipelined async ingest: overlapping record production with compression
//!
//! The inline stream is synchronous — ingest stalls while a batch
//! compresses. A pipelined engine's [`PipelinedStream`] overlaps the two
//! through a bounded, backpressured channel feeding a dedicated engine
//! worker thread (std `mpsc` only, no async runtime), with batch buffers
//! recycled. This example walks the whole surface:
//!
//! 1. build one engine opted in to pipelining via
//!    [`EngineBuilder::pipelined`] and one without it;
//! 2. stream a sensor workload through both — threaded and inline — and
//!    verify the wire output is **bit-identical**: the pipeline is a
//!    latency/throughput knob, never a format change;
//! 3. do the same through the host path
//!    ([`EngineHostPath::compress_workload_to_frames`] with and without
//!    [`HostPathConfig::pipeline_depth`]), where live-sync control frames
//!    stay interleaved in the exact positions the decoder needs;
//! 4. time both streams (on a single-core host the pipelined stream
//!    degrades to inline execution and the two are expected to tie — the
//!    overlap pays on multi-core hosts).
//!
//! Run with:
//! ```sh
//! cargo run --release --example pipelined_ingest
//! ```
//!
//! [`PipelinedStream`]: zipline_repro::zipline_engine::PipelinedStream
//! [`EngineBuilder::pipelined`]: zipline_repro::zipline_engine::EngineBuilder::pipelined
//! [`EngineHostPath::compress_workload_to_frames`]: zipline_repro::zipline::host::EngineHostPath::compress_workload_to_frames
//! [`HostPathConfig::pipeline_depth`]: zipline_repro::zipline::host::HostPathConfig::pipeline_depth

use std::time::{Duration, Instant};

use zipline_repro::zipline::host::{EngineHostPath, HostPathConfig};
use zipline_repro::zipline_engine::{
    CompressionEngine, EngineBuilder, PipelinedStream, SpawnPolicy, StreamSummary,
};
use zipline_repro::zipline_traces::sensor::{SensorWorkload, SensorWorkloadConfig};

/// Streams `workload` through `engine`, returning the concatenated wire
/// bytes, the stream totals, the wall-clock time and whether an engine
/// worker thread ran.
fn stream_workload(
    engine: CompressionEngine,
    workload: &SensorWorkload,
) -> (Vec<u8>, StreamSummary, Duration, bool) {
    let mut wire: Vec<u8> = Vec::new();
    let started = Instant::now();
    let mut stream = PipelinedStream::new(engine, 256, |_, bytes: &[u8]| {
        wire.extend_from_slice(bytes);
    })
    .expect("stream starts");
    let threaded = stream.is_threaded();
    stream
        .consume_workload(workload)
        .expect("stream accepts the workload");
    let (_engine, summary) = stream.finish().expect("stream finishes");
    (wire, summary, started.elapsed(), threaded)
}

fn main() {
    // ------------------------------------------------------------------
    // 1. Two engines with the same shape; one opted in to pipelining.
    //    SpawnPolicy::Auto spawns the ingest worker only on multi-core
    //    hosts — on one core both streams run inline and stay comparable.
    // ------------------------------------------------------------------
    let builder = || {
        EngineBuilder::new()
            .shards(8)
            .workers(4)
            .spawn(SpawnPolicy::Auto)
    };
    let workload = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 40_000,
        ..SensorWorkloadConfig::small()
    });

    // ------------------------------------------------------------------
    // 2. Bit-identity: the pipelined stream emits exactly the inline
    //    stream's payload sequence.
    // ------------------------------------------------------------------
    let inline_engine = builder().build().expect("valid engine config");
    let (inline_wire, inline_summary, inline_elapsed, _) =
        stream_workload(inline_engine, &workload);
    let piped_engine = builder().pipelined(2).build().expect("valid engine config");
    let (piped_wire, piped_summary, piped_elapsed, threaded) =
        stream_workload(piped_engine, &workload);

    assert_eq!(piped_wire, inline_wire, "pipelined output is bit-identical");
    assert_eq!(piped_summary, inline_summary);
    println!(
        "engine stream: {} bytes in -> {} wire bytes ({} payloads), ratio {:.3}",
        inline_summary.bytes_in,
        inline_summary.wire_bytes,
        inline_summary.payloads_emitted,
        inline_summary.wire_bytes as f64 / inline_summary.bytes_in as f64,
    );
    println!(
        "inline {:>8.2?}   pipelined {:>8.2?}   (worker thread: {}) -- identical bytes",
        inline_elapsed,
        piped_elapsed,
        if threaded { "yes" } else { "inline fallback" },
    );

    // ------------------------------------------------------------------
    // 3. The host path: same opt-in, now with Ethernet framing and live
    //    decoder sync interleaved. Frame sequences must also match.
    // ------------------------------------------------------------------
    let mut inline_host =
        EngineHostPath::new(HostPathConfig::paper_default()).expect("valid host config");
    let (inline_frames, _) = inline_host
        .compress_workload_to_frames(&workload)
        .expect("host path compresses");
    let mut piped_host = EngineHostPath::new(HostPathConfig::pipelined(2)).expect("valid config");
    let (piped_frames, summary) = piped_host
        .compress_workload_to_frames(&workload)
        .expect("pipelined host path compresses");
    assert_eq!(piped_frames, inline_frames, "frame sequences are identical");
    println!(
        "host path: {} frames ({} live-sync control updates) -- pipelined == inline",
        piped_frames.len(),
        summary.control_updates,
    );
    println!("pipelined ingest walkthrough: OK");
}
