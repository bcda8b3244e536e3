//! Smoke tests mirroring `examples/quickstart.rs`,
//! `examples/engine_stream.rs` and `examples/engine_backends.rs` at a
//! reduced scale, so the quickstart flows (host-side GD, the sharded engine
//! stream, the backend matrix, and the simulated two-switch deployment) are
//! exercised by `cargo test` on every change; CI additionally runs the real
//! example binaries.

use zipline_repro::zipline::deployment::{DeploymentConfig, ZipLineDeployment};
use zipline_repro::zipline_engine::{
    CompressionBackend, CompressionEngine, DeflateBackend, EngineBuilder, PassthroughBackend,
    PipelinedStream, SpawnPolicy, StreamSummary,
};
use zipline_repro::zipline_gd::codec::{compress, decompress};
use zipline_repro::zipline_gd::packet::PacketType;
use zipline_repro::zipline_gd::GdConfig;

/// Streams `data` through `engine` in 32-byte records, returning the wire
/// payloads and the stream totals.
fn stream_wire<B: CompressionBackend + Send + 'static>(
    engine: CompressionEngine<B>,
    batch_units: usize,
    data: &[u8],
) -> (Vec<(PacketType, Vec<u8>)>, StreamSummary) {
    let mut wire = Vec::new();
    let mut stream = PipelinedStream::new(engine, batch_units, |packet_type, bytes: &[u8]| {
        wire.push((packet_type, bytes.to_vec()));
    })
    .expect("stream starts");
    for chunk in data.chunks(32) {
        stream.push_record(chunk).expect("record streams");
    }
    let (_engine, summary) = stream.finish().expect("stream flushes");
    (wire, summary)
}

fn sensor_style_data(chunks: u32) -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..chunks {
        let mut chunk = [0u8; 32];
        chunk[0] = (i % 5) as u8;
        chunk[31] = 0xEE;
        if i % 7 == 0 {
            chunk[16] ^= 0x01;
        }
        data.extend_from_slice(&chunk);
    }
    data
}

#[test]
fn quickstart_flow_compresses_and_round_trips() {
    let config = GdConfig::paper_default();
    let data = sensor_style_data(200);

    // Host-side GD: lossless and strongly compressing on redundant data.
    let stream = compress(&config, &data).expect("compression succeeds");
    assert_eq!(decompress(&stream).expect("decompression succeeds"), data);
    let ratio = stream.serialized_len() as f64 / data.len() as f64;
    assert!(
        ratio < 0.2,
        "expected strong compression, got ratio {ratio}"
    );

    // The same payloads through the simulated two-switch deployment.
    let mut deployment =
        ZipLineDeployment::new(DeploymentConfig::fast_test()).expect("valid deployment");
    let payloads: Vec<Vec<u8>> = data.chunks(32).map(|c| c.to_vec()).collect();
    let received = deployment.run_payloads(&payloads).expect("simulation runs");
    assert_eq!(received, payloads, "in-network round trip is lossless");
}

#[test]
fn engine_stream_flow_compresses_and_round_trips() {
    // The engine_stream example flow at reduced scale: records stream
    // through the sharded engine into wire payloads, and the mirrored
    // decompressor restores them byte-exactly.
    let builder = EngineBuilder::new()
        .shards(8)
        .workers(4)
        .spawn(SpawnPolicy::Threads); // exercise the threaded path in CI
    let mut decoder = builder.build_decompressor().expect("valid decoder config");
    let engine = builder.build().expect("valid engine config");
    let data = sensor_style_data(300);

    let (wire, summary) = stream_wire(engine, 64, &data);
    assert_eq!(summary.bytes_in, data.len() as u64);
    assert!(
        summary.wire_bytes < data.len() as u64 / 2,
        "engine stream compresses the redundant workload"
    );

    let mut restored = Vec::new();
    for (packet_type, bytes) in &wire {
        decoder
            .restore_payload_into(*packet_type, bytes, &mut restored)
            .expect("payload decodes");
    }
    assert_eq!(restored, data, "engine round trip is lossless");
}

#[test]
fn pipelined_ingest_flow_matches_the_synchronous_stream() {
    // The pipelined_ingest example flow at reduced scale: the threaded
    // stream (worker forced on to exercise the threaded path in CI) emits
    // bit-identical wire output to the inline stream of an unpipelined
    // engine.
    let data = sensor_style_data(300);
    let builder = || {
        EngineBuilder::new()
            .shards(8)
            .workers(4)
            .spawn(SpawnPolicy::Threads)
    };
    let (inline_wire, inline_summary) =
        stream_wire(builder().build().expect("valid engine config"), 64, &data);

    let piped_engine = builder().pipelined(2).build().expect("valid engine config");
    let (piped_wire, summary) = stream_wire(piped_engine, 64, &data);
    assert_eq!(piped_wire, inline_wire, "pipelined output is bit-identical");
    assert_eq!(summary, inline_summary);
    assert_eq!(summary.bytes_in, data.len() as u64);
}

#[test]
fn backend_matrix_flow_compresses_and_round_trips() {
    // The engine_backends example flow at reduced scale: the same generic
    // stream drives GD, deflate and passthrough over one workload,
    // each restoring byte-exactly through its mirrored decompressor, with
    // passthrough as the ratio floor.
    let data = sensor_style_data(200);

    fn stream_through<B: CompressionBackend + Send + 'static>(
        engine: CompressionEngine<B>,
        mut decoder: zipline_repro::zipline_engine::EngineDecompressor<B>,
        batch_units: usize,
        data: &[u8],
    ) -> u64 {
        let (wire, summary) = stream_wire(engine, batch_units, data);
        let mut restored = Vec::new();
        for (pt, bytes) in &wire {
            decoder
                .restore_payload_into(*pt, bytes, &mut restored)
                .expect("payload decodes");
        }
        assert_eq!(restored, data, "backend round trip is lossless");
        summary.wire_bytes
    }

    let gd_builder = EngineBuilder::new().shards(4).workers(2);
    let gd_wire = stream_through(
        gd_builder.build().expect("valid GD engine"),
        EngineBuilder::new()
            .shards(4)
            .workers(2)
            .build_decompressor()
            .expect("valid GD decoder"),
        64,
        &data,
    );
    let deflate_wire = stream_through(
        EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build()
            .expect("valid deflate engine"),
        EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build_decompressor()
            .expect("valid deflate decoder"),
        4096,
        &data,
    );
    let floor_wire = stream_through(
        EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .expect("valid passthrough engine"),
        EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build_decompressor()
            .expect("valid passthrough decoder"),
        4096,
        &data,
    );

    assert_eq!(floor_wire, data.len() as u64, "passthrough is the floor");
    assert!(gd_wire < floor_wire, "GD beats the floor");
    assert!(deflate_wire < floor_wire, "deflate beats the floor");
}
